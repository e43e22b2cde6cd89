"""Whole-system simulator: scalar core + VPU + memory hierarchy.

:class:`repro.sim.simulator.Simulator` is the user-facing entry point::

    from repro import Simulator, ava_config
    sim = Simulator(ava_config(8), program, functional=True)
    result = sim.run()
    print(result.stats.cycles, result.stats.swap_loads)

It wires a :class:`repro.vpu.pipeline.VectorPipeline` to a memory layout and
collects :class:`repro.sim.stats.SimStats`.
"""
