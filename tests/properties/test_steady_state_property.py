"""Steady-state extrapolation on drawn single-level machines and timings.

The single-level premise properties next door draw NATIVE-, RG- and
AVA-X1-shaped machines and chaining delays and dead times; here each
drawn machine runs a registered workload with warm caches, as an engine
cell does, so :class:`~repro.vpu.pipeline.VectorPipeline` may skip whole
strip periods (:mod:`repro.vpu.steady`).  The reference stepper never
skips, and the two must give the same full statistics.
"""

from hypothesis import given, note, settings, strategies as st

from repro.sim.scenario import Scenario
from repro.sim.simulator import Simulator
from repro.vpu.pipeline import VectorPipeline
from repro.vpu.reference import ReferencePipeline
from repro.workloads import get_workload
from repro.workloads.registry import registered_names
from tests.properties.test_single_level_premise import _MACHINES, _TIMINGS


def _warm_run(cls, scenario, program):
    sim = Simulator(scenario, program)
    sim.pipeline = cls(scenario, program)
    sim.warm_caches()
    sim.pipeline.run()
    return sim.pipeline


@given(machine=_MACHINES, name=st.sampled_from(registered_names()),
       timing=_TIMINGS, strips=st.integers(8, 24))
@settings(max_examples=15, deadline=None)
def test_extrapolation_matches_the_reference(machine, name, timing, strips):
    workload = get_workload(name)
    workload.n_elements = strips * machine.mvl
    program = workload.compile(machine).program
    scenario = Scenario(machine=machine, timing=timing)
    pipe = _warm_run(VectorPipeline, scenario, program)
    ref = _warm_run(ReferencePipeline, scenario, program)
    note(f"steady state: {pipe.steady}")
    assert pipe.stats.to_dict() == ref.stats.to_dict()
    assert pipe.now == ref.now
