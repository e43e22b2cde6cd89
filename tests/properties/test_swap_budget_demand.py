"""The swap-budget demand, and the engine shortcut that rests on it.

Only pre-issue's budget checks read ``preissue_swap_budget``.  The
pipeline records the run's demand
(:attr:`~repro.vpu.pipeline.VectorPipeline.swap_demand`): one more than
the most swap ops a pre-issue call had inserted at any check, or infinity
once a check stopped a call (the run is *bound*).  A run that never bound
is then the same run at every budget >= its demand, and
:func:`repro.experiments.engine._run_pair` lands its payload under such a
key instead of simulating it.  The shortcut skips work on the strength of
this premise, so it is checked here from outside, by simulating what the
engine would not:

* on drawn two-level machines (presets and small P-VRFs), kernels that
  bind (blackscholes, lavamd) or never swap (axpy), memory presets and
  budgets, a run that did not bind equals the run at any budget >= its
  demand: statistics, issue timeline, final buffers and demand, in
  functional mode; and the demand is tight: one budget less binds;
* a pair job over two budgets reuses exactly when the first run did not
  bind and the second budget covers its demand, and the reused payload is
  the one a simulation of that key alone produces.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import (ava_config, get_machine, machine_names,
                               with_physical_registers)
from repro.experiments.engine import DATA_SEED, Cell, CellExecutor, _run_cell
from repro.memory.presets import memory_system_names
from repro.sim.scenario import build_scenario
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder
from repro.vpu.params import DEFAULT_TIMING
from repro.workloads import get_workload

#: Shrunken problem size: enough strips to fill the queues, few events.
SMALL_N = 256

_TWO_LEVEL_PRESETS = [name for name in machine_names()
                      if get_machine(name).two_level]

_MACHINES = st.one_of(
    st.sampled_from(_TWO_LEVEL_PRESETS).map(get_machine),
    st.builds(lambda scale, n: with_physical_registers(ava_config(scale), n),
              st.sampled_from([2, 4, 8]), st.integers(6, 12)))
_KERNELS = st.sampled_from(["blackscholes", "lavamd", "axpy"])
_MEMORY = st.sampled_from(memory_system_names())
_BUDGETS = st.integers(1, 8)


def _workload(name: str):
    workload = get_workload(name)
    workload.n_elements = SMALL_N
    return workload


def _scenario(machine, memory: str, budget: int):
    return build_scenario(machine, memory=memory, timing=replace(
        DEFAULT_TIMING, preissue_swap_budget=budget))


def _simulate(workload, program, machine, memory: str, budget: int):
    """One functional run as a checked cell makes it: (demand, stats,
    issue timeline, final buffers)."""
    sim = Simulator(_scenario(machine, memory, budget), program,
                    functional=True)
    recorder = TraceRecorder(sim.pipeline)
    for name, values in workload.init_data(
            np.random.default_rng(DATA_SEED)).items():
        sim.set_data(name, values)
    sim.warm_caches()
    result = sim.run()
    buffers = {name: values.tolist() for name, values in result.data.items()}
    return (sim.pipeline.swap_demand, result.stats.to_dict(),
            recorder.events, buffers)


@given(machine=_MACHINES, name=_KERNELS, memory=_MEMORY, budget=_BUDGETS,
       extra=st.integers(0, 6))
@settings(max_examples=30, deadline=None)
def test_unbound_run_is_the_run_at_every_covering_budget(machine, name,
                                                         memory, budget,
                                                         extra):
    workload = _workload(name)
    program = workload.compile(machine).program
    first = _simulate(workload, program, machine, memory, budget)
    demand = first[0]
    if demand == math.inf:
        return  # bound: the run speaks only for its own budget
    assert demand <= budget
    least = max(demand, 1)
    for covering in sorted({least, least + extra}):
        assert _simulate(workload, program, machine, memory,
                         covering) == first
    if demand > 1:
        tighter = _simulate(workload, program, machine, memory, demand - 1)
        assert tighter[0] == math.inf


@given(machine=_MACHINES, name=_KERNELS, memory=_MEMORY, budget=_BUDGETS,
       offset=st.integers(-1, 3))
@settings(max_examples=25, deadline=None)
def test_pair_job_reuses_exactly_the_covered_budgets(machine, name, memory,
                                                     budget, offset):
    """The second budget sits around the first run's demand, one below it
    included, so a reuse rule off by one fails here."""
    workload = _workload(name)
    first = Cell(workload, _scenario(machine, memory, budget), check=True)
    run: dict = {}
    _run_cell(first, workload.compile(machine).program, run)
    demand = run["swap_demand"]
    anchor = budget if demand == math.inf else max(demand, 1)
    second_budget = max(1, anchor + offset)
    if second_budget == budget:
        return  # one key: nothing to reuse
    second = replace(first, scenario=_scenario(machine, memory,
                                               second_budget))
    executor = CellExecutor()
    batched = executor.run([first, second])
    assert executor.stats.sims_reused == int(demand <= second_budget)
    [alone] = CellExecutor().run([second])
    assert batched[1].stats == alone.stats
    assert batched[1].energy == alone.energy
    assert batched[1].correct is alone.correct is True


def test_draws_cover_bound_unbound_and_swap_free_runs():
    """Keeps the properties above from passing vacuously: on AVA X8,
    blackscholes binds at budget 2 and needs 3 at budget 3, and axpy
    never reaches a budget check."""
    machine = get_machine("ava-x8")

    def demand(name, budget):
        workload = _workload(name)
        program = workload.compile(machine).program
        return _simulate(workload, program, machine, "table2", budget)[0]

    assert demand("blackscholes", 2) == math.inf
    assert demand("blackscholes", 3) == 3
    assert demand("axpy", 1) == 0
