"""Property tests for the scenario layer's key guarantees.

The contract the result cache rests on: any scenario assembled from
registry names keys without drift — equal scenarios key identically,
however they were built.  The key hashes the scenario as simulated
(:meth:`Scenario.simulated`), so scenarios differing only in a knob their
machine never reads share a key.
"""

import copy
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import machine_names
from repro.core.swap import VictimPolicy
from repro.experiments.engine import Cell, cell_key
from repro.memory.presets import memory_system_names
from repro.sim.scenario import CellPolicy, Scenario, build_scenario
from repro.vpu.params import DEFAULT_TIMING, timing_names
from repro.workloads import get_workload

# The registries are populated at import time; sampling the name lists
# once keeps the strategies stable across examples.
_MACHINES = st.sampled_from(machine_names())
_MEMORY = st.sampled_from(memory_system_names())
_TIMING = st.sampled_from(timing_names())
_POLICIES = st.builds(CellPolicy,
                      victim_policy=st.sampled_from(list(VictimPolicy)),
                      aggressive_reclamation=st.booleans())

_scenarios = st.builds(build_scenario, machine=_MACHINES, memory=_MEMORY,
                       timing=_TIMING, policy=_POLICIES)

# The workload side of the key, computed once so Hypothesis examples
# don't rebuild the kernel.
_AXPY = get_workload("axpy").compile_fingerprint()


@given(scenario=_scenarios)
@settings(max_examples=30, deadline=None)
def test_equal_scenarios_key_identically(scenario):
    cell = Cell("axpy", scenario)
    clone = Cell("axpy", copy.deepcopy(scenario))
    assert clone.scenario is not scenario
    assert cell_key(cell, _AXPY) == cell_key(clone, _AXPY)


@given(a=_scenarios, b=_scenarios)
@settings(max_examples=30, deadline=None)
def test_distinct_scenarios_never_collide(a, b):
    """Two keys (same workload) collide exactly when the scenarios are
    equal as simulated: a single-level machine keys its swap-only knobs at
    their defaults, every other difference keys apart."""
    key_a = cell_key(Cell("axpy", a), _AXPY)
    key_b = cell_key(Cell("axpy", b), _AXPY)
    assert (key_a == key_b) == (a.simulated() == b.simulated())


@pytest.mark.parametrize("machine", ["ava-x4", "ava-x8"])
@pytest.mark.parametrize("knob", [
    {"timing": replace(DEFAULT_TIMING, preissue_swap_budget=1)},
    {"policy": CellPolicy(victim_policy=VictimPolicy.FIFO)},
    {"policy": CellPolicy(victim_policy=VictimPolicy.ROUND_ROBIN)},
    {"policy": CellPolicy(aggressive_reclamation=False)},
])
def test_two_level_machines_key_apart_on_each_swap_only_knob(machine, knob):
    base = build_scenario(machine)
    varied = Scenario(**{"machine": base.machine, **knob})
    assert varied.simulated() is varied
    assert (cell_key(Cell("axpy", varied), _AXPY)
            != cell_key(Cell("axpy", base), _AXPY))


@pytest.mark.parametrize("machine", machine_names())
def test_simulated_resets_only_what_a_single_level_machine_ignores(machine):
    default = build_scenario(machine, memory="slow-dram")
    assert default.simulated() is default  # the default-knob fast path
    varied = build_scenario(
        machine, memory="slow-dram",
        timing=replace(DEFAULT_TIMING, preissue_swap_budget=5),
        policy=CellPolicy(victim_policy=VictimPolicy.FIFO,
                          aggressive_reclamation=False))
    if default.machine.two_level:
        assert varied.simulated() is varied
    else:
        assert varied.simulated() == default


_SWAP_KNOBS = st.tuples(st.integers(1, 6), _POLICIES)


@given(machine=_MACHINES, first=_SWAP_KNOBS, second=_SWAP_KNOBS)
@settings(max_examples=60, deadline=None)
def test_simulated_merges_exactly_the_single_level_swap_knobs(machine, first,
                                                             second):
    """Single-level scenarios that differ in any of the three swap-only
    knobs simulate as one value; two-level scenarios come back as given."""
    a, b = (build_scenario(machine, policy=policy, timing=replace(
                DEFAULT_TIMING, preissue_swap_budget=budget))
            for budget, policy in (first, second))
    if a.machine.two_level:
        assert a.simulated() is a and b.simulated() is b
    else:
        assert a.simulated() == b.simulated()
