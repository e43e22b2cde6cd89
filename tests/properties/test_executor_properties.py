"""Property tests for the executor's cache keys and counters.

The contracts a shared result cache rests on: a cell's key is a pure
function of its inputs (deterministic, equal for an equal copy of its
scenario, equal exactly when the hashed inputs are equal), and the
``--stats-json`` body carries every counter unchanged through JSON.
"""

import copy
import json
from dataclasses import fields

from hypothesis import given, settings, strategies as st

from repro.core.config import machine_names
from repro.experiments.engine import (Cell, ExecutorStats, cell_key,
                                      cell_key_payload)
from repro.memory.presets import memory_system_names
from repro.sim.scenario import build_scenario
from repro.vpu.params import timing_names

# Sample the registries once so the strategies stay stable across examples.
_scenarios = st.builds(build_scenario,
                       machine=st.sampled_from(machine_names()),
                       memory=st.sampled_from(memory_system_names()),
                       timing=st.sampled_from(timing_names()))

_cells = st.builds(Cell,
                   st.sampled_from(["axpy", "blackscholes", "somier"]),
                   _scenarios,
                   warm=st.booleans(),
                   check=st.booleans())

#: Stand-ins for workload compile fingerprints: keys never compile.
_fingerprints = st.sampled_from(["f0", "f1"])

_stats = st.builds(ExecutorStats, **{
    f.name: st.integers(min_value=0, max_value=10**9)
    for f in fields(ExecutorStats)})

_RESILIENCE = ("retries", "timeouts", "cache_quarantined")


@given(cell=_cells, fingerprint=_fingerprints)
@settings(max_examples=40, deadline=None)
def test_cell_key_is_a_pure_function_of_the_cell(cell, fingerprint):
    key = cell_key(cell, fingerprint)
    assert cell_key(cell, fingerprint) == key  # no per-process hash seed
    clone = Cell(cell.workload_name, copy.deepcopy(cell.scenario),
                 warm=cell.warm, check=cell.check)
    assert cell_key(clone, fingerprint) == key


@given(a=_cells, b=_cells, fa=_fingerprints, fb=_fingerprints)
@settings(max_examples=60, deadline=None)
def test_cell_keys_collide_exactly_when_their_inputs_match(a, b, fa, fb):
    same_inputs = cell_key_payload(a, fa) == cell_key_payload(b, fb)
    assert (cell_key(a, fa) == cell_key(b, fb)) == same_inputs


@given(cell=_cells)
@settings(max_examples=20, deadline=None)
def test_cell_key_sees_the_compile_fingerprint(cell):
    assert cell_key(cell, "f0") != cell_key(cell, "f1")


@given(stats=_stats)
@settings(max_examples=40, deadline=None)
def test_stats_json_body_carries_every_counter(stats):
    body = json.loads(json.dumps(stats.to_dict()))
    assert list(body) == [f.name for f in fields(ExecutorStats)]
    assert ExecutorStats(**body) == stats


@given(stats=_stats)
@settings(max_examples=40, deadline=None)
def test_summary_adds_lines_only_for_what_happened(stats):
    lines = stats.summary().splitlines()
    assert lines[0] == (
        f"engine: {stats.cells_requested} cells requested, "
        f"{stats.cache_hits} cache hits, {stats.cache_misses} misses, "
        f"{stats.sims_executed} simulations executed, "
        f"{stats.compiles} kernel compiles, {stats.trace_hits} trace hits, "
        f"{stats.trace_misses} trace misses")
    prefixes = [line.split(":")[0] for line in lines[1:]]
    assert ("resilience" in prefixes) == any(
        getattr(stats, name) for name in _RESILIENCE)
    assert ("reuse" in prefixes) == bool(stats.sims_reused)
    assert ("failures" in prefixes) == bool(stats.cells_failed)
    assert ("scheduler" in prefixes) == bool(stats.sim_cycles)
    assert ("spans" in prefixes) == bool(stats.sim_cycles
                                         and stats.sim_spans_charged)
