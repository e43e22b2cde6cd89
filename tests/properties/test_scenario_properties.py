"""Property tests for the scenario layer's round-trip guarantees.

The contract the result cache rests on: any scenario assembled from
registry names survives ``registry name -> Scenario -> cache key -> JSON
-> equal Scenario`` without drift — equal scenarios key identically, and
the JSON form is a lossless inverse.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.core.config import machine_names
from repro.core.swap import VictimPolicy
from repro.experiments.engine import Cell, cell_key
from repro.memory.presets import memory_system_names
from repro.sim.scenario import CellPolicy, Scenario, build_scenario
from repro.vpu.params import timing_names
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
@settings(max_examples=60, deadline=None)
def test_scenario_round_trips_through_json(scenario):
    wire = json.dumps(scenario.to_dict(), sort_keys=True)
    assert Scenario.from_dict(json.loads(wire)) == scenario
    # Serialisation is deterministic: equal scenarios, equal wire form.
    assert json.dumps(scenario.to_dict(), sort_keys=True) == wire


@given(scenario=_scenarios)
@settings(max_examples=30, deadline=None)
def test_equal_scenarios_key_identically(scenario):
    cell = Cell("axpy", scenario)
    clone = Cell("axpy", Scenario.from_dict(json.loads(
        json.dumps(scenario.to_dict()))))
    assert cell_key(cell, _AXPY) == cell_key(clone, _AXPY)


@given(a=_scenarios, b=_scenarios)
@settings(max_examples=30, deadline=None)
def test_distinct_scenarios_never_collide(a, b):
    """Different scenario -> different cache key (same workload)."""
    key_a = cell_key(Cell("axpy", a), _AXPY)
    key_b = cell_key(Cell("axpy", b), _AXPY)
    assert (key_a == key_b) == (a == b)
