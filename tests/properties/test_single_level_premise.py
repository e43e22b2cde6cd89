"""The premise behind keying single-level cells at default swap knobs.

:meth:`repro.sim.scenario.Scenario.simulated` resets the pre-issue swap
budget and the victim policy on any machine whose ``two_level`` is false,
so the result cache simulates such cells once across those knobs.  That is
sound only if the timing model never reads either knob there: a machine
with every VVR in its P-VRF always finds a free P-reg, so it never swaps.
This property checks the premise outside the keying fast path, on the
registered single-level presets and on drawn NATIVE-, RG- and
AVA-X1-shaped configurations, by simulating each workload under two knob
settings and comparing the full statistics.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core.config import (MachineConfig, MachineMode, get_machine,
                               machine_names)
from repro.core.swap import VictimPolicy
from repro.sim.scenario import CellPolicy, Scenario
from repro.vpu.params import DEFAULT_TIMING
from repro.vpu.pipeline import VectorPipeline
from repro.workloads import get_workload
from repro.workloads.registry import registered_names

#: Shrunken problem size: enough strips to fill the queues, few events.
SMALL_N = 256

_SINGLE_LEVEL_PRESETS = [name for name in machine_names()
                         if not get_machine(name).two_level]


@st.composite
def _shaped_machines(draw):
    """A single-level machine shaped like NATIVE Xn, RG-LMULn or AVA X1,
    at any lane count that divides its MVL."""
    shape = draw(st.sampled_from(["native", "rg", "ava-x1"]))
    if shape == "native":
        mode, scale, grouping = MachineMode.NATIVE, draw(
            st.integers(1, 8)), 1
    elif shape == "rg":
        mode, grouping = MachineMode.RG, draw(st.integers(1, 8))
        scale = grouping
    else:
        mode, scale, grouping = MachineMode.AVA, 1, 1
    mvl = 16 * scale
    lanes = draw(st.sampled_from(
        [lanes for lanes in (2, 4, 8, 16) if mvl % lanes == 0]))
    n_vvr = 64 // grouping
    return MachineConfig(name=f"drawn {shape}", mode=mode, mvl=mvl,
                         n_logical=32 // grouping, n_vvr=n_vvr,
                         n_physical=n_vvr, lanes=lanes)


_MACHINES = st.one_of(st.sampled_from(_SINGLE_LEVEL_PRESETS).map(get_machine),
                      _shaped_machines())
_SWAP_KNOBS = st.tuples(st.integers(1, 6), st.sampled_from(list(VictimPolicy)))


def _stats(machine, program, budget, victim) -> dict:
    scenario = Scenario(
        machine=machine,
        timing=replace(DEFAULT_TIMING, preissue_swap_budget=budget),
        policy=CellPolicy(victim_policy=victim))
    return VectorPipeline(scenario, program).run().to_dict()


@given(machine=_MACHINES, name=st.sampled_from(registered_names()),
       first=_SWAP_KNOBS, second=_SWAP_KNOBS)
@settings(max_examples=40, deadline=None)
def test_single_level_stats_ignore_swap_only_knobs(machine, name, first,
                                                   second):
    assert not machine.two_level
    workload = get_workload(name)
    workload.n_elements = SMALL_N
    program = workload.compile(machine).program
    stats = _stats(machine, program, *first)
    assert stats["swap_loads"] == stats["swap_stores"] == 0
    assert stats == _stats(machine, program, *second)
