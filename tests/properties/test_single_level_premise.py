"""The premises behind treating single-level machines as swap-free.

:meth:`repro.sim.scenario.Scenario.simulated` resets the pre-issue swap
budget, the victim policy and aggressive reclamation on any machine whose
``two_level`` is false, so the result cache simulates such cells once
across those knobs.  That is sound only if the timing model never reads
them there: a machine with every VVR in its P-VRF always finds a free
P-reg, so it never swaps.  The pipeline model also never reclaims on such
a machine (it gates the flag on ``two_level`` itself), which is sound
only if early reclamation there changes no statistic.  These properties
check both premises outside the scheduler's fast paths, on the registered
single-level presets and on drawn NATIVE-, RG- and AVA-X1-shaped
configurations: each workload runs under two knob settings, and on the
reference stepper with and without forced reclamation, and each pair of
runs must give the same statistics.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core.config import (MachineConfig, MachineMode, get_machine,
                               machine_names)
from repro.core.swap import VictimPolicy
from repro.sim.scenario import CellPolicy, Scenario
from repro.vpu.params import DEFAULT_TIMING
from repro.vpu.pipeline import VectorPipeline
from repro.vpu.reference import ReferencePipeline
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
_SWAP_KNOBS = st.tuples(st.integers(1, 6), st.sampled_from(list(VictimPolicy)),
                        st.booleans())


def _stats(machine, program, budget, victim, reclaim) -> dict:
    scenario = Scenario(
        machine=machine,
        timing=replace(DEFAULT_TIMING, preissue_swap_budget=budget),
        policy=CellPolicy(victim_policy=victim,
                          aggressive_reclamation=reclaim))
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


def _reference_run(machine, program, reclaim: bool) -> ReferencePipeline:
    pipe = ReferencePipeline(machine, program)
    assert not pipe.aggressive_reclamation
    # The reference stepper keeps the RAC on every machine, so setting the
    # flag after construction makes it reclaim as a two-level machine does.
    pipe.aggressive_reclamation = reclaim
    pipe.run()
    return pipe


@given(machine=_MACHINES, name=st.sampled_from(registered_names()))
@settings(max_examples=30, deadline=None)
def test_single_level_stats_ignore_reclamation(machine, name):
    workload = get_workload(name)
    workload.n_elements = SMALL_N
    program = workload.compile(machine).program
    default = _reference_run(machine, program, reclaim=False)
    forced = _reference_run(machine, program, reclaim=True)
    assert forced.stats.to_dict() == default.stats.to_dict()


def test_forced_reclamation_reclaims_on_a_single_level_machine():
    """Keeps the property above from passing vacuously: forced
    reclamation does free registers early.  Each reclaim drops its VVR's
    generation, so the generations sum higher than in the default run."""
    machine = get_machine("native-x1")
    workload = get_workload("blackscholes")
    workload.n_elements = SMALL_N
    program = workload.compile(machine).program
    default = _reference_run(machine, program, reclaim=False)
    forced = _reference_run(machine, program, reclaim=True)
    assert sum(forced.vrf._generation) > sum(default.vrf._generation)
