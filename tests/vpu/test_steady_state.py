"""Steady-state extrapolation against the stepper that never skips.

:class:`~repro.vpu.pipeline.VectorPipeline` jumps over whole strip
periods once it has proven the machine repeats (:mod:`repro.vpu.steady`);
:class:`~repro.vpu.reference.ReferencePipeline` steps every cycle.  Runs
here are set up the way the engine runs a figure cell (timing-only, warm
caches, no recorder), so the skip actually happens, and every run must
give the reference's full statistics.  ``sim_digests.json`` runs with
cold caches and the equivalence suite attaches a recorder, so neither
exercises the skip.  On a two-level machine a jump also renames the
registers; equal statistics can hide a wrong renaming, so the machine
state after each jump is compared with the full stepper's as well.
"""

import json
from dataclasses import replace

import pytest

from repro.core.config import ava_config, get_machine
from repro.core.swap import VictimPolicy
from repro.core.uop import MicroOp
from repro.experiments.configs import figure3_series
from repro.isa.operands import AddressSpace, MemOperand
from repro.sim.scenario import CellPolicy, Scenario
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder
from repro.vpu import steady
from repro.vpu.pipeline import VectorPipeline
from repro.vpu.reference import ReferencePipeline
from repro.vpu.steady import KIND, SteadyState, _field_names
from repro.workloads.registry import WORKLOAD_NAMES, get_workload

#: Strips per run: enough for lavamd's 12-strip period to repeat after its
#: warm-up, and for every other kernel to skip several periods.  The last
#: strip is a half one, so the program stops repeating before it ends.
STRIPS = 32

TWO_LEVEL = [config for config in figure3_series() if config.two_level]


def _program(name, config, strips=STRIPS):
    workload = get_workload(name)
    workload.n_elements = strips * config.mvl - config.mvl // 2
    return workload.compile(config).program


def _warm(cls, scenario, program, mvrf=False, **kwargs):
    """A pipeline of ``cls`` whose L2 holds the program's data, as
    :meth:`Simulator.warm_caches` leaves an engine cell's; with ``mvrf``,
    every VVR's M-VRF slot as well."""
    sim = Simulator(scenario, program)
    pipe = sim.pipeline = cls(scenario, program, **kwargs)
    sim.warm_caches()
    if mvrf:
        config, layout = scenario.machine, pipe.layout
        base = layout.base_addr(layout.mvrf_operand(0))
        pipe.memsys.l2.access_lines(
            range(base, base + config.n_vvr * config.mvl * 8, 64))
        pipe.memsys.reset_stats()
    return pipe


def _stats_json(pipe) -> str:
    return json.dumps(pipe.stats.to_dict(), sort_keys=True)


def _run_both(config, program, max_cycles=200_000_000, scenario=None,
              mvrf=False):
    """Run both pipelines warm; each pipeline with its error text."""
    outcomes = []
    for cls in (ReferencePipeline, VectorPipeline):
        pipe = _warm(cls, scenario or Scenario(machine=config), program,
                     mvrf)
        try:
            pipe.run(max_cycles=max_cycles)
            error = None
        except RuntimeError as exc:
            error = str(exc)
        outcomes.append((pipe, error))
    return outcomes


@pytest.mark.parametrize("config", figure3_series(), ids=lambda c: c.name)
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_extrapolated_runs_match_the_reference(name, config):
    program = _program(name, config)
    (ref, _), (pipe, _) = _run_both(config, program)
    assert _stats_json(pipe) == _stats_json(ref)
    assert pipe.now == ref.now
    if config.two_level and pipe.steady is not None:
        # The reference keeps no swap demand; a recorded run steps in
        # full on the same scheduler.
        full = _warm(VectorPipeline, Scenario(machine=config), program)
        TraceRecorder(full)
        full.run()
        assert full.steady is None
        assert pipe.swap_demand == full.swap_demand


@pytest.mark.parametrize("name, machine, steady", [
    ("axpy", "native-x1", (9, 2, 20)),
    ("particlefilter", "native-x1", (3, 4, 24)),
    ("lavamd", "native-x1", (3, 12, 12)),
    ("swaptions", "rg-lmul2", (2, 6, 18)),
    ("particlefilter", "ava-x2", (3, 4, 24)),
    ("somier", "ava-x8", (4, 4, 20)),
])
def test_named_cells_extrapolate(name, machine, steady):
    """Keeps the comparison above from passing vacuously: these cells do
    skip, with this warm-up, period and strips skipped."""
    config = get_machine(machine)
    pipe = _warm(VectorPipeline, Scenario(machine=config),
                 _program(name, config))
    pipe.run()
    assert pipe.steady == steady


def test_every_tracked_field_is_classified():
    """An unclassified field is compared literally (and a container field
    cannot be, which makes every run step in full), so a new pipeline
    field must be given a kind in steady.KIND.  A deleted field must leave
    it too: a stale entry reads as a classified field that no longer
    exists.  A two-level run also tracks the RAC and the Swap Logic."""
    for machine in ("native-x1", "ava-x2"):
        config = get_machine(machine)
        pipe = VectorPipeline(config, _program("axpy", config))
        tracker = SteadyState(pipe, max_cycles=1)
        assert tracker.literals == []
        assert tracker.uop_literals == []
        l2 = pipe.memsys.l2
        objs = (pipe, pipe.rat, pipe.mapping, pipe.vrf, pipe.rob, pipe.rac,
                pipe.swap_logic, l2, l2.stats, pipe.memsys.dram, pipe.stats,
                MicroOp)
        names = [(obj if isinstance(obj, type) else type(obj)).__name__
                 for obj in objs]
        assert set(names) == set(KIND)
        for name, obj in zip(names, objs):
            assert set(_field_names(obj)) == set(KIND[name]), (machine, name)
    assert (pipe.swap_logic, "ties") in tracker.counters


def test_runs_the_skip_cannot_prove_step_in_full():
    """Functional, sanitized, recorded and round-robin runs never skip,
    nor does a run whose every strip breaks a tie by VVR id; each gives
    the statistics it gives stepping in full.  The same runs without
    those do skip, on a single-level and on a two-level machine."""
    program = _program("particlefilter", get_machine("native-x1"))
    scenario = Scenario(machine=get_machine("native-x1"))
    plain = _warm(VectorPipeline, scenario, program)
    plain.run()
    assert plain.steady is not None
    for kwargs in ({"functional": True}, {"sanitize": True}):
        pipe = _warm(VectorPipeline, scenario, program, **kwargs)
        pipe.run()
        assert pipe.steady is None, kwargs
        assert _stats_json(pipe) == _stats_json(plain)
    recorded = _warm(VectorPipeline, scenario, program)
    TraceRecorder(recorded)
    recorded.run()
    assert recorded.steady is None
    assert _stats_json(recorded) == _stats_json(plain)
    two_level = ava_config(2)
    pipe = _warm(VectorPipeline, Scenario(machine=two_level),
                 _program("particlefilter", two_level))
    pipe.run()
    assert pipe.steady is not None
    round_robin = Scenario(machine=two_level, policy=CellPolicy(
        victim_policy=VictimPolicy.ROUND_ROBIN))
    # blackscholes breaks a tie by id in every strip from the third on
    # (on AVA X3 only reclaims, which no other proof refuses).
    for config, name, scenario in (
            (two_level, "particlefilter", round_robin),
            (ava_config(3), "blackscholes", None),
            (ava_config(4), "blackscholes", None)):
        # Every boundary encoded, not only those outside a streak of
        # tie-breaking strips: the witness alone must refuse.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(steady, "_STREAK", 1 << 30)
            (ref, _), (pipe, _) = _run_both(
                config, _program(name, config), scenario=scenario)
        assert pipe.steady is None, name
        assert _stats_json(pipe) == _stats_json(ref)


#: somier on AVA X8 without reclamation swaps in its steady state.
_SWAPPING = Scenario(machine=ava_config(8), policy=CellPolicy(
    aggressive_reclamation=False))


@pytest.mark.parametrize("mvrf", [False, True], ids=["cold", "warm"])
def test_a_period_that_swaps_needs_every_mvrf_slot_resident(mvrf):
    """A skipped period's swap ops address other VVRs' M-VRF slots than
    the period's did, so a period that swapped is skipped only while
    every slot's lines are resident: with a cold M-VRF the run steps in
    full, with a warm one it skips, and both give the reference's
    statistics."""
    config = _SWAPPING.machine
    (ref, _), (pipe, _) = _run_both(config, _program("somier", config),
                                    scenario=_SWAPPING, mvrf=mvrf)
    assert _stats_json(pipe) == _stats_json(ref)
    assert pipe.stats.swap_insts > 0
    assert (pipe.steady is not None) is mvrf


def _literal_state(pipe):
    """What a jump renames, literally: every id-indexed structure the
    Swap Mechanism and the pipeline read, and each ROB uop's ids."""
    mapping, vrf = pipe.mapping, pipe.vrf
    return (list(pipe.rat._rat), list(pipe.rat._frl), list(mapping._prmt),
            list(mapping._vrlt), list(mapping._pfrl), list(mapping._owner),
            list(mapping._in_mvrf), list(vrf._valid),
            sorted(vrf._mvrf_valid), list(pipe.rac._counts),
            sorted(pipe._pending_writer), sorted(pipe._vvr_queued_readers),
            [(u.src_vvrs, u.dst_vvr, u.old_dst_vvr, u.src_pregs, u.dst_preg)
             for u in pipe.rob._entries])


def _boundary_states(scenario, program, monkeypatch, jump, mvrf=False):
    """The literal state at the top of every boundary cycle after the
    first jump (with ``jump`` false, of every boundary: the tracker then
    proves no period), by strips fetched; and the run's steady state."""
    states = {}
    at_boundary = SteadyState.at_boundary

    def record(tracker, now, local_counts):
        pipe = tracker.pipe
        if not jump or pipe.steady is not None:
            strips = sum(1 for pos in tracker.blocks
                         if pos < pipe._fetch_idx)
            states[strips] = _literal_state(pipe)
        return at_boundary(tracker, now, local_counts)

    with monkeypatch.context() as patch:
        patch.setattr(SteadyState, "at_boundary", record)
        if not jump:
            patch.setattr(SteadyState, "_periods", lambda *args: 0)
        pipe = _warm(VectorPipeline, scenario, program, mvrf)
        pipe.run()
    return states, pipe.steady


def test_the_state_after_a_jump_is_the_full_steppers(monkeypatch):
    """After a jump the tail may break ties by VVR id again, which is
    sound only if the jump renamed every register exactly as stepping
    would have: at each boundary after it, the RAT, free lists, mapping,
    valid bits, M-VRF set, RAC, side-table keys and ROB uops' ids equal
    the full stepper's at the same strip.  Besides the figure cells,
    runs that swap in their steady state (FIFO and RAC-min eviction,
    warm M-VRF) rename swap ops in flight."""
    runs = [(Scenario(machine=config), name, False)
            for config in TWO_LEVEL for name in WORKLOAD_NAMES]
    runs += [(_SWAPPING, "somier", True),
             (Scenario(machine=ava_config(4), policy=CellPolicy(
                 VictimPolicy.FIFO, aggressive_reclamation=False)),
              "blackscholes", True)]
    compared = 0
    for scenario, name, mvrf in runs:
        program = _program(name, scenario.machine)
        jumped, skipped = _boundary_states(scenario, program, monkeypatch,
                                           True, mvrf)
        if skipped is None:
            continue
        full, stepped = _boundary_states(scenario, program, monkeypatch,
                                         False, mvrf)
        assert stepped is None
        for strips, state in jumped.items():
            assert state == full[strips], (name, scenario.machine.name,
                                           strips)
            compared += 1
    assert compared >= 30


def test_a_line_the_l2_lacks_ahead_stops_the_skip():
    """The first three quarters of axpy's data are resident, the rest
    are not: its early strips repeat with every access a hit, yet no
    period may be skipped, since the skipped accesses would have missed.
    Fully warm, the same program skips (test_named_cells_extrapolate)."""
    config = get_machine("native-x1")
    program = _program("axpy", config)
    pipes = []
    for cls in (ReferencePipeline, VectorPipeline):
        pipe = cls(Scenario(machine=config), program)
        for name, n_elems in program.buffers.items():
            base = pipe.layout.base_addr(MemOperand(AddressSpace.DATA, name))
            pipe.memsys.l2.access_lines(range(base, base + n_elems * 6, 64))
        pipe.memsys.reset_stats()
        pipe.run()
        pipes.append(pipe)
    ref, pipe = pipes
    assert _stats_json(pipe) == _stats_json(ref)
    assert pipe.stats.l2_misses > 0
    assert pipe.steady is None


@pytest.mark.parametrize("strip", [12, 20])
def test_an_instruction_that_stops_repeating_stops_the_skip(strip):
    """One arithmetic instruction in the middle of the run computes half
    a strip: the skip must stop short of the period that holds it."""
    config = get_machine("native-x1")
    program = _program("particlefilter", config)
    blocks = [i for i, inst in enumerate(program.insts) if inst.is_scalar]
    pos = next(i for i in range(blocks[strip], len(program.insts))
               if program.insts[i].is_arith)
    program.insts[pos] = replace(program.insts[pos],
                                 vl=program.insts[pos].vl // 2)
    (ref, _), (pipe, _) = _run_both(config, program)
    assert pipe.steady is not None
    assert _stats_json(pipe) == _stats_json(ref)


def test_max_cycles_before_inside_and_after_the_skipped_region():
    """A cycle budget that runs out before the first jump, inside the
    skipped region (the jump stops short of it) or in the tail after it
    stops the run where the reference stops: same error text, cycle and
    statistics."""
    config = get_machine("native-x1")
    program = _program("particlefilter", config)
    (ref, _), (full, _) = _run_both(config, program)
    total = ref.now
    assert full.steady == (3, 4, 24)
    seen = set()
    for budget in (total // 20, total // 2, total - 40, total):
        (ref, ref_error), (pipe, error) = _run_both(config, program, budget)
        assert error == ref_error
        assert (error is None) == (budget == total)
        assert pipe.now == ref.now
        assert _stats_json(pipe) == _stats_json(ref)
        if pipe.steady is None:
            seen.add("before")
        elif pipe.steady[2] < full.steady[2]:
            seen.add("inside")
        else:
            seen.add("after")
    assert seen == {"before", "inside", "after"}
