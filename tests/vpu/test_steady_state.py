"""Steady-state extrapolation against the stepper that never skips.

:class:`~repro.vpu.pipeline.VectorPipeline` jumps over whole strip
periods once it has proven the machine repeats (:mod:`repro.vpu.steady`);
:class:`~repro.vpu.reference.ReferencePipeline` steps every cycle.  Runs
here are set up the way the engine runs a figure cell (timing-only, warm
caches, no recorder), so the skip actually happens, and every run must
give the reference's full statistics.  ``sim_digests.json`` runs with
cold caches and the equivalence suite attaches a recorder, so neither
exercises the skip.
"""

import json
from dataclasses import replace

import pytest

from repro.core.config import ava_config, get_machine
from repro.experiments.configs import figure3_series
from repro.isa.operands import AddressSpace, MemOperand
from repro.sim.scenario import Scenario
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder
from repro.vpu.pipeline import VectorPipeline
from repro.vpu.reference import ReferencePipeline
from repro.vpu.steady import SteadyState
from repro.workloads.registry import WORKLOAD_NAMES, get_workload

#: Strips per run: enough for lavamd's 12-strip period to repeat after its
#: warm-up, and for every other kernel to skip several periods.  The last
#: strip is a half one, so the program stops repeating before it ends.
STRIPS = 32

SINGLE_LEVEL = [config for config in figure3_series()
                if not config.two_level]


def _program(name, config, strips=STRIPS):
    workload = get_workload(name)
    workload.n_elements = strips * config.mvl - config.mvl // 2
    return workload.compile(config).program


def _warm(cls, scenario, program, **kwargs):
    """A pipeline of ``cls`` whose L2 holds the program's data, as
    :meth:`Simulator.warm_caches` leaves an engine cell's."""
    sim = Simulator(scenario, program)
    sim.pipeline = cls(scenario, program, **kwargs)
    sim.warm_caches()
    return sim.pipeline


def _stats_json(pipe) -> str:
    return json.dumps(pipe.stats.to_dict(), sort_keys=True)


def _run_both(config, program, max_cycles=200_000_000):
    """Run both pipelines warm; each pipeline with its error text."""
    outcomes = []
    for cls in (ReferencePipeline, VectorPipeline):
        pipe = _warm(cls, Scenario(machine=config), program)
        try:
            pipe.run(max_cycles=max_cycles)
            error = None
        except RuntimeError as exc:
            error = str(exc)
        outcomes.append((pipe, error))
    return outcomes


@pytest.mark.parametrize("config", SINGLE_LEVEL, ids=lambda c: c.name)
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_extrapolated_runs_match_the_reference(name, config):
    program = _program(name, config)
    (ref, _), (pipe, _) = _run_both(config, program)
    assert _stats_json(pipe) == _stats_json(ref)
    assert pipe.now == ref.now


@pytest.mark.parametrize("name, machine, steady", [
    ("axpy", "native-x1", (9, 2, 20)),
    ("particlefilter", "native-x1", (3, 4, 24)),
    ("lavamd", "native-x1", (3, 12, 12)),
    ("swaptions", "rg-lmul2", (2, 6, 18)),
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
    field must be given a kind in steady.KIND."""
    config = get_machine("native-x1")
    tracker = SteadyState(VectorPipeline(config, _program("axpy", config)),
                          max_cycles=1)
    assert tracker.literals == []
    assert tracker.uop_literals == []


def test_runs_the_skip_cannot_prove_step_in_full():
    """Two-level, functional, sanitized and recorded runs never skip; the
    same single-level run without those does."""
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
    assert pipe.steady is None


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
