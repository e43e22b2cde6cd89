"""Golden equivalence: event-driven scheduler vs the reference stepper.

The event-driven scheduler in :mod:`repro.vpu.pipeline` must be
*observationally invisible*: for any (workload, configuration, policy)
cell it has to produce byte-identical statistics JSON and byte-identical
functional-mode output buffers compared to the cycle-by-cycle reference
stepper (:mod:`repro.vpu.reference`), plus an identical per-uop issue
timeline (rename, issue, first-ready and done stamps).  These tests pin
that equivalence across every registered workload, a grid of MVL / P-VRF /
victim-policy configurations, whole scenarios (memory latencies and swap
budgets), and Hypothesis-generated random programs.

Workload instances are shrunk (fewer elements, same kernels) so the suite
stays inside tier-1 time budgets; strip counts remain large enough that
renaming, chaining, swap traffic and reclamation are all exercised.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import (ava_config, native_config, rg_config,
                               with_physical_registers)
from repro.core.swap import VictimPolicy
from repro.isa.builder import KernelBuilder
from repro.memory.hierarchy import MemorySystemConfig
from repro.sim.scenario import CellPolicy, build_scenario
from repro.sim.trace import TraceRecorder
from repro.vpu.params import DEFAULT_TIMING, timing_names
from repro.vpu.pipeline import VectorPipeline
from repro.vpu.reference import ReferencePipeline
from repro.workloads.registry import ALL_WORKLOAD_NAMES, get_workload
from tests.conftest import compile_kernel

#: The MVL / P-VRF grid every workload is checked on: a single-level
#: machine, a mildly constrained AVA machine, and the most swap-intensive
#: AVA point (8 physical registers for 64 VVRs).
CONFIGS = [native_config(2), ava_config(2), ava_config(8)]

#: Shrunken problem size: 32+ strips on every configuration in CONFIGS.
SMALL_N = 512


def _compile_small(name, config):
    workload = get_workload(name)
    workload.n_elements = SMALL_N
    return workload, workload.compile(config).program


def _run(cls, workload, program, scenario, functional):
    pipe = cls(scenario, program, functional=functional)
    recorder = TraceRecorder(pipe)
    data = workload.init_data(np.random.default_rng(42))
    if functional:
        for buf, values in data.items():
            pipe.layout.set_data(buf, values)
    stats = pipe.run()
    buffers = {}
    if functional:
        buffers = {buf: pipe.layout.get_data(buf) for buf in program.buffers}
    return stats, buffers, recorder.events


def _assert_equivalent(workload, program, config, *, functional=True,
                       **axes):
    """Run both pipelines on one scenario: ``config`` plus the
    :func:`build_scenario` axes (``timing``, ``memory``, ``policy``)."""
    scenario = build_scenario(config, **axes)
    ref_stats, ref_bufs, ref_events = _run(ReferencePipeline, workload,
                                           program, scenario, functional)
    new_stats, new_bufs, new_events = _run(VectorPipeline, workload,
                                           program, scenario, functional)
    ref_json = json.dumps(ref_stats.to_dict(), sort_keys=True)
    new_json = json.dumps(new_stats.to_dict(), sort_keys=True)
    assert new_json == ref_json, (
        f"stats diverged on {program.name}: "
        + ", ".join(k for k, v in new_stats.to_dict().items()
                    if ref_stats.to_dict().get(k) != v))
    assert set(new_bufs) == set(ref_bufs)
    for buf in ref_bufs:
        assert np.array_equal(new_bufs[buf], ref_bufs[buf]), (
            f"functional buffer {buf!r} diverged on {program.name}")
    # Per-uop oracle: one event per issued uop, in issue order, with its
    # rename / issue / first-ready / done stamps and register mappings.
    assert new_events == ref_events, (
        f"issue timeline diverged on {program.name}: "
        + next((f"reference {r.describe()} / scheduler {n.describe()}"
                for r, n in zip(ref_events, new_events) if r != n),
               f"{len(ref_events)} vs {len(new_events)} events"))
    return new_stats


@pytest.mark.parametrize("functional", [True, False],
                         ids=["functional", "counters-only"])
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("name", ALL_WORKLOAD_NAMES)
def test_scheduler_matches_reference(name, config, functional):
    """Both execution modes: functional moves real data through the VRF;
    counters-only (the default for artifact cells) takes the scheduler's
    dedicated accounting fast paths and must produce the same stats."""
    workload, program = _compile_small(name, config)
    stats = _assert_equivalent(workload, program, config,
                               functional=functional)
    # Scheduler-efficiency accounting: every cycle is either evaluated or
    # jumped (a no-progress probe is evaluated *and* then jumped over, so
    # the two counters overlap by exactly the probe count).
    assert 0 < stats.events_processed <= stats.cycles
    assert stats.cycles <= stats.events_processed + stats.cycles_skipped


@pytest.mark.parametrize("policy", [VictimPolicy.FIFO,
                                    VictimPolicy.ROUND_ROBIN],
                         ids=lambda p: p.value)
def test_scheduler_matches_reference_victim_policies(policy):
    config = ava_config(8)
    workload, program = _compile_small("blackscholes", config)
    _assert_equivalent(workload, program, config,
                       policy=CellPolicy(victim_policy=policy))


@pytest.mark.parametrize("timing_name", timing_names())
def test_scheduler_matches_reference_timing_presets(timing_name):
    """Every registered timing preset: the span-charging scheduler's wake
    memos key off queue depths, swap budgets and dead times, so the
    byte-identical guarantee is pinned on each registered departure from
    the calibrated default (deep/shallow queues, single/wide swap)."""
    config = ava_config(8)
    workload, program = _compile_small("blackscholes", config)
    _assert_equivalent(workload, program, config, timing=timing_name)


@pytest.mark.parametrize("config", [ava_config(8), rg_config(4)],
                         ids=lambda c: c.name)
def test_scheduler_matches_reference_without_reclamation(config):
    workload, program = _compile_small("blackscholes", config)
    _assert_equivalent(workload, program, config,
                       policy=CellPolicy(aggressive_reclamation=False))


def test_scheduler_matches_reference_ava_x1():
    """AVA X1 runs in AVA mode, but at MVL 16 its P-VRF holds every
    VVR: a single-level machine, on which neither scheduler reclaims or
    swaps."""
    config = ava_config(1)
    workload, program = _compile_small("lavamd", config)
    _assert_equivalent(workload, program, config)


def test_scheduler_matches_reference_preg_ablation():
    config = with_physical_registers(ava_config(4), 12)
    workload, program = _compile_small("somier", config)
    _assert_equivalent(workload, program, config)


def test_scheduler_matches_reference_rg_spill_code():
    config = rg_config(4)
    workload, program = _compile_small("swaptions", config)
    _assert_equivalent(workload, program, config)


#: Scenario points: a fast memory system and a slow-DRAM one (L2 / DRAM
#: latency), each at a narrow and a wide pre-issue swap budget.
SCENARIO_MEMORY = {"fast-mem": (7, 45), "slow-dram": (40, 300)}
SCENARIO_BUDGETS = (1, 5)
SCENARIO_WORKLOADS = ("jacobi2d", "pathfinder", "spmv", "streamcluster")
SCENARIO_MACHINES = [ava_config(4), ava_config(8), native_config(8)]


def _scenario_axes(memory, budget):
    l2, dram = SCENARIO_MEMORY[memory]
    base = MemorySystemConfig()
    return {"timing": replace(DEFAULT_TIMING, preissue_swap_budget=budget),
            "memory": replace(base, l2=replace(base.l2, latency=l2),
                              dram=replace(base.dram, latency=dram))}


@pytest.mark.parametrize("budget", SCENARIO_BUDGETS,
                         ids=lambda b: f"budget{b}")
@pytest.mark.parametrize("memory", list(SCENARIO_MEMORY))
@pytest.mark.parametrize("machine", SCENARIO_MACHINES, ids=lambda c: c.name)
@pytest.mark.parametrize("name", SCENARIO_WORKLOADS)
def test_scheduler_matches_reference_scenarios(name, machine, memory,
                                               budget):
    """Both pipelines built from one Scenario: memory latency stretches the
    stall spans the scheduler charges in one step, and the swap budget
    changes how many swap ops pre-issue inserts per cycle."""
    workload, program = _compile_small(name, machine)
    _assert_equivalent(workload, program, machine,
                       **_scenario_axes(memory, budget))


# ---------------------------------------------------------------------------
# Hypothesis: random small programs
# ---------------------------------------------------------------------------
@st.composite
def kernels(draw):
    kb = KernelBuilder()
    n_consts = draw(st.integers(min_value=0, max_value=16))
    consts = [kb.const(1.0 + 0.05 * i) for i in range(n_consts)]
    pool = [kb.load("a"), kb.load("b")] + consts
    n_ops = draw(st.integers(min_value=3, max_value=20))
    for _ in range(n_ops):
        kind = draw(st.integers(0, 3))
        x = draw(st.sampled_from(pool))
        y = draw(st.sampled_from(pool))
        if kind == 0:
            pool.append(kb.add(x, y))
        elif kind == 1:
            pool.append(kb.mul(x, y))
        elif kind == 2:
            pool.append(kb.sub(x, y))
        else:
            pool.append(kb.fmadd(x, y, draw(st.sampled_from(pool))))
    kb.store(pool[-1], "out")
    return kb.build()


@given(body=kernels(), scale=st.sampled_from([1, 4, 8]))
@settings(max_examples=20, deadline=None)
def test_random_programs_match_reference(body, scale):
    """Property: the two steppers agree on arbitrary small programs."""
    config = ava_config(scale)
    n = 128
    program = compile_kernel(body, config, n,
                             {"a": n, "b": n, "out": n}, name="hyp")
    rng = np.random.default_rng(7)
    a = rng.uniform(0.5, 1.5, n)
    b = rng.uniform(0.5, 1.5, n)

    results = []
    for cls in (ReferencePipeline, VectorPipeline):
        pipe = cls(config, program, functional=True)
        pipe.layout.set_data("a", a)
        pipe.layout.set_data("b", b)
        stats = pipe.run(max_cycles=5_000_000)
        results.append((json.dumps(stats.to_dict(), sort_keys=True),
                        pipe.layout.get_data("out")))
    (ref_json, ref_out), (new_json, new_out) = results
    assert new_json == ref_json
    assert np.array_equal(new_out, ref_out)


@pytest.mark.parametrize("budget", [10, 300, 2000])
@pytest.mark.parametrize("name", ["axpy", "lavamd"])
@pytest.mark.parametrize("config", [ava_config(2), ava_config(8),
                                    native_config(1)],
                         ids=lambda c: c.name)
def test_max_cycles_guard_reports_position(config, name, budget):
    """The budget error is raised promptly after event jumps, names the
    cycle it stopped at, and leaves the counters the reference stepper
    leaves: every counter the scheduler keeps in a local is charged before
    the error propagates.  (axpy finishes inside the largest budget; the
    finished runs are compared the same way.)"""
    _, program = _compile_small(name, config)
    outcomes = []
    for cls in (ReferencePipeline, VectorPipeline):
        pipe = cls(config, program)
        try:
            pipe.run(max_cycles=budget)
            error = None
        except RuntimeError as exc:
            error = str(exc)
        outcomes.append((pipe, error))
    (ref, ref_error), (pipe, error) = outcomes
    assert error == ref_error
    assert error is not None or budget == 2000
    assert error is None or "now=" in error
    assert pipe.stats.to_dict() == ref.stats.to_dict()
    stats = pipe.stats
    # The budget check runs before any cycle beyond the jump target is
    # evaluated, so the pipeline cannot have advanced deep past the budget
    # doing work: the overshoot is bounded by a single event jump.
    assert stats.events_processed <= pipe.now + 1
