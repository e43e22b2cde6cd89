"""Unified experiment-execution engine.

Every artifact of the paper boils down to a grid of independent
(workload × scenario) simulation *cells*, where a
:class:`~repro.sim.scenario.Scenario` bundles the machine config, timing
params, memory system and policy knobs.  This module makes that grid
explicit and executes it once:

* :class:`Cell` — one simulation, fully described by data: a workload,
  its scenario (the only machine-side input, handed to the
  :class:`~repro.sim.simulator.Simulator` as is) and the execution flags;
* :class:`SweepSpec` — a declarative grid over the per-axis values that
  resolves each cell's scenario with
  :func:`~repro.sim.scenario.build_scenario` and enumerates cells in a
  deterministic order, so new sweeps are data, not new code;
* :class:`ResultCache` — a persistent, content-addressed store of
  :class:`repro.sim.stats.SimStats` / :class:`repro.power.mcpat.EnergyReport`
  JSON under ``.repro-cache/``.  The key hashes the cell's compile
  *inputs* — the workload's compile fingerprint, the full scenario, the
  execution flags, the package code and :data:`DATA_SEED` — any change to
  any of them is a miss, and a hit never needs a compiled program;
* :class:`CellExecutor` — plans a batch (keys it, reads the cache once
  per distinct key) and then executes the plan as one job per
  (workload, compile signature) pair of its misses, inline or streamed
  over one persistent :class:`concurrent.futures.ProcessPoolExecutor`.
  A job compiles its program where it simulates, so no program crosses
  a process boundary, and no program is stored: keys hash compile
  inputs, so a hit needs none.  A command that needs several grids runs
  them as one batch.  Results are keyed by their position in the
  request, never by completion order, so the output is byte-identical
  regardless of scheduling and of ``jobs``.
  Each result is written to the cache the moment it lands, a raising
  cell becomes a :class:`CellError` instead of discarding the rest of
  the batch, and an interrupted grid resumes by rerunning — finished
  cells replay as hits.

The figure/table regenerators, the claims table, the CLI and the
examples all route through here, so ``figure3 all``, ``figure4`` and
``claims`` share cells instead of recomputing them.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    TextIO, Tuple, Union)

from repro import faults
from repro.cachefs import DEFAULT_CACHE_DIR, AtomicJsonStore, source_digest
from repro.compiler.signature import CompileSignature
from repro.core.config import MachineConfig
from repro.experiments.backends import (  # noqa: F401 — re-exported names
    _RETRYABLE, FailFn, Job, LandFn, WorkerFn, default_jobs, run_inline,
    run_pool)
from repro.isa.instructions import fingerprint_line
from repro.isa.program import Program
from repro.memory.hierarchy import MemorySystemConfig
from repro.power.mcpat import EnergyReport
from repro.sim.scenario import CellPolicy, Scenario, build_scenario
from repro.sim.stats import SimStats
from repro.vpu.params import TimingParams
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload

if TYPE_CHECKING:  # the pool loads multiprocessing; only _ensure_pool may
    from concurrent.futures import ProcessPoolExecutor

#: Seed used by every experiment so figures are reproducible.  Part of the
#: cache key: changing it invalidates every cached cell.
DATA_SEED = 42

#: Bump when the payload layout or the simulator's observable behaviour
#: changes in a way the content hash cannot see.
#: Schema 2: ``stats`` payloads carry the event-driven scheduler's
#: ``events_processed`` / ``cycles_skipped`` counters.
#: Schema 3: keys hash the cell's full :class:`~repro.sim.scenario.Scenario`
#: (machine + timing + memory system + policy) — entries can never collide
#: across memory or timing presets.
#: Schema 4: ``stats`` payloads carry the span-charging scheduler's
#: ``spans_charged`` / ``span_cycles`` counters.
#: Schema 5: keys hash the workload's compile fingerprint (the compiler's
#: inputs) instead of the compiled program (its output).
#: Schema 6: the scenario drops the knobs no model read (the L1 caches,
#: the VMU interface width, ``MachineConfig.lmul``, ``TimingParams.lanes``).
#: Schema 7: each fact is stored once.  ``stats`` drops
#: ``fast_forward_cycles`` (a copy of ``cycles_skipped``), ``span_cycles``
#: (``spans_charged + cycles_skipped``) and the never-written ``meta``;
#: the payload drops ``label`` and the key ``functional`` (a copy of
#: ``check``); single-level machines key ``aggressive_reclamation`` at
#: its default.
CACHE_SCHEMA = 7


# ---------------------------------------------------------------------------
# cell description
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Cell:
    """One (workload, scenario) simulation, fully described by data.

    ``workload`` is normally a Table-IV registry name; passing a
    :class:`~repro.workloads.base.Workload` instance is allowed for
    out-of-registry kernels (the cache key hashes the workload's compile
    fingerprint, so the name is never trusted on its own).  ``scenario``
    is the only machine-side input: machine config, timing, memory system
    and policy in one frozen bundle (build one with
    :func:`~repro.sim.scenario.build_scenario`, which resolves ``None``
    axes to the paper's defaults).
    """

    workload: Union[str, Workload]
    scenario: Scenario
    warm: bool = True
    # Load the workload's data, execute functionally and compare the
    # outputs with its reference; the result's ``correct`` holds the
    # verdict.  Only checked cells import numpy: a timing-only cell
    # simulates without data, and its ``correct`` stays ``None``.
    check: bool = False
    # Run under the microarchitectural sanitizer.  Part of the cache key:
    # a sanitized run must prove the invariants held for *this* cell, not
    # inherit a result computed without them.
    sanitize: bool = False

    @property
    def config(self) -> MachineConfig:
        """The scenario's machine configuration."""
        return self.scenario.machine

    @property
    def workload_name(self) -> str:
        if isinstance(self.workload, str):
            return self.workload
        return self.workload.name

    def label(self) -> str:
        return f"{self.workload_name}@{self.config.name}"

    def resolve_workload(self) -> Workload:
        if isinstance(self.workload, str):
            return get_workload(self.workload)
        return self.workload


@dataclass
class SweepSpec:
    """A declarative (workload × config × params × memsys × policy) grid.

    :meth:`cells` enumerates the full cartesian product in a fixed nested
    order — workload outermost, policy innermost — so a spec always expands
    to the same cell list regardless of who runs it.
    """

    workloads: Sequence[Union[str, Workload]]
    configs: Sequence[MachineConfig]
    params: Sequence[Optional[TimingParams]] = (None,)
    memsys: Sequence[Optional[MemorySystemConfig]] = (None,)
    policies: Sequence[CellPolicy] = (CellPolicy(),)

    def cells(self) -> List[Cell]:
        return [Cell(w, build_scenario(cfg, p, mem, pol))
                for w in self.workloads
                for cfg in self.configs
                for p in self.params
                for mem in self.memsys
                for pol in self.policies]

    def chunk_by_workload(self, results: Sequence["CellResult"]
                          ) -> List[Tuple[str, List["CellResult"]]]:
        """Split a :meth:`cells`-ordered result list per workload.

        Owns the stride arithmetic (configs × params × memsys × policies),
        so consumers stay correct if a spec grows extra axes.
        """
        stride = (len(self.configs) * len(self.params) * len(self.memsys)
                  * len(self.policies))
        if len(results) != stride * len(self.workloads):
            raise ValueError(
                f"expected {stride * len(self.workloads)} results for this "
                f"spec, got {len(results)}")
        return [(w if isinstance(w, str) else w.name,
                 list(results[i * stride:(i + 1) * stride]))
                for i, w in enumerate(self.workloads)]


@dataclass
class CellResult:
    """Statistics, energy and (with ``check=True``) the correctness verdict."""

    cell: Cell
    stats: SimStats
    energy: EnergyReport
    correct: Optional[bool] = None


def speedups(results: Sequence[CellResult]) -> List[float]:
    """Each result's speedup over the first (the series baseline); a
    result of zero cycles reads 0.0."""
    base = results[0].stats.cycles
    return [base / r.stats.cycles if r.stats.cycles else 0.0
            for r in results]


def average_speedups(per_workload: Dict[str, List[float]]) -> List[float]:
    """Geometric-mean-free average speedup per series position (Fig. 4).

    Every workload must report the same series; ragged inputs mean a
    renderer lost (or duplicated) a configuration somewhere upstream, so
    they raise instead of silently averaging a truncated prefix.
    """
    lengths = {name: len(series) for name, series in per_workload.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(
            f"ragged per-workload series: {lengths} — every workload must "
            f"cover the same configurations")
    n = next(iter(lengths.values()), 0)
    # A left-to-right sum, not np.mean (pairwise): the two can differ in
    # the last bit, and Figure 4's rendered averages must not move.
    return [sum(series[i] for series in per_workload.values())
            / len(per_workload) for i in range(n)]


# ---------------------------------------------------------------------------
# content hashing
# ---------------------------------------------------------------------------
_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """Hash of every ``repro`` source file, computed once per process.

    Part of the cache key: simulator/model behaviour lives in code, not in
    the cell inputs, so ANY edit to the package must invalidate cached
    results — a reproduction repo must never replay pre-change numbers as
    freshly measured.  Conservative by design (editing a rendering helper
    also invalidates), which errs on the side of re-simulating.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        _CODE_FINGERPRINT = source_digest()
    return _CODE_FINGERPRINT


def program_fingerprint(program: Program) -> str:
    """Content hash of a compiled program (instruction trace + shape).

    Instruction uids are excluded — two compilations of the same kernel for
    the same configuration fingerprint identically.  Scalar operands are
    hashed via ``float.hex()`` (exact), not the 6-significant-digit display
    form, so kernels differing only in a constant never collide.
    """
    parts = [f"{program.name}|mvl={program.mvl}"
             f"|spill_slots={program.spill_slots}\n"]
    for name in sorted(program.buffers):
        parts.append(f"buf {name}:{program.buffers[name]}\n")
    parts.extend(fingerprint_line(inst) for inst in program.insts)
    # One hash update over the joined trace: identical digest to updating
    # line by line, at a fraction of the call overhead.
    return hashlib.sha256("".join(parts).encode()).hexdigest()


# Memo for the reflection-heavy scenario key dicts; Scenario is frozen and
# hashable, so equal scenarios (however many cells reference them) share
# one entry and the cache stays as small as the set of distinct scenarios
# ever keyed.
_KEY_CACHE: Dict[Scenario, dict] = {}


def _scenario_key(scenario: Scenario) -> dict:
    key = _KEY_CACHE.get(scenario)
    if key is None:
        key = scenario.simulated().to_dict()
        _KEY_CACHE[scenario] = key
    return key


def cell_key_payload(cell: Cell, compile_fingerprint: str) -> dict:
    """The hashed body of :func:`cell_key`: every input that can change
    the cell's results.

    The machine-side inputs are hashed as the cell's *full scenario* —
    machine config, timing params, memory-system config and policy — in
    its :meth:`~repro.sim.scenario.Scenario.simulated` form, so entries
    never collide across memory or timing presets, yet cells differing
    only in a knob no model reads share one key.  On a single-level
    machine those are the three swap-only knobs (pre-issue swap budget,
    victim policy, aggressive reclamation), keyed at their defaults: the
    batch dedupe and the result cache simulate and store such cells
    once, and each :class:`CellResult` keeps its own cell.  Every knob
    stays in the payload.

    The program side is hashed as its compile inputs: the scenario's
    machine config carries the :class:`CompileSignature`,
    ``compile_fingerprint``
    (:meth:`~repro.workloads.base.Workload.compile_fingerprint`) the
    workload half, and :func:`code_fingerprint` the compiler itself —
    together they pin the compiled program, so no program is needed.
    """
    return {
        "schema": CACHE_SCHEMA,
        "code": code_fingerprint(),
        "data_seed": DATA_SEED,
        "workload": cell.workload_name,
        "compile": compile_fingerprint,
        "scenario": _scenario_key(cell.scenario),
        "warm": cell.warm,
        "check": cell.check,
        # Sanitized runs re-simulate even when a plain result is cached:
        # the point of --sanitize is the invariant evidence, and a cache
        # hit computed without the sanitizer proves nothing.
        "sanitize": cell.sanitize,
    }


def cell_key(cell: Cell, compile_fingerprint: Optional[str] = None) -> str:
    """The cache key of one cell (see :func:`cell_key_payload`).

    ``compile_fingerprint`` lets a caller that memoizes the workload's
    fingerprint skip recomputing it; by default it is computed here.
    """
    if compile_fingerprint is None:
        compile_fingerprint = cell.resolve_workload().compile_fingerprint()
    payload = cell_key_payload(cell, compile_fingerprint)
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# persistent result cache
# ---------------------------------------------------------------------------
class ResultCache(AtomicJsonStore):
    """Content-addressed JSON store for cell results.

    One file per cell under ``root``.  The crash-safe write discipline —
    atomic tempfile + ``os.replace``, orphan reaping, umask-honouring
    permissions — is :class:`~repro.cachefs.AtomicJsonStore`'s; this
    class adds only the result payload's schema gate.
    """

    FAULT_SITE = "results"

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        super().__init__(root)

    def _validate(self, payload: dict) -> bool:
        """Valid JSON that lost its ``stats``/``energy`` sections (or
        carries another schema) must re-simulate, not crash the render."""
        return (payload.get("schema") == CACHE_SCHEMA
                and isinstance(payload.get("stats"), dict)
                and isinstance(payload.get("energy"), dict))


# ---------------------------------------------------------------------------
# cell execution
# ---------------------------------------------------------------------------
#: True only in pool worker processes (set by the pool initializer) — an
#: injected worker crash hard-exits a worker but must merely *raise* when
#: the cell executes inline, or it would take the CLI down with it.
_IN_POOL_WORKER = False


def _pool_worker_init() -> None:
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic collector over one pair job's compile and cells.

    A cell run churns hundreds of thousands of short-lived acyclic
    objects (micro-ops, renamed instructions, numpy views) that reference
    counting reclaims on its own; the collector's generation scans over
    that churn cost ~15% of cell throughput and free nothing.  Collection
    is re-enabled (not forced) on exit, so cyclic garbage from elsewhere
    is still collected at the next natural threshold, and a collector the
    caller already disabled is left alone.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


#: A pair job's argument: each miss key that needs the pair's program,
#: with the first cell requesting it.
PairWork = Tuple[Tuple[str, Cell], ...]

#: A key that failed inside a job: ``(Type: message, traceback text)``.
Failure = Tuple[str, str]


def _failure(exc: BaseException) -> Failure:
    return (f"{type(exc).__name__}: {exc}",
            "".join(traceback.format_exception(type(exc), exc,
                                               exc.__traceback__)))


def _budget_group(cell: Cell) -> tuple:
    """What a key's simulation reads, except its pre-issue swap budget:
    cells of one pair job with equal groups differ at most there."""
    scenario = cell.scenario.simulated()
    return (replace(scenario, timing=replace(scenario.timing,
                                             preissue_swap_budget=1)),
            cell.warm, cell.check, cell.sanitize)


def _run_pair(job: Tuple[Cell, PairWork, int]) -> dict:
    """Run one (workload, compile signature) pair job; returns its outcome.

    Module-level so :class:`ProcessPoolExecutor` can pickle it.  The job
    carries cells, never a program: it compiles the pair's program,
    then simulates each miss key through :func:`_run_cell`, so one
    program is alive per job and the parent never holds one.
    ``results`` has one entry per key, in job order: the cache payload,
    a :data:`Failure`, or the position of an earlier
    key whose run this key provably equals; ``skipped`` has the strips
    each key's run skipped in its steady state (0 when it stepped in
    full or did not simulate), telemetry that never enters a payload.
    A compile that raises fails every key of the pair, a simulation
    that raises only its own key.
    Infrastructure faults (:data:`~repro.experiments.backends._RETRYABLE`)
    propagate, so the dispatcher retries the whole job.

    Keys that differ only in ``preissue_swap_budget`` simulate once when
    the budget never binds: a run no budget check stopped is the same
    run at every budget >= its swap-budget demand
    (:attr:`~repro.vpu.pipeline.VectorPipeline.swap_demand`), so a later
    key of its :func:`_budget_group` whose budget covers that demand
    reuses its payload instead of simulating.

    The third element is the job's retry attempt number; an active
    :class:`~repro.faults.FaultPlan` (chaos testing) fires its cell
    faults before each key simulates or reuses a run, gated on it, which
    is how "fails on attempt 0, succeeds on attempt 1" scenarios stay
    deterministic.
    """
    cell, todo, attempt = job
    outcome: dict = {"compiled": False, "results": [], "skipped": []}
    results = outcome["results"]
    skipped = outcome["skipped"]
    with _gc_paused():
        try:
            program = cell.resolve_workload().compile(cell.config).program
            outcome["compiled"] = True
        except _RETRYABLE:
            raise
        except Exception as exc:  # noqa: BLE001 — fails this pair's keys
            results.extend([_failure(exc)] * len(todo))
            skipped.extend([0] * len(todo))
            return outcome
        # Budget group -> (demand, position) of its simulated key with the
        # smallest swap-budget demand; a bound run's demand is infinite.
        reusable: Dict[tuple, Tuple[float, int]] = {}
        for pos, (_, key_cell) in enumerate(todo):
            group = _budget_group(key_cell)
            equal = reusable.get(group)
            budget = key_cell.scenario.timing.preissue_swap_budget
            run: dict = {}
            try:
                plan = faults.active_plan()
                if plan is not None:
                    plan.fire_cell(key_cell.label(), attempt,
                                   in_worker=_IN_POOL_WORKER)
                if equal is not None and equal[0] <= budget:
                    results.append(equal[1])
                    skipped.append(0)
                    continue
                result = _run_cell(key_cell, program, run)
            except _RETRYABLE:
                raise
            except Exception as exc:  # noqa: BLE001 — fails its key only
                result = _failure(exc)
            if run and (equal is None or run["swap_demand"] < equal[0]):
                reusable[group] = (run["swap_demand"], pos)
            results.append(result)
            skipped.append(run.get("strips_skipped", 0))
    return outcome


def _run_cell(cell: Cell, program: Program, run: dict) -> dict:
    """Simulate one cell on its pair's program; returns its cache payload.

    ``run`` receives the run's telemetry, which never enters the payload:
    its ``swap_demand`` and the strips its steady-state extrapolation
    skipped (:attr:`~repro.vpu.pipeline.VectorPipeline.steady`) once the
    simulation has finished.

    Timing does not depend on data values (a gather is charged its
    worst-case one-line-per-element pattern), so a timing-only cell
    simulates straight from the program: it imports no numpy, seeds no
    RNG and builds no arrays.  Only a checked cell loads
    ``init_data``'s arrays (after checking they match the program's
    buffers), executes functionally and compares the outputs with the
    workload's reference.
    """
    from repro.power.mcpat import McPatModel
    from repro.sim.simulator import Simulator

    sim = Simulator(cell.scenario, program, functional=cell.check,
                    sanitize=cell.sanitize)
    if cell.check:
        import numpy as np

        workload = cell.resolve_workload()
        data = workload.init_data(np.random.default_rng(DATA_SEED))
        shapes = {name: len(values) for name, values in data.items()}
        if shapes != program.buffers:
            raise ValueError(
                f"workload {workload.name!r}: init_data returned buffers "
                f"{shapes}, but its program declares {program.buffers}")
        for name, values in data.items():
            sim.set_data(name, values)
    if cell.warm:
        sim.warm_caches()
    result = sim.run()

    correct: Optional[bool] = None
    if cell.check:
        reference = workload.reference(data)
        correct = all(
            bool(np.allclose(result.buffer(name), expected,
                             rtol=1e-9, atol=1e-12))
            for name, expected in reference.items())

    energy = McPatModel().energy(cell.config, result.stats)
    run["swap_demand"] = sim.pipeline.swap_demand
    if sim.pipeline.steady is not None:
        run["strips_skipped"] = sim.pipeline.steady[2]
    return {
        "schema": CACHE_SCHEMA,
        "stats": result.stats.to_dict(),
        "energy": energy.to_dict(),
        "correct": correct,
    }


@dataclass
class CellError:
    """One cell that raised (or whose worker died) instead of producing
    statistics.

    Captured per cell so a single bad point cannot poison a streaming
    batch: every other cell still completes and is cached.  ``error`` is
    the one-line ``Type: message`` form; ``tb`` carries the worker-side
    traceback when one was recoverable (a SIGKILL-ed worker leaves none).
    """

    cell: Cell
    key: str
    error: str
    tb: str = ""

    def label(self) -> str:
        return self.cell.label()


class CellExecutionError(RuntimeError):
    """Raised after a streaming batch drains with at least one failed cell.

    By the time this surfaces, every *completed* cell has already been
    written to the cache — rerunning the same grid replays them as hits
    and re-executes only the failures (the crash-safe-resume contract).
    ``errors`` holds one :class:`CellError` per distinct failure; the
    counts in the message are per requested cell, so they always add up
    to the batch size even when a failing cell was deduplicated.
    """

    def __init__(self, errors: Sequence[CellError], completed: int,
                 total: int) -> None:
        self.errors = list(errors)
        self.completed = completed
        self.total = total
        first = self.errors[0]
        super().__init__(
            f"{total - completed} of {total} cells failed "
            f"({completed} completed and cached; rerun to resume); "
            f"first failure {first.label()}: {first.error}")


@dataclass
class Progress:
    """A live snapshot of one streaming batch, handed to the progress
    callback after the cache scan and again as every cell lands.

    ``done`` only counts cells whose result (or failure) is final — for a
    miss that is *after* its payload hit the cache, so a consumer watching
    ``done`` never over-reports what a crash would preserve.
    """

    total: int
    label: str = ""
    done: int = 0
    hits: int = 0
    misses: int = 0
    failed: int = 0
    #: Charged retry attempts so far.  A retried cell stays ONE miss —
    #: ``misses`` counts cells whose result had to be computed, not how
    #: many tries the infrastructure needed to compute it.
    retries: int = 0
    #: Job attempts that ran past the per-job deadline (each such
    #: attempt also charges one retry, until the budget runs out).
    timeouts: int = 0
    _started: float = field(default_factory=time.perf_counter, repr=False)

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self._started

    @property
    def rate(self) -> float:
        """Cells finalised per second since the batch started."""
        elapsed = self.elapsed
        return self.done / elapsed if elapsed > 0 else 0.0


#: A progress consumer; called with the same mutating snapshot each time.
ProgressCallback = Callable[[Progress], None]


class ProgressRenderer:
    """Renders progress as one self-overwriting stderr line.

    Writes exclusively to ``stream`` (stderr by default) so the stdout
    artifacts stay byte-identical; redraws are rate-limited so multi-
    hundred-cell grids do not spend their time painting the terminal.
    :meth:`close` finishes the line with a newline — callers own that so
    an executor can run many batches over one renderer.
    """

    def __init__(self, stream: Optional[TextIO] = None,
                 min_interval_s: float = 0.1) -> None:
        self._stream = stream
        self._min_interval_s = min_interval_s
        self._last_draw = 0.0
        self._width = 0
        self._dirty = False

    def _line(self, progress: Progress) -> str:
        label = f"{progress.label}: " if progress.label else ""
        line = (f"{label}{progress.done}/{progress.total} cells | "
                f"{progress.hits} hits | {progress.misses} misses")
        if progress.retries:
            line += f" | {progress.retries} retries"
        if progress.timeouts:
            line += f" | {progress.timeouts} timeouts"
        if progress.failed:
            line += f" | {progress.failed} FAILED"
        return line + f" | {progress.rate:.1f} cells/s"

    def __call__(self, progress: Progress) -> None:
        now = time.perf_counter()
        finished = progress.done >= progress.total
        if not finished and now - self._last_draw < self._min_interval_s:
            return
        self._last_draw = now
        stream = self._stream if self._stream is not None else sys.stderr
        line = self._line(progress)
        stream.write("\r" + line + " " * max(0, self._width - len(line)))
        if finished:
            # One terminated line per completed batch; later stderr output
            # (cache stats, the next batch) starts clean.
            stream.write("\n")
            self._width = 0
            self._dirty = False
        else:
            self._width = len(line)
            self._dirty = True
        stream.flush()

    def close(self) -> None:
        """Terminate an unfinished in-place line (no-op after a batch that
        ran to completion — those self-terminate)."""
        if self._dirty:
            stream = self._stream if self._stream is not None else sys.stderr
            stream.write("\n")
            stream.flush()
            self._dirty = False
            self._width = 0


@dataclass
class ExecutorStats:
    """Observable engine counters (the warm-cache acceptance check).

    ``cache_misses`` counts every cell whose result was not replayed from
    a cache — including every cell of a cache-less executor, so
    ``cache_misses`` always equals ``cells_requested - cache_hits``.
    ``compiles`` counts actual kernel compilations.  Keys hash compile
    *inputs*, so only cache misses need a program: a cache hit compiles
    nothing, and a fully warm result cache reports ``0 kernel
    compiles``.  A batch's misses compile each *distinct* (workload,
    :class:`CompileSignature`) pair exactly once, in that pair's job —
    configurations differing only in simulation-side axes share one
    compile.  A retried job counts the compile of the attempt that
    landed, so retries never change ``compiles``.
    ``sims_reused`` counts miss keys that landed the payload of an
    equal simulation instead of running their own: keys of one pair job
    that differ only in a ``preissue_swap_budget`` the other run's
    budget checks never reached (:func:`_run_pair`).  Each is cached
    under its own key, and ``sims_executed + sims_reused`` is the number
    of miss keys that did not fail.
    ``sim_*`` counters aggregate the event-driven scheduler's efficiency
    over the simulations this executor actually ran (cache hits replay
    stored results and reused payloads schedule nothing).
    ``sims_extrapolated`` counts the executed simulations that skipped
    whole steady-state strip periods (:mod:`repro.vpu.steady`), and
    ``strips_skipped`` the strips they skipped.
    """

    cells_requested: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cells_failed: int = 0
    sims_executed: int = 0
    sims_reused: int = 0
    sims_extrapolated: int = 0
    strips_skipped: int = 0
    compiles: int = 0
    sim_cycles: int = 0
    sim_events_processed: int = 0
    sim_cycles_skipped: int = 0
    sim_spans_charged: int = 0
    #: Resilience counters: charged retry attempts, deadline-exceeded
    #: attempts and cache entries quarantined on integrity failure.
    #: ``cache_misses`` stays one per cell however many attempts its
    #: result took (retry accounting never inflates the hit-rate
    #: denominators the acceptance greps key on).
    retries: int = 0
    timeouts: int = 0
    cache_quarantined: int = 0

    def to_dict(self) -> Dict[str, int]:
        """Counters as plain JSON (the ``--stats-json`` payload body)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        text = (f"engine: {self.cells_requested} cells requested, "
                f"{self.cache_hits} cache hits, "
                f"{self.cache_misses} misses, "
                f"{self.sims_executed} simulations executed, "
                f"{self.compiles} kernel compiles")
        if self.sims_reused:
            # Its own line, only when non-zero, like the lines below.
            text += f"\nreuse: {self.sims_reused} simulations reused"
        if self.sims_extrapolated:
            text += (f"\nsteady: {self.sims_extrapolated} simulations "
                     f"extrapolated, {self.strips_skipped} strips skipped")
        if self.retries or self.timeouts or self.cache_quarantined:
            # On its own line, only when something resilience-related
            # actually happened: the first line's wording is an interface
            # (CI greps it) and a fault-free run's output must not change.
            text += (f"\nresilience: {self.retries} retries, "
                     f"{self.timeouts} timeouts, "
                     f"{self.cache_quarantined} quarantined cache entries")
        if self.cells_failed:
            text += f"\nfailures: {self.cells_failed} cells failed"
        if self.sim_cycles:
            skipped = 100.0 * self.sim_cycles_skipped / self.sim_cycles
            text += (f"\nscheduler: {self.sim_cycles} cycles simulated, "
                     f"{self.sim_events_processed} events processed, "
                     f"{self.sim_cycles_skipped} cycles skipped "
                     f"({skipped:.0f}%)")
            if self.sim_spans_charged:
                # Each span covers its evaluated probe cycle plus the
                # cycles jumped after it.
                span_cycles = self.sim_spans_charged + self.sim_cycles_skipped
                covered = 100.0 * span_cycles / self.sim_cycles
                text += (f"\nspans: {self.sim_spans_charged} charged, "
                         f"{span_cycles} span cycles "
                         f"({covered:.0f}% of simulated)")
        return text


#: A compile key: workload identity (registry name or instance) plus the
#: (mvl, n_logical) signature — never the full machine config.
PairKey = Tuple[Union[str, Workload], CompileSignature]


@dataclass
class Plan:
    """One batch, worked out before anything runs: data only.

    ``keys[i]`` is ``cells[i]``'s :func:`cell_key`, or ``""`` when its
    workload could not be fingerprinted (``unkeyable`` holds the one
    :class:`CellError` such a workload shares).  ``hits`` maps each cached
    key to its payload, ``misses`` each other key to the positions that
    request it — at most one simulation per key — and ``pairs`` each
    (workload, :class:`CompileSignature`) pair the misses need to its
    miss keys: one job per pair, one compile per job.
    """

    cells: List[Cell]
    keys: List[str] = field(default_factory=list)
    unkeyable: Dict[Union[str, Workload], CellError] = field(
        default_factory=dict)
    hits: Dict[str, dict] = field(default_factory=dict)
    misses: Dict[str, List[int]] = field(default_factory=dict)
    pairs: Dict[PairKey, List[str]] = field(default_factory=dict)


class CellExecutor:
    """Streams cell batches inline or over one process pool.

    ``jobs=1`` executes inline (no subprocess, no pickling); ``jobs>1``
    submits jobs to one :class:`ProcessPoolExecutor` that is spun up on
    first use and reused across batches (``close()`` or the
    context-manager form shuts it down).  Jobs go through a dispatcher
    (:mod:`repro.experiments.backends`), and the semantic layer here —
    cache scan, dedupe, position-keyed results, counters — does not
    depend on it, so rendered artifacts are byte-identical across
    ``jobs``.  Identical cells within a batch are simulated once, and so
    are keys of one job that differ only in a swap budget their run
    never reached (:func:`_run_pair`).  Results always come back in
    request order.

    :meth:`run` is :meth:`execute` of :meth:`plan`.  The plan keys the
    batch — :func:`cell_key` hashes compile *inputs*, each workload
    fingerprinted once — and reads the cache once per distinct key, so
    cache hits are final before anything runs.  :meth:`execute` runs one
    job per distinct (workload, :class:`CompileSignature`) pair of the
    misses (:func:`_run_pair`): the job compiles the pair's program once
    and simulates every miss key that needs it, so at ``jobs=1`` one
    program is alive at a time, and over the pool no program is pickled.
    A command that needs several grids runs them as one batch.

    Execution is *streaming*: every payload is written to the cache the
    moment its simulation lands, so interrupting a grid — Ctrl-C, an
    OOM-killed worker, one raising cell — never discards the cells that
    already finished; rerunning replays them as cache hits and
    re-executes only what is missing.  A raising cell is captured as a
    :class:`CellError` while the rest of the batch keeps going; after the
    batch drains, failures raise :class:`CellExecutionError`.
    ``progress`` is called with a :class:`Progress` snapshot as every
    cell is finalised.

    Resilience knobs: ``deadline_s`` arms a deadline on each pair job —
    one compile plus its cells — in pool mode a watchdog that kills the
    pool under a job observed RUNNING for longer than the deadline
    (finished futures are drained first, and collateral in-flight jobs
    are resubmitted with their attempt counts intact), inline a
    ``SIGALRM`` timer.  ``retries`` bounds how many *charged* failures a
    job may accumulate before each of its keys fails as a
    :class:`CellError`; only
    infrastructure faults (:data:`~repro.experiments.backends._RETRYABLE`
    and, in pool mode, a broken pool) charge the budget, and each retries
    the whole job.  Deterministic exceptions fail fast on the first
    attempt, and only the keys they hit: a raising compile fails its
    pair's keys, a raising simulation its own key.  Each charged retry
    backs off exponentially (``backoff_s * 2**(attempt-1)``) plus a
    deterministic per-job jitter in ``[0, backoff_s)``, so a wave of
    retries against a shared cache never stampedes in lockstep.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 progress: Optional[ProgressCallback] = None,
                 deadline_s: Optional[float] = None,
                 retries: int = 3,
                 backoff_s: float = 0.25,
                 sanitize: bool = False) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.deadline_s = deadline_s
        self.retries = retries
        self.backoff_s = backoff_s
        #: Force every cell through the microarchitectural sanitizer
        #: (``repro ... --sanitize``); cells already marked stay marked.
        self.sanitize = sanitize
        self.stats = ExecutorStats()
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Whether the executing batch holds a checked cell (a pool it
        #: starts pre-imports numpy for the workers to inherit).
        self._batch_checks = False

    # -- worker-pool lifecycle -------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Workers fork from this process: importing the simulation
            # stack here lets every worker inherit it instead of each
            # importing the pipeline on its first cell.  numpy serves
            # only checked cells, so it is pre-imported only when the
            # batch holds one; a timing-only pool never loads it.  The
            # pre-import only saves time: without numpy each checked cell
            # fails in its worker, as it does inline.
            import repro.sim.simulator  # noqa: F401
            if self._batch_checks:
                try:
                    import numpy  # noqa: F401
                except ImportError:
                    pass
            from concurrent.futures import ProcessPoolExecutor
            self._pool = ProcessPoolExecutor(max_workers=self.jobs,
                                             initializer=_pool_worker_init)
        return self._pool

    def _discard_pool(self) -> None:
        """Drop the pool without waiting — used when it broke or the batch
        was interrupted; the next parallel batch spins up a fresh one."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _kill_pool(self) -> None:
        """Kill the pool's worker processes, then discard it.

        The watchdog's hammer: a future that is already RUNNING cannot be
        cancelled, and ``shutdown(wait=False)`` would still leave the
        interpreter joining a hung worker at exit — so the workers are
        killed outright (the hung cell with them) before the teardown.
        Reaches into ``ProcessPoolExecutor._processes``; a stdlib that
        renamed it degrades to a plain discard, never an error.
        """
        pool = self._pool
        if pool is None:
            return
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.kill()
            except Exception:  # noqa: BLE001 — already dead is fine
                pass
        self._discard_pool()

    def close(self) -> None:
        """Shut the worker pool down (idempotent; the executor stays
        usable — a later parallel batch starts a new pool)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "CellExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- public API ------------------------------------------------------------
    def plan(self, cells: Sequence[Cell]) -> Plan:
        """Key a batch and read the cache; compile, simulate and store
        nothing.

        Each workload is fingerprinted once; one that raises makes every
        cell requesting it unkeyable (there is no key to cache under, so
        those cells re-execute next run).  The cache is read once per
        distinct key, and a read still quarantines a corrupt entry.
        """
        if self.sanitize:
            cells = [cell if cell.sanitize else replace(cell, sanitize=True)
                     for cell in cells]
        plan = Plan(cells=list(cells))
        fingerprints: Dict[Union[str, Workload], str] = {}
        for cell in plan.cells:
            workload = cell.workload
            if workload not in fingerprints and workload not in plan.unkeyable:
                try:
                    fingerprints[workload] = (
                        cell.resolve_workload().compile_fingerprint())
                except Exception as exc:  # noqa: BLE001 — per workload
                    plan.unkeyable[workload] = CellError(cell, "",
                                                         *_failure(exc))
            fingerprint = fingerprints.get(workload)
            plan.keys.append("" if fingerprint is None
                             else cell_key(cell, fingerprint))
        for i, key in enumerate(plan.keys):
            if key in plan.misses:
                plan.misses[key].append(i)
            elif key and key not in plan.hits:
                payload = self.cache.get(key) if self.cache else None
                if payload is not None:
                    plan.hits[key] = payload
                    continue
                plan.misses[key] = [i]
                cell = plan.cells[i]
                plan.pairs.setdefault(
                    (cell.workload, CompileSignature.from_config(cell.config)),
                    []).append(key)
        return plan

    def execute(self, plan: Plan, label: str = "") -> List[CellResult]:
        """Run a plan; element ``i`` of the result is ``plan.cells[i]``'s.

        ``label`` names the batch in progress snapshots.  A failed cell
        raises :class:`CellExecutionError` once the batch has drained,
        when every completed cell is already cached.
        """
        cells, by_key = plan.cells, plan.misses
        progress = Progress(total=len(cells), label=label)
        results: Dict[int, CellResult] = {}
        failures: List[CellError] = list(plan.unkeyable.values())
        for i, key in enumerate(plan.keys):
            if not key:
                progress.failed += 1
                progress.done += 1
            elif key in plan.hits:
                results[i] = self._materialise(cells[i], plan.hits[key])
                progress.hits += 1
                progress.done += 1
        progress.misses = len(cells) - progress.hits
        self.stats.cells_requested += len(cells)
        self.stats.cache_hits += progress.hits
        self.stats.cache_misses += progress.misses
        self.stats.cells_failed += progress.failed
        self._emit(progress)

        def land(key: str, payload: dict, reused: bool = False,
                 skipped: int = 0) -> None:
            """Finalise one key's payload, simulated (skipping
            ``skipped`` steady-state strips) or reused from the run it
            provably equals: cache first, then materialise."""
            if reused:
                self.stats.sims_reused += 1
            else:
                self.stats.sims_executed += 1
                if skipped:
                    self.stats.sims_extrapolated += 1
                    self.stats.strips_skipped += skipped
                sim_stats = payload["stats"]
                self.stats.sim_cycles += sim_stats["cycles"]
                self.stats.sim_events_processed += (
                    sim_stats["events_processed"])
                self.stats.sim_cycles_skipped += sim_stats["cycles_skipped"]
                self.stats.sim_spans_charged += sim_stats["spans_charged"]
            if self.cache is not None:
                self.cache.put(key, payload)
            for i in by_key[key]:
                results[i] = self._materialise(cells[i], payload)
                progress.done += 1
            self._emit(progress)

        def fail(key: str, failure: Failure) -> None:
            """Capture one failed key without stopping the rest."""
            failures.append(CellError(cells[by_key[key][0]], key, *failure))
            progress.done += len(by_key[key])
            progress.failed += len(by_key[key])
            self.stats.cells_failed += len(by_key[key])
            self._emit(progress)

        pair_keys = list(plan.pairs.values())

        def land_job(pos: int, outcome: dict) -> None:
            """Count the job's compile, then land each key."""
            self.stats.compiles += outcome["compiled"]
            results = outcome["results"]
            for key, result, skipped in zip(pair_keys[pos], results,
                                            outcome["skipped"]):
                if isinstance(result, int):
                    land(key, results[result], reused=True)
                elif isinstance(result, dict):
                    land(key, result, skipped=skipped)
                else:
                    fail(key, result)

        def fail_job(pos: int, exc: BaseException) -> None:
            failure = _failure(exc)
            for key in pair_keys[pos]:
                fail(key, failure)

        jobs_list: List[Job] = [
            (cells[by_key[keys[0]][0]],
             tuple((key, cells[by_key[key][0]]) for key in keys))
            for keys in pair_keys]
        self._batch_checks = any(cells[by_key[key][0]].check
                                 for keys in pair_keys for key in keys)
        # Inline when there is nothing to overlap: a subprocess round-trip
        # would only add pickling.
        dispatch = (run_inline if self.jobs == 1 or len(jobs_list) <= 1
                    else run_pool)
        dispatch(self, jobs_list, land_job, fail_job, progress, _run_pair)

        self._sync_store_counters()
        if failures:
            # Request order, not landing order: the report is the same at
            # every ``jobs``.
            failures.sort(key=lambda error: cells.index(error.cell))
            raise CellExecutionError(
                failures, completed=len(cells) - progress.failed,
                total=len(cells))
        return [results[i] for i in range(len(cells))]

    def run(self, cells: Sequence[Cell], label: str = ""
            ) -> List[CellResult]:
        """Plan and execute one batch (see :meth:`execute`)."""
        return self.execute(self.plan(cells), label=label)

    # -- internals -------------------------------------------------------------
    def _emit(self, progress: Progress) -> None:
        if self.progress is not None:
            self.progress(progress)

    def _sync_store_counters(self) -> None:
        """Mirror the result cache's quarantine counter into the
        executor's stats, so ``--cache-stats`` reports it."""
        self.stats.cache_quarantined = (
            self.cache.quarantined if self.cache is not None else 0)

    def _backoff_delay(self, label: str, pos: int, attempt: int) -> float:
        """Exponential backoff plus deterministic per-(cell, attempt)
        jitter — concurrent retries de-synchronise without consulting a
        global RNG, so runs stay reproducible."""
        base = self.backoff_s * (2 ** (attempt - 1))
        jitter = random.Random(f"{label}:{pos}:{attempt}").uniform(
            0.0, self.backoff_s)
        return base + jitter

    @staticmethod
    def _materialise(cell: Cell, payload: dict) -> CellResult:
        return CellResult(
            cell=cell,
            stats=SimStats.from_dict(payload["stats"]),
            energy=EnergyReport.from_dict(payload["energy"]),
            correct=payload.get("correct"),
        )


def figure3_spec(workloads: Sequence[Union[str, Workload]]) -> SweepSpec:
    """The Figure-3 grid — all 14 chart configurations — over ``workloads``.

    The shared declarative spec behind ``figure3``, ``claims`` and the
    extended-suite CLI selections, so every consumer enumerates the same
    cells in the same order (and therefore shares them through the cache).
    """
    from repro.experiments.configs import figure3_series
    return SweepSpec(workloads=list(workloads), configs=figure3_series())


def make_executor(jobs: int = 1, cache: bool = False,
                  cache_dir: Union[str, Path] = DEFAULT_CACHE_DIR,
                  progress: Optional[ProgressCallback] = None,
                  deadline_s: Optional[float] = None,
                  retries: int = 3,
                  backoff_s: float = 0.25,
                  sanitize: bool = False
                  ) -> CellExecutor:
    """Build an executor from the CLI-style knobs (--jobs / --no-cache /
    --cache-dir / --progress / --deadline / --retries / --sanitize).

    ``cache=True`` wires the persistent result cache, unbounded, at
    ``cache_dir``; ``--no-cache`` (``cache=False``) touches no disk.
    """
    return CellExecutor(jobs=jobs,
                        cache=ResultCache(cache_dir) if cache else None,
                        progress=progress, deadline_s=deadline_s,
                        retries=retries, backoff_s=backoff_s,
                        sanitize=sanitize)
