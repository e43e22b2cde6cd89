"""Unified experiment-execution engine.

Every artifact of the paper boils down to a grid of independent
(workload × configuration × timing-params × policy-knob) simulation
*cells*.  This module makes that grid explicit and executes it once:

* :class:`Cell` — one simulation, fully described by data: a workload
  plus the machine-side scenario axes (machine config, timing params,
  memory system, policy);
* :class:`SweepSpec` — a declarative grid that enumerates cells in a
  deterministic order, so new sweeps are data, not new code;
* :class:`ResultCache` — a persistent, content-addressed store of
  :class:`repro.sim.stats.SimStats` / :class:`repro.power.mcpat.EnergyReport`
  JSON under ``.repro-cache/``.  The key hashes the cell's compile
  *inputs* — the workload's compile fingerprint, the full scenario, the
  execution flags, the package code and :data:`DATA_SEED` — any change to
  any of them is a miss, and a hit never needs a compiled program;
* :class:`CellExecutor` — runs cells inline or streamed over one
  persistent :class:`concurrent.futures.ProcessPoolExecutor` that lives
  for the executor's lifetime, compiling only the cells that miss the
  cache.  Results are keyed by their position in the request, never by
  completion order, so the output is byte-identical
  regardless of scheduling and of ``jobs``.  Each result is written to
  the cache the moment it lands, a raising cell becomes a
  :class:`CellError` instead of discarding the rest of the batch, and an
  interrupted grid resumes by rerunning — finished cells replay as hits.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import (Callable, Dict, List, Optional, Sequence, TextIO,
                    Tuple, Union)

import numpy as np

from repro import faults
from repro.cachefs import AtomicJsonStore
from repro.compiler.signature import CompileSignature
from repro.compiler.store import TraceStore
from repro.core.config import MachineConfig
from repro.experiments.backends import (  # noqa: F401 — re-exported names
    FailFn, Job, LandFn, WorkerFn, default_jobs, run_inline, run_pool)
from repro.isa.instructions import fingerprint_line
from repro.isa.program import Program
from repro.memory.hierarchy import MemorySystemConfig
from repro.power.mcpat import EnergyReport, McPatModel
from repro.sim.scenario import CellPolicy, Scenario
from repro.sim.simulator import Simulator
from repro.sim.stats import SimStats
from repro.vpu.params import DEFAULT_TIMING, TimingParams
from repro.workloads.base import CompiledWorkload, Workload
from repro.workloads.registry import get_workload

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
CACHE_SCHEMA = 5

#: Default on-disk location of the persistent result cache.
DEFAULT_CACHE_DIR = ".repro-cache"


# ---------------------------------------------------------------------------
# cell description
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Cell:
    """One (workload, scenario) simulation, fully described by data.

    ``workload`` is normally a Table-IV registry name; passing a
    :class:`~repro.workloads.base.Workload` instance is allowed for
    out-of-registry kernels (the cache key hashes the workload's compile
    fingerprint, so the name is never trusted on its own).
    ``params``/``memsys`` left at ``None`` mean the paper's defaults —
    :meth:`scenario` folds all four machine-side axes into one frozen
    bundle.
    """

    workload: Union[str, Workload]
    config: MachineConfig
    params: Optional[TimingParams] = None
    policy: CellPolicy = CellPolicy()
    memsys: Optional[MemorySystemConfig] = None
    functional: bool = False
    warm: bool = True
    check: bool = False
    # Run under the microarchitectural sanitizer.  Part of the cache key:
    # a sanitized run must prove the invariants held for *this* cell, not
    # inherit a result computed without them.
    sanitize: bool = False

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

    def scenario(self) -> Scenario:
        """The cell's machine-side axes as one frozen scenario."""
        return Scenario(
            machine=self.config,
            timing=self.params if self.params is not None else DEFAULT_TIMING,
            memory=(self.memsys if self.memsys is not None
                    else MemorySystemConfig()),
            policy=self.policy)

    @classmethod
    def from_scenario(cls, workload: Union[str, Workload],
                      scenario: Scenario, *, functional: bool = False,
                      warm: bool = True, check: bool = False) -> "Cell":
        """Build a cell from a scenario bundle (inverse of :meth:`scenario`)."""
        return cls(workload=workload, config=scenario.machine,
                   params=scenario.timing, policy=scenario.policy,
                   memsys=scenario.memory, functional=functional,
                   warm=warm, check=check)


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
    functional: bool = False
    warm: bool = True
    check: bool = False

    def cells(self) -> List[Cell]:
        return [Cell(workload=w, config=cfg, params=p, memsys=mem,
                     policy=pol, functional=self.functional, warm=self.warm,
                     check=self.check)
                for w in self.workloads
                for cfg in self.configs
                for p in self.params
                for mem in self.memsys
                for pol in self.policies]

    def __len__(self) -> int:
        return (len(self.workloads) * len(self.configs) * len(self.params)
                * len(self.memsys) * len(self.policies))

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
    key: str = ""
    from_cache: bool = False


@dataclass
class RunRecord:
    """One rendered cell: statistics decorated with a relative speedup.

    Historically the result type of the long-removed
    ``repro.experiments.runner`` module; the figure renderers consume it,
    so it lives with the engine.
    """

    config: MachineConfig
    stats: SimStats
    energy: EnergyReport
    correct: Optional[bool] = None
    speedup: float = field(default=1.0)

    @property
    def cycles(self) -> int:
        return self.stats.cycles


def record_from_result(result: CellResult) -> RunRecord:
    """Adapt an engine result to the renderers' record type."""
    return RunRecord(config=result.cell.config, stats=result.stats,
                     energy=result.energy, correct=result.correct)


def fill_speedups(records: List[RunRecord],
                  baseline_index: int = 0) -> List[RunRecord]:
    """Decorate records with speedups vs the baseline entry, in place."""
    base_cycles = records[baseline_index].cycles
    for record in records:
        record.speedup = base_cycles / record.cycles if record.cycles else 0.0
    return records


def average_speedups(per_workload: Dict[str, List[RunRecord]]) -> List[float]:
    """Geometric-mean-free average speedup per series position (Fig. 4).

    Every workload must report the same series; ragged inputs mean a
    renderer lost (or duplicated) a configuration somewhere upstream, so
    they raise instead of silently averaging a truncated prefix.
    """
    lengths = {name: len(records) for name, records in per_workload.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(
            f"ragged per-workload series: {lengths} — every workload must "
            f"cover the same configurations")
    n = next(iter(lengths.values()), 0)
    # A left-to-right sum, not np.mean (pairwise): the two can differ in
    # the last bit, and Figure 4's rendered averages must not move.
    return [sum(records[i].speedup for records in per_workload.values())
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
        import repro
        root = Path(repro.__file__).parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
        _CODE_FINGERPRINT = h.hexdigest()
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
        key = scenario.to_dict()
        _KEY_CACHE[scenario] = key
    return key


def cell_key_payload(cell: Cell, compile_fingerprint: str) -> dict:
    """The hashed body of :func:`cell_key`: every input that can change
    the cell's results.

    The machine-side inputs are hashed as the cell's *full scenario* —
    machine config, timing params, memory-system config and policy — so
    entries can never collide across memory or timing presets.  The
    program side is hashed as its compile inputs: the scenario's machine
    config carries the :class:`CompileSignature`, ``compile_fingerprint``
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
        "scenario": _scenario_key(cell.scenario()),
        "functional": cell.functional or cell.check,
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
    permissions — is :class:`~repro.cachefs.AtomicJsonStore`'s, shared
    with the compiler's :class:`~repro.compiler.store.TraceStore`; this
    class adds only the result payload's schema gate.
    """

    FAULT_SITE = "results"

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR,
                 max_bytes: Optional[int] = None) -> None:
        super().__init__(root, max_bytes=max_bytes)

    def _validate(self, payload: dict) -> bool:
        """Valid JSON that lost its ``stats``/``energy`` sections (or
        carries another schema) must re-simulate, not crash the render."""
        return (payload.get("schema") == CACHE_SCHEMA
                and isinstance(payload.get("stats"), dict)
                and isinstance(payload.get("energy"), dict))


# ---------------------------------------------------------------------------
# cell execution
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TraceRef:
    """A pool worker's pointer into a :class:`TraceStore` entry.

    When the executor runs with a trace store, workers receive this tiny
    (root, key) pair and load the program from disk themselves instead of
    unpickling a multi-thousand-instruction :class:`Program` over the
    pipe — the store is the shared transport, the pipe carries ~100 bytes.
    """

    root: str
    key: str


#: True only in pool worker processes (set by the pool initializer) — an
#: injected worker crash hard-exits a worker but must merely *raise* when
#: the cell executes inline, or it would take the CLI down with it.
_IN_POOL_WORKER = False


def _pool_worker_init() -> None:
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic collector over one cell's compile / simulate.

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


def _execute_cell(job: Union[Tuple[Cell, Union[Program, TraceRef]],
                             Tuple[Cell, Union[Program, TraceRef], int]]
                  ) -> dict:
    """Simulate and measure one pre-compiled cell; returns the cache payload.

    Module-level so :class:`ProcessPoolExecutor` can pickle it; must stay
    deterministic — everything it consumes is in the cell (plus
    :data:`DATA_SEED`).  The executor compiled (or loaded) the program
    when the cell missed the cache, so it is never recompiled here: it
    arrives either in-memory (inline execution) or as a :class:`TraceRef`
    into the trace store (pool execution).  A ref whose entry vanished or
    was damaged between dispatch and execution falls back to an in-worker
    recompile — a pruned store costs time, never a failed cell.

    The optional third element is the cell's retry attempt number; an
    active :class:`~repro.faults.FaultPlan` (chaos testing) gates injected
    crashes/hangs on it, which is how "fails on attempt 0, succeeds on
    attempt 1" scenarios stay deterministic.
    """
    with _gc_paused():
        return _run_cell(job)


def _run_cell(job: Union[Tuple[Cell, Union[Program, TraceRef]],
                         Tuple[Cell, Union[Program, TraceRef], int]]
              ) -> dict:
    cell, source = job[0], job[1]
    attempt = job[2] if len(job) > 2 else 0
    plan = faults.active_plan()
    if plan is not None:
        plan.fire_cell(cell.label(), attempt, in_worker=_IN_POOL_WORKER)
    workload = cell.resolve_workload()
    functional = cell.functional or cell.check
    sim: Optional[Simulator] = None
    if isinstance(source, TraceRef):
        payload = TraceStore(source.root).get(source.key)
        if payload is not None:
            try:
                sim = Simulator.from_trace(cell.scenario(), payload,
                                           functional=functional,
                                           sanitize=cell.sanitize)
            except Exception:  # noqa: BLE001 — damaged entry reads as miss
                sim = None
        if sim is None:
            source = workload.compile(cell.config).program
    if sim is None:
        sim = Simulator(cell.scenario(), source, functional=functional,
                        sanitize=cell.sanitize)
    rng = np.random.default_rng(DATA_SEED)
    data = workload.init_data(rng)
    if functional:
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
    return {
        "schema": CACHE_SCHEMA,
        "label": cell.label(),
        "stats": result.stats.to_dict(),
        "energy": energy.to_dict(),
        "correct": correct,
    }


def _compile_cell(job: Tuple[Cell, None, int]) -> "CompiledWorkload":
    """Compile one cell's kernel (module-level so the pool can pickle it).

    Compilation is pure — everything it reads is in the cell — so a
    parallel executor fans the distinct (workload, signature) compiles out
    over the same worker pool, through the same dispatcher, that runs the
    simulations, instead of serializing them in the parent while the
    workers sit idle.  The full :class:`CompiledWorkload` comes back (not
    just the program) so the parent can persist it to the trace store.
    """
    cell = job[0]
    with _gc_paused():
        return cell.resolve_workload().compile(cell.config)


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
    #: Cells whose attempt ran past the per-cell deadline (each such
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
    *inputs*, so only cache misses need a program: a cache hit reads no
    trace and compiles nothing, and a fully warm result cache reports
    ``0 kernel compiles, 0 trace hits, 0 trace misses``.  Among the
    misses, the per-(workload, :class:`CompileSignature`) memo keeps
    ``compiles`` at the number of *distinct* pairs — configurations
    differing only in simulation-side axes share one compile.  Named
    cells memoize for the executor's lifetime; instance-backed cells only
    within one batch, because the caller owns the instance and may mutate
    it between batches.  With a trace store attached, ``trace_hits``
    counts missing pairs replayed from disk instead of compiled and
    ``trace_misses`` counts pairs that had to compile (and were then
    stored) — so ``trace_misses == compiles`` on store-backed executors.
    ``sim_*`` counters aggregate the event-driven scheduler's
    efficiency over the simulations this executor actually ran (cache hits
    replay stored results and schedule nothing).
    """

    cells_requested: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cells_failed: int = 0
    sims_executed: int = 0
    compiles: int = 0
    trace_hits: int = 0
    trace_misses: int = 0
    sim_cycles: int = 0
    sim_events_processed: int = 0
    sim_cycles_skipped: int = 0
    sim_spans_charged: int = 0
    sim_span_cycles: int = 0
    #: Resilience counters: charged retry attempts, deadline-exceeded
    #: attempts, cache entries quarantined on integrity failure and
    #: entries evicted by the size bound.  ``cache_misses`` stays one per
    #: cell however many attempts its result took (retry accounting never
    #: inflates the hit-rate denominators the acceptance greps key on).
    retries: int = 0
    timeouts: int = 0
    cache_quarantined: int = 0
    cache_evicted: int = 0

    def to_dict(self) -> Dict[str, int]:
        """Counters as plain JSON (the ``--stats-json`` payload body)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        text = (f"engine: {self.cells_requested} cells requested, "
                f"{self.cache_hits} cache hits, "
                f"{self.cache_misses} misses, "
                f"{self.sims_executed} simulations executed, "
                f"{self.compiles} kernel compiles, "
                f"{self.trace_hits} trace hits, "
                f"{self.trace_misses} trace misses")
        if (self.retries or self.timeouts or self.cache_quarantined
                or self.cache_evicted):
            # On its own line, only when something resilience-related
            # actually happened: the first line's wording is an interface
            # (CI greps it) and a fault-free run's output must not change.
            text += (f"\nresilience: {self.retries} retries, "
                     f"{self.timeouts} timeouts, "
                     f"{self.cache_quarantined} quarantined cache entries, "
                     f"{self.cache_evicted} evicted")
        if self.cells_failed:
            text += f"\nfailures: {self.cells_failed} cells failed"
        if self.sim_cycles:
            skipped = 100.0 * self.sim_cycles_skipped / self.sim_cycles
            text += (f"\nscheduler: {self.sim_cycles} cycles simulated, "
                     f"{self.sim_events_processed} events processed, "
                     f"{self.sim_cycles_skipped} cycles skipped "
                     f"({skipped:.0f}%)")
            if self.sim_spans_charged:
                covered = 100.0 * self.sim_span_cycles / self.sim_cycles
                text += (f"\nspans: {self.sim_spans_charged} charged, "
                         f"{self.sim_span_cycles} span cycles "
                         f"({covered:.0f}% of simulated)")
        return text


#: A compile-memo key: workload identity (registry name or instance) plus
#: the (mvl, n_logical) signature — never the full machine config.
PairKey = Tuple[Union[str, Workload], CompileSignature]


@dataclass
class _CompileMemo:
    """Per-workload compile fingerprints and per-pair programs.

    Program entries pair the program with its trace-store key (None
    without a store), so the dispatcher can hand workers a
    :class:`TraceRef`.
    """

    fingerprints: Dict[Union[str, Workload], str] = field(
        default_factory=dict)
    programs: Dict[PairKey, Tuple[Program, Optional[str]]] = field(
        default_factory=dict)


def _cell_error(cell: Cell, key: str, exc: BaseException) -> CellError:
    return CellError(cell=cell, key=key,
                     error=f"{type(exc).__name__}: {exc}",
                     tb="".join(traceback.format_exception(
                         type(exc), exc, exc.__traceback__)))


class CellExecutor:
    """Streams cell batches inline or over one process pool.

    ``jobs=1`` executes inline (no subprocess, no pickling); ``jobs>1``
    submits misses to one :class:`ProcessPoolExecutor` that is spun up on
    first use and reused across batches (``close()`` or the
    context-manager form shuts it down).  Compiles and simulations go
    through the same dispatcher (:mod:`repro.experiments.backends`), and
    the semantic layer here — cache scan, compile memo, dedupe,
    position-keyed results, counters — does not depend on it, so rendered
    artifacts are byte-identical across ``jobs``.  Identical cells within
    a batch are simulated once.  Results always come back in request
    order.

    A batch is keyed first: :func:`cell_key` hashes compile *inputs*,
    with the workload's compile fingerprint memoized — for the executor's
    lifetime for named cells, per batch for instance-backed cells (the
    caller owns the instance and may mutate it between batches).  Cache
    hits are final at that point; only the misses are compiled, once per
    distinct (workload, :class:`CompileSignature`) pair under the same
    memo policy, and dispatched.

    Execution is *streaming*: every payload is written to the cache the
    moment its simulation lands, so interrupting a grid — Ctrl-C, an
    OOM-killed worker, one raising cell — never discards the cells that
    already finished; rerunning replays them as cache hits and
    re-executes only what is missing.  A raising cell is captured as a
    :class:`CellError` while the rest of the batch keeps going; after the
    batch drains, failures raise :class:`CellExecutionError` (pass
    ``errors="return"`` to receive the :class:`CellError` objects in
    their result positions instead).  ``progress`` is called with a
    :class:`Progress` snapshot as every cell is finalised.

    ``traces`` attaches a persistent :class:`TraceStore`: compile-memo
    misses consult it before compiling, fresh compiles are written back,
    and parallel batches ship :class:`TraceRef` pointers to the workers
    instead of pickled programs.

    Resilience knobs: ``deadline_s`` arms a per-cell deadline on each
    compile and each simulation — in pool mode a watchdog that kills the
    pool under a job observed RUNNING for longer than the deadline
    (finished futures are drained first, and collateral in-flight jobs
    are resubmitted with their attempt counts intact), inline a
    ``SIGALRM`` timer.  ``retries`` bounds how many *charged* failures a
    cell may accumulate before it becomes a :class:`CellError`; only
    infrastructure faults (:data:`~repro.experiments.backends._RETRYABLE`)
    charge the budget — deterministic cell exceptions fail fast on the
    first attempt.  Each charged retry backs off exponentially
    (``backoff_s * 2**(attempt-1)``) plus a deterministic per-cell jitter
    in ``[0, backoff_s)``, so a wave of retries against a shared cache
    never stampedes in lockstep.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 traces: Optional[TraceStore] = None,
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
        self.traces = traces
        self.progress = progress
        self.deadline_s = deadline_s
        self.retries = retries
        self.backoff_s = backoff_s
        #: Force every cell through the microarchitectural sanitizer
        #: (``repro ... --sanitize``); cells already marked stay marked.
        self.sanitize = sanitize
        self.stats = ExecutorStats()
        self._pool: Optional[ProcessPoolExecutor] = None
        # The memo for *named* cells: the registry instantiates a fresh
        # default-shaped instance per lookup, so a name's fingerprint and
        # its (name, signature) programs are pure for the executor's life.
        self._named = _CompileMemo()

    # -- worker-pool lifecycle -------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
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
    def run(self, cells: Sequence[Cell], label: str = "",
            errors: str = "raise"
            ) -> List[Union[CellResult, CellError]]:
        """Execute a batch; element ``i`` of the result matches ``cells[i]``.

        ``label`` names the batch in progress snapshots.  ``errors``
        selects what a failed cell does once the batch has drained:
        ``"raise"`` (the default) raises :class:`CellExecutionError`,
        ``"return"`` yields the :class:`CellError` in the failed cell's
        result position.  Either way every completed cell was already
        cached when the failure surfaced.
        """
        if errors not in ("raise", "return"):
            raise ValueError(f"errors must be 'raise' or 'return', "
                             f"got {errors!r}")
        if self.sanitize:
            cells = [cell if cell.sanitize else replace(cell, sanitize=True)
                     for cell in cells]
        self.stats.cells_requested += len(cells)
        batch = _CompileMemo()

        progress = Progress(total=len(cells), label=label)
        results: Dict[int, Union[CellResult, CellError]] = {}
        failures: List[CellError] = []
        pending: List[int] = []
        keys: List[str] = []
        # One shared CellError per workload whose fingerprint raised (its
        # kernel does not build), however many cells requested it.  There
        # is no key to cache under, so those cells re-execute next run.
        unkeyable: Dict[Union[str, Workload], CellError] = {}
        for i, cell in enumerate(cells):
            error = unkeyable.get(cell.workload)
            if error is None:
                try:
                    fingerprint = self._fingerprint(cell, batch)
                except Exception as exc:  # noqa: BLE001 — per workload
                    error = unkeyable[cell.workload] = _cell_error(
                        cell, "", exc)
                    failures.append(error)
            if error is not None:
                keys.append("")
                results[i] = error
                self.stats.cache_misses += 1
                self.stats.cells_failed += 1
                progress.misses += 1
                progress.done += 1
                progress.failed += 1
                continue
            key = cell_key(cell, fingerprint)
            keys.append(key)
            payload = self.cache.get(key) if self.cache else None
            if payload is not None:
                self.stats.cache_hits += 1
                progress.hits += 1
                progress.done += 1
                results[i] = self._materialise(cell, key, payload,
                                               from_cache=True)
            else:
                self.stats.cache_misses += 1
                progress.misses += 1
                pending.append(i)
        self._emit(progress)

        if pending:
            # Dedupe identical cells inside the batch: one simulation each.
            by_key: Dict[str, List[int]] = {}
            for i in pending:
                by_key.setdefault(keys[i], []).append(i)

            def land(key: str, payload: dict) -> None:
                """Finalise one simulation: cache first, then materialise."""
                self.stats.sims_executed += 1
                sim_stats = payload["stats"]
                self.stats.sim_cycles += sim_stats["cycles"]
                self.stats.sim_events_processed += (
                    sim_stats["events_processed"])
                self.stats.sim_cycles_skipped += sim_stats["cycles_skipped"]
                self.stats.sim_spans_charged += sim_stats.get(
                    "spans_charged", 0)
                self.stats.sim_span_cycles += sim_stats.get("span_cycles", 0)
                if self.cache is not None:
                    self.cache.put(key, payload)
                for i in by_key[key]:
                    results[i] = self._materialise(cells[i], key, payload,
                                                   from_cache=False)
                    progress.done += 1
                self._emit(progress)

            def fail(key: str, exc: BaseException) -> None:
                """Capture one failed key without stopping the rest."""
                error = _cell_error(cells[by_key[key][0]], key, exc)
                failures.append(error)
                for i in by_key[key]:
                    results[i] = error
                    progress.done += 1
                    progress.failed += 1
                    self.stats.cells_failed += 1
                self._emit(progress)

            # Only the misses need programs; a raising compile fails the
            # keys that needed it before anything is dispatched.
            sources = self._compile_programs(
                [cells[indices[0]] for indices in by_key.values()], batch,
                progress)
            runnable: List[str] = []
            jobs_list: List[Job] = []
            for key, source in zip(by_key, sources):
                if isinstance(source, BaseException):
                    fail(key, source)
                else:
                    runnable.append(key)
                    jobs_list.append((cells[by_key[key][0]], source))
            self._dispatch(jobs_list,
                           lambda pos, payload: land(runnable[pos], payload),
                           lambda pos, exc: fail(runnable[pos], exc),
                           progress, _execute_cell)

        self._sync_store_counters()
        if failures and errors == "raise":
            raise CellExecutionError(
                failures, completed=len(cells) - progress.failed,
                total=len(cells))
        return [results[i] for i in range(len(cells))]

    def run_spec(self, spec: SweepSpec, label: str = "",
                 errors: str = "raise"
                 ) -> List[Union[CellResult, CellError]]:
        """Expand a sweep spec and execute its grid."""
        return self.run(spec.cells(), label=label, errors=errors)

    def run_one(self, cell: Cell, errors: str = "raise"
                ) -> Union[CellResult, CellError]:
        return self.run([cell], errors=errors)[0]

    # -- internals -------------------------------------------------------------
    def _dispatch(self, jobs_list: List[Job], land: LandFn, fail: FailFn,
                  progress: Progress, worker: WorkerFn) -> None:
        """Run ``worker`` over every job, finalising by position: inline
        when there is nothing to overlap (``jobs == 1`` or a single job —
        a subprocess round-trip would only add pickling), else streamed
        over the pool."""
        if self.jobs == 1 or len(jobs_list) <= 1:
            run_inline(self, jobs_list, land, fail, progress, worker)
        else:
            run_pool(self, jobs_list, land, fail, progress, worker)

    def _emit(self, progress: Progress) -> None:
        if self.progress is not None:
            self.progress(progress)

    def _sync_store_counters(self) -> None:
        """Mirror the stores' quarantine/eviction counters into the
        executor's stats, so ``--cache-stats`` reports them."""
        quarantined = evicted = 0
        for store in (self.cache, self.traces):
            if store is not None:
                quarantined += store.quarantined
                evicted += store.evicted
        self.stats.cache_quarantined = quarantined
        self.stats.cache_evicted = evicted

    def _backoff_delay(self, label: str, pos: int, attempt: int) -> float:
        """Exponential backoff plus deterministic per-(cell, attempt)
        jitter — concurrent retries de-synchronise without consulting a
        global RNG, so runs stay reproducible."""
        base = self.backoff_s * (2 ** (attempt - 1))
        jitter = random.Random(f"{label}:{pos}:{attempt}").uniform(
            0.0, self.backoff_s)
        return base + jitter

    def _memo(self, cell: Cell, batch: _CompileMemo) -> _CompileMemo:
        """Named cells memoize for the executor's life, instances per
        batch."""
        return self._named if isinstance(cell.workload, str) else batch

    def _fingerprint(self, cell: Cell, batch: _CompileMemo) -> str:
        """The cell's memoized workload compile fingerprint (raises what
        building the kernel raises; failures are never memoized)."""
        fingerprints = self._memo(cell, batch).fingerprints
        fingerprint = fingerprints.get(cell.workload)
        if fingerprint is None:
            fingerprint = cell.resolve_workload().compile_fingerprint()
            fingerprints[cell.workload] = fingerprint
        return fingerprint

    def _compile_programs(self, cells: Sequence[Cell], batch: _CompileMemo,
                          progress: Progress
                          ) -> List[Union[Program, TraceRef, BaseException]]:
        """What to dispatch for each cell — its program, a
        :class:`TraceRef` to it, or the exception its compile raised —
        memoized per (workload, :class:`CompileSignature`).

        The signature is the narrowed compile key: configurations that
        differ only in simulation-side axes (NATIVE/AVA mode, physical
        VRF, VVR count, lanes, timing) share one compile, so a machine-
        axis grid compiles each workload once per distinct
        (mvl, n_logical), not once per machine config.

        With a trace store attached, memo misses consult it first —
        signatures compiled by any previous run or process replay from
        disk (``stats.trace_hits``) and only true misses compile.  Those
        go through the same dispatcher as the simulations — over the
        worker pool when the executor is parallel, with the same deadline
        and retry budget — and are written back to the store.  A raising
        compile is captured per pair (one bad kernel must not abort the
        grid), only successful compiles count toward ``stats.compiles``,
        and failed pairs are never memoized, so the next batch retries
        them.  Parallel batches of more than one cell get a
        :class:`TraceRef` wherever the store holds the program, so workers
        load it instead of unpickling it.
        """
        todo: Dict[PairKey, Tuple[Cell, Optional[str]]] = {}
        for cell in cells:
            pair = (cell.workload, CompileSignature.from_config(cell.config))
            programs = self._memo(cell, batch).programs
            if pair in programs or pair in todo:
                continue
            trace_key = None
            if self.traces is not None:
                trace_key = self.traces.key(cell.resolve_workload(), pair[1])
                stored = self.traces.load(trace_key)
                if stored is not None:
                    self.stats.trace_hits += 1
                    programs[pair] = (stored.program, trace_key)
                    continue
            todo[pair] = (cell, trace_key)

        pairs = list(todo)
        failed: Dict[PairKey, BaseException] = {}

        def land(pos: int, compiled: CompiledWorkload) -> None:
            cell, trace_key = todo[pairs[pos]]
            self.stats.compiles += 1
            if trace_key is not None:
                self.stats.trace_misses += 1
                self.traces.put_trace(trace_key, compiled)
            self._memo(cell, batch).programs[pairs[pos]] = (
                compiled.program, trace_key)

        def fail(pos: int, exc: BaseException) -> None:
            failed[pairs[pos]] = exc

        self._dispatch([(cell, None) for cell, _ in todo.values()], land,
                       fail, progress, _compile_cell)

        use_refs = self.traces is not None and self.jobs > 1 and len(cells) > 1

        def source(cell: Cell) -> Union[Program, TraceRef, BaseException]:
            pair = (cell.workload, CompileSignature.from_config(cell.config))
            entry = self._memo(cell, batch).programs.get(pair)
            if entry is None:
                return failed[pair]
            program, trace_key = entry
            if use_refs and trace_key is not None:
                return TraceRef(root=str(self.traces.root), key=trace_key)
            return program

        return [source(cell) for cell in cells]

    @staticmethod
    def _materialise(cell: Cell, key: str, payload: dict,
                     from_cache: bool) -> CellResult:
        return CellResult(
            cell=cell,
            stats=SimStats.from_dict(payload["stats"]),
            energy=EnergyReport.from_dict(payload["energy"]),
            correct=payload.get("correct"),
            key=key,
            from_cache=from_cache,
        )


def figure3_spec(workloads: Sequence[Union[str, Workload]],
                 params: Optional[TimingParams] = None,
                 check: bool = False) -> SweepSpec:
    """The Figure-3 grid — all 14 chart configurations — over ``workloads``.

    The shared declarative spec behind ``figure3``, ``claims`` and the
    extended-suite CLI selections, so every consumer enumerates the same
    cells in the same order (and therefore shares them through the cache).
    """
    from repro.experiments.configs import figure3_series
    return SweepSpec(workloads=list(workloads), configs=figure3_series(),
                     params=(params,), check=check)


def make_executor(jobs: int = 1, cache: bool = False,
                  cache_dir: Union[str, Path] = DEFAULT_CACHE_DIR,
                  progress: Optional[ProgressCallback] = None,
                  deadline_s: Optional[float] = None,
                  retries: int = 3,
                  backoff_s: float = 0.25,
                  cache_max_bytes: Optional[int] = None,
                  sanitize: bool = False
                  ) -> CellExecutor:
    """Build an executor from the CLI-style knobs (--jobs / --no-cache /
    --cache-dir / --progress / --deadline / --retries / --cache-max-bytes
    / --sanitize).

    ``cache=True`` wires both persistent stores: cell results at
    ``cache_dir`` (size-bounded when ``cache_max_bytes`` is set) and
    compiled traces under ``cache_dir/traces``.  ``--no-cache``
    (``cache=False``) disables both — no disk is touched.
    """
    from repro.compiler.store import TRACE_SUBDIR
    root = Path(cache_dir)
    return CellExecutor(jobs=jobs,
                        cache=(ResultCache(root, max_bytes=cache_max_bytes)
                               if cache else None),
                        traces=TraceStore(root / TRACE_SUBDIR) if cache
                        else None,
                        progress=progress, deadline_s=deadline_s,
                        retries=retries, backoff_s=backoff_s,
                        sanitize=sanitize)
