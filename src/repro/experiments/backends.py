"""Execution backends: *where* cells run, split from *what* runs.

:class:`~repro.experiments.engine.CellExecutor` owns the semantic side of
a batch — cache scan, compile memo, dedupe, result ordering, counters —
and delegates every scheduling decision to one of these backends, picked
by ``jobs`` alone:

* :class:`InlineBackend` — in-process execution (no subprocess, no
  pickling), with the per-cell ``SIGALRM`` deadline and the retry budget;
* :class:`ProcessPoolBackend` — the streaming dispatcher over one
  persistent :class:`concurrent.futures.ProcessPoolExecutor`, with the
  watchdog that kills hung workers, broken-pool reclamation and the same
  retry budget.  Single-job batches short-circuit to inline execution.

Both backends receive the same ``(jobs_list, land, fail, progress)``
contract: execute each ``(cell, source)`` pair exactly once, finalise it
through ``land``/``fail`` keyed by its *position*, never by completion
order.  The executor's outputs are therefore byte-identical across
``--jobs`` values.

The module avoids importing the engine at module scope (the engine
imports it first); worker-side entry points are imported lazily at
dispatch time.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor, Future,
                                ProcessPoolExecutor, wait)
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Set,
                    Tuple)

from repro import faults

if TYPE_CHECKING:  # pragma: no cover — type names only, no import cycle
    from repro.experiments.engine import CellExecutor, Progress

#: One dispatchable unit: ``(cell, Program-or-TraceRef)``.
Job = Tuple[object, object]
#: Finalisers the executor hands the backend: position-keyed.
LandFn = Callable[[int, dict], None]
FailFn = Callable[[int, BaseException], None]


def default_jobs() -> int:
    """The worker count ``--jobs auto`` resolves to.

    Prefers the CPUs this *process* may actually use — Python 3.13's
    :func:`os.process_cpu_count`, else the scheduler affinity mask — over
    :func:`os.cpu_count`, which reports the whole machine and makes a
    containerized CI job oversubscribe its cgroup quota.
    """
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:
        n = counter()
        if n:
            return n
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover — affinity query denied
            pass
    return os.cpu_count() or 1


class CellDeadlineExceeded(RuntimeError):
    """A cell ran past the executor's per-cell deadline.

    Pool mode: the watchdog observed the cell RUNNING for longer than
    ``deadline_s`` and killed the worker pool out from under it (a hung
    future cannot be cancelled).  Inline mode: a ``SIGALRM`` timer
    interrupted the simulation.  Classified as an *infrastructure*
    failure — retried within the budget, never failed fast — because a
    hang is a property of the worker's environment (wedged filesystem,
    livelocked I/O), not of the cell.
    """


#: Failure types the retry budget covers: infrastructure faults (a dead
#: worker, a deadline-killed hang, transient I/O) where a fresh attempt
#: can plausibly succeed.  Deterministic cell exceptions — a raising
#: workload, a bad config — fail fast instead: retrying them burns the
#: budget reproducing the same traceback.
_RETRYABLE = (BrokenExecutor, CellDeadlineExceeded,
              faults.TransientFaultError, OSError)


def _execute_cell(job):
    """The worker-side entry point, resolved lazily from the engine
    (the engine imports this module at load time, so the reverse import
    must wait until dispatch)."""
    from repro.experiments.engine import _execute_cell as execute
    return execute(job)


class ExecutionBackend:
    """Scheduling strategy behind a :class:`CellExecutor` batch.

    ``jobs`` is the backend's worker width (1 for inline).  ``bind``
    attaches the owning executor — backends read the resilience knobs
    (``deadline_s`` / ``retries`` / ``backoff_s``), charge the shared
    :class:`~repro.experiments.engine.ExecutorStats` and emit progress
    through it.  A backend belongs to exactly one executor at a time.
    """

    name = "backend"
    jobs = 1

    def __init__(self) -> None:
        self._executor: Optional["CellExecutor"] = None

    def bind(self, executor: "CellExecutor") -> None:
        self._executor = executor

    @property
    def executor(self) -> "CellExecutor":
        if self._executor is None:
            raise RuntimeError(f"{type(self).__name__} is not bound to an "
                               f"executor")
        return self._executor

    def execute(self, jobs_list: List[Job], land: LandFn, fail: FailFn,
                progress: "Progress") -> None:
        """Run every job exactly once, finalising by position."""
        raise NotImplementedError

    def compile_pool(self) -> Optional[ProcessPoolExecutor]:
        """A pool the executor may fan compiles out over (None = serial)."""
        return None

    def discard_pool(self) -> None:
        """Drop any broken/interrupted pool without waiting (no-op when
        the backend holds no pool)."""

    def close(self) -> None:
        """Release scheduling resources; the backend stays reusable."""


def _execute_deadlined(executor: "CellExecutor", job) -> dict:
    """Inline execution under the per-cell deadline (``SIGALRM``).

    The alarm only exists on the main thread of a POSIX process;
    anywhere else the deadline degrades to unenforced — inline cells
    are the executor's own computation, and there is no second thread
    to cut them short from.
    """
    deadline = executor.deadline_s
    if (deadline is None or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        return _execute_cell(job)
    cell, attempt = job[0], job[2]

    def on_alarm(signum: int, frame: object) -> None:
        raise CellDeadlineExceeded(
            f"cell {cell.label()} exceeded its {deadline:.3g}s deadline "
            f"(attempt {attempt})")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        return _execute_cell(job)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_inline(executor: "CellExecutor", jobs_list: List[Job],
               land: LandFn, fail: FailFn, progress: "Progress") -> None:
    """Execute a batch in-process, with the same retry budget and
    deadline the pool path enforces.  Shared by :class:`InlineBackend`
    and the pool backend's single-job shortcut."""
    for pos, (cell, source) in enumerate(jobs_list):
        attempt = 0
        while True:
            try:
                payload = _execute_deadlined(executor,
                                             (cell, source, attempt))
            except Exception as exc:  # noqa: BLE001 — isolated per cell
                if isinstance(exc, CellDeadlineExceeded):
                    executor.stats.timeouts += 1
                    progress.timeouts += 1
                if isinstance(exc, _RETRYABLE) and attempt < executor.retries:
                    attempt += 1
                    executor.stats.retries += 1
                    progress.retries += 1
                    executor._emit(progress)
                    time.sleep(executor._backoff_delay(cell.label(), pos,
                                                       attempt))
                    continue
                fail(pos, exc)
            else:
                land(pos, payload)
            break


class InlineBackend(ExecutionBackend):
    """In-process execution: no subprocess, no pickling, deterministic
    request order.  The ``jobs=1`` scheduling of the pre-backend
    executor, verbatim."""

    name = "inline"
    jobs = 1

    def execute(self, jobs_list: List[Job], land: LandFn, fail: FailFn,
                progress: "Progress") -> None:
        run_inline(self.executor, jobs_list, land, fail, progress)


class ProcessPoolBackend(ExecutionBackend):
    """Streaming dispatch over one persistent process pool.

    The pool is spun up on first use and reused across batches
    (``close()`` shuts it down; the backend stays usable — the next
    parallel batch starts a fresh pool).  ``jobs == 1`` and single-job
    batches execute inline, exactly as the pre-backend executor did:
    there is nothing to overlap, and the subprocess round-trip would
    only add pickling.
    """

    name = "pool"

    def __init__(self, jobs: int = 2) -> None:
        super().__init__()
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            from repro.experiments.engine import _pool_worker_init
            self._pool = ProcessPoolExecutor(max_workers=self.jobs,
                                             initializer=_pool_worker_init)
        return self._pool

    def discard_pool(self) -> None:
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
        self.discard_pool()

    def compile_pool(self) -> Optional[ProcessPoolExecutor]:
        return self._ensure_pool() if self.jobs > 1 else None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    # -- dispatch ----------------------------------------------------------
    def execute(self, jobs_list: List[Job], land: LandFn, fail: FailFn,
                progress: "Progress") -> None:
        if self.jobs == 1 or len(jobs_list) == 1:
            run_inline(self.executor, jobs_list, land, fail, progress)
        else:
            self._stream(jobs_list, land, fail, progress)

    def _stream(self, jobs_list: List[Job], land: LandFn, fail: FailFn,
                progress: "Progress") -> None:
        """Submit every job, finalise each as it completes — and survive
        the infrastructure dying under the batch.

        Three failure channels feed the shared retry budget
        (``attempts[pos]`` counts *charged* failures per position; a cell
        fails for real only once it exceeds the executor's ``retries``):

        * a **retryable worker exception** (transient I/O, an injected
          fault) charges that cell and resubmits it after backoff;
        * a **broken pool** (OOM-killed / segfaulted worker) fails every
          in-flight future at once with no way to identify the culprit —
          futures that finished before the break are drained and cached
          first, then every victim is charged one attempt and resubmitted
          to a fresh pool;
        * a **deadline expiry** — the watchdog tracks when each future is
          first observed RUNNING and, once one overstays ``deadline_s``,
          kills the pool (a running future cannot be cancelled).  Only the
          overdue cells are charged (and counted as timeouts); collateral
          in-flight cells are resubmitted *uncharged*, attempt counts
          preserved — they did nothing wrong.

        Deterministic cell exceptions bypass the budget and fail fast.
        Everything that completed before an interruption was already
        cached by ``land``, so Ctrl-C keeps its resume-by-rerun contract.
        """
        executor = self.executor
        attempts = [0] * len(jobs_list)
        inflight: Dict[Future, int] = {}
        first_running: Dict[Future, float] = {}
        #: Positions waiting out a backoff (or a pool respawn):
        #: (monotonic resubmit time, position).
        delayed: List[Tuple[float, int]] = []

        def submit(pos: int) -> None:
            cell, source = jobs_list[pos]
            job = (cell, source, attempts[pos])
            try:
                future = self._ensure_pool().submit(_execute_cell, job)
            except BrokenExecutor as exc:
                # The pool broke since the last drain (another worker
                # death): handle the wave right here — drain and charge
                # the stranded futures — so the replacement pool never
                # shares the in-flight map with a dead one.
                self.discard_pool()
                reclaim(exc, set(inflight.values()))
                future = self._ensure_pool().submit(_execute_cell, job)
            inflight[future] = pos

        def charge(pos: int, exc: BaseException) -> None:
            attempts[pos] += 1
            if attempts[pos] > executor.retries:
                fail(pos, exc)
                return
            executor.stats.retries += 1
            progress.retries += 1
            executor._emit(progress)
            delay = executor._backoff_delay(jobs_list[pos][0].label(), pos,
                                            attempts[pos])
            delayed.append((time.monotonic() + delay, pos))

        def reclaim(exc: BaseException, charged: Set[int]) -> None:
            """The pool just died: drain every future that actually
            finished (their results are real and must be cached), charge
            the positions in ``charged``, resubmit the rest uncharged."""
            for future, pos in list(inflight.items()):
                del inflight[future]
                first_running.pop(future, None)
                payload = None
                if future.done() and not future.cancelled():
                    try:
                        payload = future.result()
                    except BaseException:  # noqa: BLE001 — died with pool
                        payload = None
                if payload is not None:
                    land(pos, payload)
                elif pos in charged:
                    if isinstance(exc, CellDeadlineExceeded):
                        executor.stats.timeouts += 1
                        progress.timeouts += 1
                    charge(pos, exc)
                else:
                    delayed.append((time.monotonic(), pos))

        try:
            for pos in range(len(jobs_list)):
                submit(pos)
            while inflight or delayed:
                now = time.monotonic()
                if delayed:
                    due = [pos for when, pos in delayed if when <= now]
                    delayed = [(when, pos) for when, pos in delayed
                               if when > now]
                    for pos in due:
                        submit(pos)
                if not inflight:
                    next_due = min(when for when, _ in delayed)
                    time.sleep(max(0.0, next_due - time.monotonic()))
                    continue
                timeout: Optional[float] = None
                if delayed:
                    timeout = max(0.0, min(when for when, _ in delayed) - now)
                if executor.deadline_s is not None:
                    # Poll fast enough to observe futures entering RUNNING
                    # and to fire the watchdog promptly.
                    poll = min(0.05, executor.deadline_s / 4)
                    timeout = poll if timeout is None else min(timeout, poll)
                done, _ = wait(list(inflight), timeout=timeout,
                               return_when=FIRST_COMPLETED)
                broken: Optional[BaseException] = None
                broken_pos: Set[int] = set()
                for future in done:
                    pos = inflight.pop(future)
                    first_running.pop(future, None)
                    try:
                        payload = future.result()
                    except BrokenExecutor as exc:
                        # One raised it, but the whole wave is dead —
                        # handled together below so finished futures
                        # drain before anything is charged.
                        broken = exc
                        broken_pos.add(pos)
                    except Exception as exc:  # noqa: BLE001 — per cell
                        if isinstance(exc, _RETRYABLE):
                            charge(pos, exc)
                        else:
                            fail(pos, exc)
                    else:
                        land(pos, payload)
                if broken is not None:
                    self.discard_pool()
                    # No way to tell which cell killed the worker: every
                    # victim is charged one attempt.  A deterministic
                    # crasher exhausts its budget within `retries` waves;
                    # innocents ride along well inside theirs.
                    reclaim(broken, set(inflight.values()) | broken_pos)
                    for pos in broken_pos:
                        charge(pos, broken)
                    first_running.clear()
                    continue
                if executor.deadline_s is not None and inflight:
                    now = time.monotonic()
                    for future in inflight:
                        if future not in first_running and future.running():
                            first_running[future] = now
                    overdue = {inflight[future]
                               for future, seen in first_running.items()
                               if future in inflight
                               and now - seen >= executor.deadline_s}
                    if overdue:
                        exc_t = CellDeadlineExceeded(
                            f"cell exceeded its {executor.deadline_s:.3g}s "
                            f"deadline")
                        self._kill_pool()
                        reclaim(exc_t, overdue)
                        first_running.clear()
        except BaseException:
            # Interrupted mid-drain (Ctrl-C, a raising progress callback):
            # abandon what is left — everything finalised so far is cached.
            self.discard_pool()
            raise

