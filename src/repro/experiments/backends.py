"""Cell dispatch: *where* a batch's jobs run, split from *what* runs.

:class:`~repro.experiments.engine.CellExecutor` owns the semantic side of
a batch — cache scan, dedupe, result ordering, counters — and its one
persistent worker pool.  It dispatches a batch as one job per (workload,
compile signature) pair, each compiling its program and simulating its
cells, through one of two functions here, picked by ``jobs`` and the
number of jobs:

* :func:`run_inline` — in-process execution (no subprocess, no
  pickling), with the per-job ``SIGALRM`` deadline and the retry budget;
* :func:`run_pool` — the streaming dispatcher over the executor's
  :class:`concurrent.futures.ProcessPoolExecutor`, with the watchdog that
  kills hung workers, broken-pool reclamation and the same retry budget.
  Only the pool path imports :mod:`concurrent.futures`, so an inline
  or all-hit batch never loads it.

Both take the same ``(jobs_list, land, fail, progress, worker)``
contract: call ``worker((cell, arg, attempt))`` for each ``(cell, arg)``
job until it succeeds or fails for good, and finalise it through
``land``/``fail`` keyed by its *position*, never by completion order.
The executor's outputs are therefore byte-identical across ``--jobs``
values.  ``worker`` must be a module-level function, so the pool can
pickle it.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set,
                    Tuple)

from repro import faults

if TYPE_CHECKING:  # pragma: no cover — type names only, no import cycle
    from concurrent.futures import Future

    from repro.experiments.engine import CellExecutor, Progress

#: One dispatchable unit: ``(cell, worker argument)``.
Job = Tuple[Any, Any]
#: What runs one job: ``worker((cell, arg, attempt)) -> result``.
WorkerFn = Callable[[Tuple[Any, Any, int]], Any]
#: Finalisers the executor hands the dispatcher: position-keyed.
LandFn = Callable[[int, Any], None]
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
    """A job — one compile plus its cells — ran past the deadline.

    Pool mode: the watchdog observed the job RUNNING for longer than
    ``deadline_s`` and killed the worker pool out from under it (a hung
    future cannot be cancelled).  Inline mode: a ``SIGALRM`` timer
    interrupted the simulation or the compile.  Classified as an
    *infrastructure* failure — retried within the budget, never failed
    fast — because a hang is a property of the worker's environment
    (wedged filesystem, livelocked I/O), not of the cells.
    """


#: Failure types the retry budget covers: infrastructure faults (a
#: deadline-killed hang, transient I/O) where a fresh attempt can
#: plausibly succeed.  Deterministic cell exceptions — a raising
#: workload, a bad config — fail fast instead: retrying them burns the
#: budget reproducing the same traceback.  A dead pool worker
#: (``BrokenExecutor``) is retryable too, but only :func:`run_pool` can
#: see one, and it catches it on its own branch.
_RETRYABLE = (CellDeadlineExceeded, faults.TransientFaultError, OSError)


def _execute_deadlined(executor: "CellExecutor", worker: WorkerFn,
                       job: Tuple[Any, Any, int]) -> Any:
    """Inline execution under the per-job deadline (``SIGALRM``).

    The alarm only exists on the main thread of a POSIX process;
    anywhere else the deadline degrades to unenforced — inline jobs
    are the executor's own computation, and there is no second thread
    to cut them short from.
    """
    deadline = executor.deadline_s
    if (deadline is None or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        return worker(job)
    cell, attempt = job[0], job[2]

    def on_alarm(signum: int, frame: object) -> None:
        raise CellDeadlineExceeded(
            f"job of {cell.label()} exceeded its {deadline:.3g}s deadline "
            f"(attempt {attempt})")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        return worker(job)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_inline(executor: "CellExecutor", jobs_list: List[Job],
               land: LandFn, fail: FailFn, progress: "Progress",
               worker: WorkerFn) -> None:
    """Execute a batch in-process, with the same retry budget and
    deadline the pool path enforces."""
    for pos, (cell, arg) in enumerate(jobs_list):
        attempt = 0
        while True:
            try:
                payload = _execute_deadlined(executor, worker,
                                             (cell, arg, attempt))
            except Exception as exc:  # noqa: BLE001 — isolated per job
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


def run_pool(executor: "CellExecutor", jobs_list: List[Job], land: LandFn,
             fail: FailFn, progress: "Progress", worker: WorkerFn) -> None:
    """Submit every job, finalise each as it completes — and survive
    the infrastructure dying under the batch.

    Three failure channels feed the shared retry budget
    (``attempts[pos]`` counts *charged* failures per position; a job
    fails for real only once it exceeds the executor's ``retries``):

    * a **retryable worker exception** (transient I/O, an injected
      fault) charges that job and resubmits it after backoff;
    * a **broken pool** (OOM-killed / segfaulted worker) fails every
      in-flight future at once with no way to identify the culprit —
      futures that finished before the break are drained and cached
      first, then every victim is charged one attempt and resubmitted
      to a fresh pool;
    * a **deadline expiry** — the watchdog tracks when each future is
      first observed RUNNING and, once one overstays ``deadline_s``,
      kills the pool (a running future cannot be cancelled).  Only the
      overdue jobs are charged (and counted as timeouts); collateral
      in-flight jobs are resubmitted *uncharged*, attempt counts
      preserved — they did nothing wrong.

    Deterministic exceptions bypass the budget and fail fast.
    Everything that completed before an interruption was already
    cached by ``land``, so Ctrl-C keeps its resume-by-rerun contract.
    """
    from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait

    attempts = [0] * len(jobs_list)
    inflight: Dict[Future, int] = {}
    first_running: Dict[Future, float] = {}
    #: Positions waiting out a backoff (or a pool respawn):
    #: (monotonic resubmit time, position).
    delayed: List[Tuple[float, int]] = []

    def submit(pos: int) -> None:
        cell, arg = jobs_list[pos]
        job = (cell, arg, attempts[pos])
        try:
            future = executor._ensure_pool().submit(worker, job)
        except BrokenExecutor as exc:
            # The pool broke since the last drain (another worker
            # death): handle the wave right here — drain and charge
            # the stranded futures — so the replacement pool never
            # shares the in-flight map with a dead one.
            executor._discard_pool()
            reclaim(exc, set(inflight.values()))
            future = executor._ensure_pool().submit(worker, job)
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
                except Exception as exc:  # noqa: BLE001 — per job
                    if isinstance(exc, _RETRYABLE):
                        charge(pos, exc)
                    else:
                        fail(pos, exc)
                else:
                    land(pos, payload)
            if broken is not None:
                executor._discard_pool()
                # No way to tell which job killed the worker: every
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
                        f"job exceeded its {executor.deadline_s:.3g}s "
                        f"deadline")
                    executor._kill_pool()
                    reclaim(exc_t, overdue)
                    first_running.clear()
    except BaseException:
        # Interrupted mid-drain (Ctrl-C, a raising progress callback):
        # abandon what is left — everything finalised so far is cached.
        executor._discard_pool()
        raise

