"""Deterministic fault injection for chaos-testing the execution stack.

Long-running sweeps meet real infrastructure faults: workers OOM-killed
mid-cell, cells that hang on a wedged filesystem, cache writes that hit
ENOSPC or a directory gone read-only, entries silently corrupted by bit
rot.  The engine claims to degrade gracefully under all of them — this
module makes that claim *testable* by injecting every one of those faults
on demand, deterministically, from a seed.

A :class:`FaultPlan` is a list of :class:`FaultSpec` triggers:

* **cell faults** (``worker-crash`` / ``cell-hang`` / ``slow-cell``) fire
  inside :func:`repro.experiments.engine._run_pair` before each miss key
  simulates or reuses a run, matched by cell
  label and gated by the attempt number of the cell's pair job — a crash
  spec gated on attempt 0 kills the job's first execution and lets the
  retry through, which is exactly the transient-infrastructure-fault
  shape the retry budget exists for;
* **cache faults** (``cache-corrupt`` / ``cache-enospc`` /
  ``cache-readonly``) fire inside :meth:`repro.cachefs.AtomicJsonStore.
  put`, matched by store site (``results`` / ``traces``) and gated by the
  ordinal of the matching write.

The active plan propagates to pool workers through the
:data:`FAULT_PLAN_ENV` environment variable (and, under the default
``fork`` start method, through the inherited module global), so one
:func:`install` covers inline execution, the parent's cache writes and
every worker process.

Faults are *injected* errors, so they never import anything from the rest
of the package: the engine and cache layers consult this module, never
the other way around.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

#: Environment variable carrying the active plan's JSON to pool workers.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: The exit code an injected worker crash dies with (recognisable in CI
#: logs; any nonzero code breaks the pool the same way the OOM killer
#: does).
CRASH_EXIT_CODE = 87

WORKER_CRASH = "worker-crash"
CELL_HANG = "cell-hang"
SLOW_CELL = "slow-cell"
CACHE_CORRUPT = "cache-corrupt"
CACHE_ENOSPC = "cache-enospc"
CACHE_READONLY = "cache-readonly"

#: Faults that fire at cell-execution time (in the worker, or inline).
CELL_KINDS = (WORKER_CRASH, CELL_HANG, SLOW_CELL)
#: Faults that fire at cache-write time (wherever the store lives).
CACHE_KINDS = (CACHE_CORRUPT, CACHE_ENOSPC, CACHE_READONLY)

ALL_KINDS = CELL_KINDS + CACHE_KINDS

#: The infrastructure-fault taxonomy: exception type *names* the cell
#: dispatchers may treat as retry-eligible.  Everything else that escapes a
#: cell is a simulation bug — retrying it would recompute the same wrong
#: answer (or mask nondeterminism), so the F002 lint rule rejects retry
#: tuples that stray outside this set.  Names, not classes: the dispatchers'
#: own exception types (``CellDeadlineExceeded``) and stdlib pool failures
#: (``BrokenExecutor``) must not be imported here just to be listed.
INFRASTRUCTURE_FAULT_NAMES = frozenset({
    "TransientFaultError",   # this module's injected transient fault
    "BrokenExecutor",        # concurrent.futures pool collapse
    "CellDeadlineExceeded",  # per-job wall-clock deadline (dispatch)
    "OSError",               # I/O flakes: ENOSPC, EIO, dropped mounts
    "TimeoutError",          # stdlib sibling of the deadline class
    "ConnectionError",       # remote-executor transport failures
})


class TransientFaultError(RuntimeError):
    """An injected *infrastructure* fault: retryable by contract.

    Raised in place of a hard worker kill when the faulted cell executes
    inline (``jobs=1``) — ``os._exit`` in the parent would take the whole
    CLI (or the test process) down, which is not the failure mode under
    test.  The engine classifies it with ``BrokenExecutor`` and deadline
    timeouts: retried with backoff, never failed fast.
    """


@dataclass
class FaultSpec:
    """One trigger: what to inject, where, and how often.

    ``match`` is a substring filter — against the cell label for
    :data:`CELL_KINDS`, against the content key for :data:`CACHE_KINDS`
    (empty matches everything).  ``site`` narrows cache faults to one
    store (``"results"`` / ``"traces"``).  ``attempt`` gates cell faults
    to specific attempt numbers (the deterministic-retry contract: a
    crash on attempt 0 with a clean attempt 1 *must* end in success);
    ``None`` fires on every attempt, which models a deterministic
    infrastructure failure and must exhaust the retry budget instead of
    looping.  ``ordinal`` gates cache faults to the Nth matching write
    (0-based).  ``times`` caps firings per process.
    """

    kind: str
    match: str = ""
    site: str = ""
    attempt: Union[int, List[int], None] = 0
    ordinal: Optional[int] = None
    times: int = 1
    delay_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {ALL_KINDS}")

    def matches_attempt(self, attempt: int) -> bool:
        if self.attempt is None:
            return True
        if isinstance(self.attempt, int):
            return attempt == self.attempt
        return attempt in self.attempt


@dataclass
class FaultPlan:
    """A seed plus its triggers, with per-process firing state.

    The spec list is the serialized contract; the counters (`fired`,
    per-spec call ordinals) are runtime state local to each process —
    workers forked from the parent start from the parent's counters,
    freshly-spawned ones from zero, and neither matters for determinism
    because the seeded plans gate cell faults on (label, attempt), which
    is identical in every process.
    """

    seed: int = 0
    specs: List[FaultSpec] = field(default_factory=list)
    _fired: List[int] = field(default_factory=list, repr=False)
    _calls: List[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self._fired = [0] * len(self.specs)
        self._calls = [0] * len(self.specs)

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "specs": [{"kind": s.kind, "match": s.match, "site": s.site,
                           "attempt": s.attempt, "ordinal": s.ordinal,
                           "times": s.times, "delay_s": s.delay_s}
                          for s in self.specs]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise ValueError("a fault plan must be a JSON object")
        specs = [FaultSpec(**spec) for spec in payload.get("specs", [])]
        return cls(seed=int(payload.get("seed", 0)), specs=specs)

    @classmethod
    def from_json(cls, blob: str) -> "FaultPlan":
        try:
            payload = json.loads(blob)
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def describe(self) -> str:
        """One compact human-readable line, for the chaos report."""
        parts = []
        for spec in self.specs:
            target = spec.match or spec.site or "*"
            gate = ""
            if spec.kind in CELL_KINDS and spec.attempt is not None:
                gate = f"@attempt{spec.attempt}"
            elif spec.kind in CACHE_KINDS and spec.ordinal is not None:
                gate = f"@write{spec.ordinal}"
            parts.append(f"{spec.kind}({target}{gate})")
        return " + ".join(parts) if parts else "no faults"

    # -- firing ----------------------------------------------------------------
    def fire_cell(self, label: str, attempt: int, in_worker: bool) -> None:
        """Apply every armed cell fault matching (label, attempt).

        A crash in a pool worker hard-exits the process (indistinguishable
        from the OOM killer); inline it raises
        :class:`TransientFaultError` so the caller survives to retry.
        Hangs and slow cells sleep — a hang for longer than any sane
        deadline (the watchdog is expected to cut it short), a slow cell
        for its configured delay.
        """
        for i, spec in enumerate(self.specs):
            if spec.kind not in CELL_KINDS:
                continue
            if spec.match and spec.match not in label:
                continue
            if not spec.matches_attempt(attempt):
                continue
            if self._fired[i] >= spec.times:
                continue
            self._fired[i] += 1
            if spec.kind == SLOW_CELL:
                time.sleep(spec.delay_s)
            elif spec.kind == CELL_HANG:
                time.sleep(spec.delay_s)
            elif spec.kind == WORKER_CRASH:
                if in_worker:
                    os._exit(CRASH_EXIT_CODE)
                raise TransientFaultError(
                    f"injected worker crash for {label} "
                    f"(attempt {attempt})")

    def cache_fault(self, site: str, key: str) -> Optional[str]:
        """The fault kind a store write should suffer, or ``None``.

        Every matching spec's call ordinal advances on every consult
        (that is what makes ``ordinal`` deterministic: it counts matching
        writes, fired or not); the first spec whose gates all pass wins.
        """
        fired: Optional[str] = None
        for i, spec in enumerate(self.specs):
            if spec.kind not in CACHE_KINDS:
                continue
            if spec.site and spec.site != site:
                continue
            if spec.match and spec.match not in key:
                continue
            call = self._calls[i]
            self._calls[i] = call + 1
            if spec.ordinal is not None and call != spec.ordinal:
                continue
            if self._fired[i] >= spec.times:
                continue
            if fired is None:
                self._fired[i] += 1
                fired = spec.kind
        return fired


def seeded_plan(seed: int, labels: Sequence[str], *,
                hang_s: float = 30.0, slow_s: float = 0.1) -> FaultPlan:
    """The standard chaos mix, chosen deterministically from ``seed``.

    Always arms one worker crash, one cell hang and one slow cell (on
    labels drawn from the grid), plus one corrupted result write and one
    ENOSPC result write on distinct write ordinals — the acceptance mix
    (≥1 kill, ≥1 hang, ≥1 corruption, ≥1 ENOSPC).  Identical seeds and
    labels produce identical plans in every process.
    """
    distinct = list(dict.fromkeys(labels))
    if not distinct:
        raise ValueError("seeded_plan needs at least one cell label")
    rng = random.Random(seed)
    picks = distinct[:]
    rng.shuffle(picks)
    crash = picks[0]
    hang = picks[1 % len(picks)]
    slow = picks[2 % len(picks)]
    n_writes = max(len(labels), 2)
    corrupt_at, enospc_at = rng.sample(range(n_writes), 2)
    return FaultPlan(seed=seed, specs=[
        FaultSpec(kind=WORKER_CRASH, match=crash, attempt=0),
        # The hang stays armed over the first three attempts: a crash
        # wave (charged, attempt bumped) may consume attempt 0 — and a
        # second wave attempt 1 — before the cell is ever observed
        # running, and the plan must still hang it long enough for the
        # watchdog to prove itself.  Crash specs fire on attempt 0 only,
        # so at most two waves can occur; by attempt 2 the hang always
        # reaches the deadline, and a default budget of 3 retries always
        # outlasts it.
        FaultSpec(kind=CELL_HANG, match=hang, attempt=[0, 1, 2],
                  delay_s=hang_s),
        FaultSpec(kind=SLOW_CELL, match=slow, attempt=0, delay_s=slow_s),
        FaultSpec(kind=CACHE_CORRUPT, site="results", ordinal=corrupt_at),
        FaultSpec(kind=CACHE_ENOSPC, site="results", ordinal=enospc_at),
    ])


# ---------------------------------------------------------------------------
# plan activation
# ---------------------------------------------------------------------------
_ACTIVE: Optional[FaultPlan] = None
_ENV_MEMO: Tuple[str, Optional[FaultPlan]] = ("", None)


def install(plan: FaultPlan) -> None:
    """Activate ``plan`` for this process and (via the environment) every
    worker process created afterwards."""
    global _ACTIVE
    _ACTIVE = plan
    os.environ[FAULT_PLAN_ENV] = plan.to_json()


def uninstall() -> None:
    """Deactivate fault injection (idempotent)."""
    global _ACTIVE, _ENV_MEMO
    _ACTIVE = None
    _ENV_MEMO = ("", None)
    os.environ.pop(FAULT_PLAN_ENV, None)


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """``with injected(plan): ...`` — install, then always uninstall."""
    install(plan)
    try:
        yield plan
    finally:
        uninstall()


def active_plan() -> Optional[FaultPlan]:
    """The plan in force for this process, or ``None``.

    An explicitly installed plan wins; otherwise the environment variable
    is consulted (that is how spawned pool workers inherit the parent's
    plan) and parsed once per distinct value.  A malformed value is
    ignored — fault injection must never be able to break a run it was
    not even meant to touch.
    """
    if _ACTIVE is not None:
        return _ACTIVE
    blob = os.environ.get(FAULT_PLAN_ENV)
    if not blob:
        return None
    global _ENV_MEMO
    if _ENV_MEMO[0] != blob:
        try:
            plan: Optional[FaultPlan] = FaultPlan.from_json(blob)
        except (ValueError, TypeError):
            plan = None
        _ENV_MEMO = (blob, plan)
    return _ENV_MEMO[1]
