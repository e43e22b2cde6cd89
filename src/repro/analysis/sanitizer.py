"""Dynamic microarchitectural sanitizer: a TSan-analog for the simulated VPU.

Enabled via ``Simulator(..., sanitize=True)`` (or ``repro figure3
--sanitize``), a :class:`PipelineSanitizer` rides along with either pipeline
implementation and checks invariants the equivalence suite can only observe
indirectly:

* **VRF read-before-write** — a physical register allocated as a
  destination must be written (by its producer's issue-time execute, or by a
  Swap-Load's ``swap_in``) before any micro-op reads it.  The only legal
  unwritten read is the SRAM reset state of a never-defined source, which
  the pre-issue stage classifies explicitly.
* **Double-write-per-cycle** — no physical register takes two write-port
  accesses in the same cycle (the banks are 4R/2W per *lane*, but one
  register never has two same-cycle writers under the rename discipline).
* **Swap-Store read ordering** — a register freed by eviction with a
  Swap-Store in flight must not be overwritten by its new owner before the
  store's streaming read happened (issue rule 1 made observable).
* **ROB in-order commit** — committed micro-ops carry strictly sequential
  ``rob_index`` stamps and are DONE at commit time.
* **RAT mapping consistency** — the speculative RAT stays injective and
  disjoint from the FRL after every rename.
* **VRF mapping consistency** — :meth:`VRFMapping.invariant_check` runs on
  every residency transition, not just at test boundaries.
* **Single-level runs never swap** — a machine whose ``two_level`` is
  false holds every VVR in its P-VRF, so its run ends with no Swap-Load or
  Swap-Store.  The result cache keys such a machine with its swap-only
  knobs at their defaults (:meth:`repro.sim.scenario.Scenario.simulated`),
  and this end-of-run check is where that premise is tested.

The sanitizer is wired through two kinds of probe points: ``sanitizer``
attributes on the core structures (:class:`VRFMapping`,
:class:`ReorderBuffer`, :class:`RenameTable`, :class:`TwoLevelVRF`) for the
operations both pipelines route through method calls, and direct hooks in
the pipeline stage methods for the paths the event-driven scheduler inlines
(commit, rename, the counters-only execute fast paths).  Every hook site is
guarded by a single ``is not None`` test, so a non-sanitizing run pays one
attribute check per uop-event and nothing else.

Violations raise :class:`SanitizerError` immediately (first finding wins)
with the cycle, the offending micro-op and the check name attached.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

# Physical-register value states.
_AWAIT_WRITE = 0  # allocated as a destination; producer has not executed
_READABLE = 1  # written, or explicitly classified as legal reset-state


class SanitizerError(RuntimeError):
    """A microarchitectural invariant violation caught by the sanitizer.

    Attributes:
        check: short name of the violated invariant.
        cycle: simulated cycle at which the violation was observed.
        uop: ``describe()`` string of the involved micro-op, if any.
    """

    def __init__(self, check: str, cycle: int, detail: str,
                 uop: Optional[str] = None, label: str = "") -> None:
        self.check = check
        self.cycle = cycle
        self.uop = uop
        where = f" [{label}]" if label else ""
        who = f" uop={uop}" if uop else ""
        super().__init__(
            f"sanitizer:{check}{where} at cycle {cycle}:{who} {detail}")


class PipelineSanitizer:
    """Shadow state and invariant checks for one pipeline instance."""

    __slots__ = ("label", "two_level", "_clock", "_rat", "_mapping",
                 "_preg", "_last_write", "_pending_swap_reads", "_commits",
                 "checks_run")

    def __init__(self, label: str = "", two_level: bool = True) -> None:
        self.label = label
        #: The machine's ``two_level``: a single-level run must not swap.
        self.two_level = two_level
        self._clock: Callable[[], int] = lambda: -1
        self._rat = None
        self._mapping = None
        # preg -> _AWAIT_WRITE / _READABLE shadow state.
        self._preg: Dict[int, int] = {}
        # preg -> cycle of its most recent write (double-write check).
        self._last_write: Dict[int, int] = {}
        # preg -> number of emitted-but-unexecuted Swap-Stores that must
        # stream the old value out before any new owner writes it.
        self._pending_swap_reads: Dict[int, int] = {}
        self._commits = 0
        #: Total invariant evaluations, reported as evidence that a clean
        #: run actually checked something.
        self.checks_run = 0

    def bind(self, clock: Callable[[], int], rat=None, mapping=None) -> None:
        """Attach the pipeline's clock and the structures scanned whole."""
        self._clock = clock
        self._rat = rat
        self._mapping = mapping

    # -- helpers ---------------------------------------------------------------
    def _fail(self, check: str, detail: str, uop=None) -> None:
        described = uop.describe() if uop is not None else None
        raise SanitizerError(check, self._clock(), detail, uop=described,
                             label=self.label)

    # -- VRF mapping probes (fired from VRFMapping itself) ---------------------
    def on_map_alloc(self, vvr: int, preg: int) -> None:
        self.checks_run += 1
        if self._mapping is not None:
            self._mapping.invariant_check()
        # Default classification: a fresh mapping awaits its producer's
        # write.  The pre-issue never-defined-source path overrides this
        # with on_reset_alloc (reading the SRAM reset state is legal).
        self._preg[preg] = _AWAIT_WRITE

    def on_map_evict(self, vvr: int, preg: int) -> None:
        self.checks_run += 1
        if self._mapping is not None:
            self._mapping.invariant_check()
        self._preg.pop(preg, None)

    def on_map_release(self, vvr: int, preg: Optional[int]) -> None:
        self.checks_run += 1
        if self._mapping is not None:
            self._mapping.invariant_check()
        if preg is not None:
            self._preg.pop(preg, None)

    def on_reset_alloc(self, preg: int) -> None:
        """Pre-issue classified this register as a legal reset-state read."""
        self._preg[preg] = _READABLE

    # -- execute-path hooks (fired from the pipeline stage methods) ------------
    def on_execute(self, uop) -> None:
        """Record the issue-time VRF traffic of a regular (non-swap) uop."""
        now = self._clock()
        for preg in uop.src_pregs:
            self._read(preg, uop, now)
        inst = uop.inst
        if inst.is_arith or inst.is_load:
            self._write(uop.dst_preg, uop, now)

    def _read(self, preg: int, uop, now: int) -> None:
        self.checks_run += 1
        state = self._preg.get(preg)
        if state is None:
            self._fail("vrf-read-unmapped",
                       f"read of physical register {preg} which holds no "
                       f"live mapping", uop)
        elif state == _AWAIT_WRITE:
            self._fail("vrf-read-before-write",
                       f"physical register {preg} read before its "
                       f"producer wrote it", uop)

    def _write(self, preg: int, uop, now: int) -> None:
        self.checks_run += 1
        if self._pending_swap_reads.get(preg, 0) > 0:
            self._fail("swap-store-overwrite",
                       f"physical register {preg} written while an emitted "
                       f"Swap-Store has not yet streamed the old value out",
                       uop)
        if self._last_write.get(preg) == now:
            self._fail("vrf-double-write",
                       f"physical register {preg} written twice in the "
                       f"same cycle", uop)
        self._last_write[preg] = now
        self._preg[preg] = _READABLE

    # -- swap data movement (fired from TwoLevelVRF + squash hooks) ------------
    def on_swap_store_emitted(self, preg: int) -> None:
        pending = self._pending_swap_reads
        pending[preg] = pending.get(preg, 0) + 1

    def on_swap_out(self, vvr: int, preg: int) -> None:
        """A Swap-Store streamed the evicted value out of ``preg``."""
        self.checks_run += 1
        pending = self._pending_swap_reads
        count = pending.get(preg, 0)
        if count <= 0:
            self._fail("swap-store-unexpected",
                       f"Swap-Store read of physical register {preg} "
                       f"without a recorded emission (VVR {vvr})")
        pending[preg] = count - 1

    def on_swap_squashed(self, preg: int) -> None:
        """A Swap-Store's generation died in flight; its read never happens."""
        self.checks_run += 1
        pending = self._pending_swap_reads
        count = pending.get(preg, 0)
        if count <= 0:
            self._fail("swap-store-unexpected",
                       f"Swap-Store squash on physical register {preg} "
                       f"without a recorded emission")
        pending[preg] = count - 1

    def on_swap_in(self, vvr: int, preg: int) -> None:
        """A Swap-Load streamed the M-VRF value into ``preg``: a write."""
        self._write(preg, None, self._clock())

    # -- commit / rename -------------------------------------------------------
    def on_commit(self, uop) -> None:
        self.checks_run += 1
        now = self._clock()
        if uop.rob_index != self._commits:
            self._fail("rob-out-of-order",
                       f"committed rob_index {uop.rob_index}, expected "
                       f"{self._commits} (commits are sequential)", uop)
        self._commits += 1
        if uop.done_at > now:
            self._fail("rob-early-commit",
                       f"committed before completion (done_at="
                       f"{uop.done_at})", uop)

    def on_rename(self) -> None:
        self.checks_run += 1
        rat = self._rat
        if rat is None:
            return
        mapped = rat._rat
        if len(set(mapped)) != len(mapped):
            self._fail("rat-aliased",
                       "two logical registers map to the same VVR in the "
                       "speculative RAT")
        free = set(rat._frl)
        if len(free) != len(rat._frl):
            self._fail("rat-frl-duplicate", "duplicate VVR in the FRL")
        overlap = free.intersection(mapped)
        if overlap:
            self._fail("rat-frl-live",
                       f"VVRs {sorted(overlap)} are both mapped and free")

    # -- end of run ------------------------------------------------------------
    def on_run_end(self, stats) -> None:
        self.checks_run += 1
        if not self.two_level and stats.swap_insts:
            self._fail("single-level-swap",
                       f"a single-level machine issued "
                       f"{stats.swap_loads} swap-loads and "
                       f"{stats.swap_stores} swap-stores")
