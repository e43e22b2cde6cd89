"""The in-flight micro-op record annotated by each pipeline stage.

A :class:`MicroOp` wraps one immutable :class:`~repro.isa.instructions.Instruction`
with everything the pipeline learns about it: VVR mappings from first-level
rename, physical registers from pre-issue, swap-rule dependencies, and the
execution timestamps the chaining model produces.

Ordering invariant (the basis of the pipeline's deadlock freedom):
``seq`` numbers micro-ops by **issue-queue entry order** (hardware swap
operations enter the memory queue before the instruction they serve, so they
get smaller sequence numbers than it even though they are created during its
pre-issue).  Every dependency recorded on a micro-op — producers, swap-store
guards, swap-load reader sets — references a strictly earlier entrant
(``dep.seq < self.seq``); :meth:`MicroOp.validate_ordering` checks this when
the micro-op enters its queue (the scheduler's pre-issue runs the same check
inside its producer loop), which is what makes pipeline deadlock
structurally impossible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.isa.instructions import Instruction


class UopState(enum.Enum):
    RENAMED = "renamed"
    PRE_ISSUED = "pre-issued"  # second-level mapping done, in an issue queue
    ISSUED = "issued"  # executing
    DONE = "done"  # result fully written back
    COMMITTED = "committed"


def ordering_error(seq: int, dep_seq: int) -> AssertionError:
    """The error for uop ``seq`` depending on a uop that did not enter an
    issue queue before it (shared by :meth:`MicroOp.validate_ordering` and
    the scheduler's inlined pre-issue check)."""
    return AssertionError(
        f"dependency ordering violated: uop#{seq} depends on uop#{dep_seq}")


@dataclass(slots=True, eq=False)
class MicroOp:
    """One vector instruction in flight.

    ``slots=True``: simulations create one of these per dynamic instruction
    and the pipeline probes their fields on every evaluated cycle, so the
    per-instance dict is pure overhead.  ``eq=False``: equality and hashing
    are identity, so ``in`` / ``remove`` on the pipeline's reader and swap
    lists find that exact object without comparing every field.  The
    fields rename fills come first, so rename passes them positionally.
    """

    inst: Instruction

    # -- first-level rename (logical -> VVR) ---------------------------------
    src_vvrs: Tuple[int, ...] = ()
    dst_vvr: Optional[int] = None
    old_dst_vvr: Optional[int] = None
    renamed_at: int = -1  # VPU cycle of first-level rename

    seq: int = -1  # issue-queue entry order; -1 until the uop enters a queue
    state: UopState = UopState.RENAMED
    #: True for Swap-Stores inserted at the memory-queue *front* to free a
    #: register for an issuing instruction; they depend on nothing and are
    #: exempt from entry-order accounting.
    priority: bool = False

    # -- second-level mapping (VVR -> physical register) ---------------------
    src_pregs: Tuple[int, ...] = ()
    dst_preg: Optional[int] = None

    # -- dependencies ---------------------------------------------------------
    #: producers of each source's value (None = value already valid).
    producers: List[Optional["MicroOp"]] = field(default_factory=list)
    #: Swap-Store that must complete before this op may overwrite its dst preg
    #: (paper issue rule 1).
    store_guard: Optional["MicroOp"] = None
    #: older readers of the evicted value that must finish before a Swap-Load
    #: overwrites the physical register (paper issue rule 2).
    reader_guards: List["MicroOp"] = field(default_factory=list)

    # -- execution timestamps (VPU cycles) ------------------------------------
    issued_at: int = -1
    first_ready: int = -1  # first result element available for chaining
    done_at: int = -1  # last element written back (valid bit set)

    # -- bookkeeping ----------------------------------------------------------
    rob_index: int = -1
    #: VVR renaming generation a swap operation was created for; if the
    #: generation died before the op executes, its data movement is squashed.
    swap_gen: int = -1
    #: Sum of the sources' :class:`~repro.core.vrf_mapping.VRFMapping`
    #: per-VVR residency versions at which this uop's issue-time operand
    #: resolution last completed; while every source's version is unchanged
    #: (versions only grow, so the sum detects that) the scheduler skips
    #: re-resolving — sources cannot have moved.  -1 = never resolved.
    resolved_version: int = -1
    #: Same residency-version sum, taken when pre-issue last stalled on this
    #: uop; while it is unchanged the stall outcome cannot have changed and
    #: the scheduler only re-counts the stall.  -1 = no memoized stall.
    preissue_stall_version: int = -1
    #: Which pre-issue stall was memoized: 0 = waiting on an unissued
    #: producer (source has no physical register yet), 1 = target issue
    #: queue full at dispatch step C.
    preissue_stall_kind: int = 0
    #: Memoized earliest-ready wake-up (the scheduler's cached
    #: ``_head_wait_time``): -2.0 = no memo; -1.0 = known-unknown (some
    #: dependency has not issued), valid while ``wake_stamp`` matches the
    #: pipeline's issue stamp; >= 0.0 = final (every dependency issued, so
    #: its ``issued_at`` can never change again).  Any dependency-set
    #: mutation (attach / producer rebuild / pruning) resets the memo.
    wake_at: float = -2.0
    wake_stamp: int = -1

    def attach_producer(self, producer: Optional["MicroOp"]) -> None:
        self.producers.append(producer)
        self.wake_at = -2.0

    def attach_store_guard(self, guard: "MicroOp") -> None:
        self.store_guard = guard
        self.wake_at = -2.0

    def attach_reader_guard(self, reader: "MicroOp") -> None:
        self.reader_guards.append(reader)
        self.wake_at = -2.0

    def validate_ordering(self) -> None:
        """Assert every dependency entered an issue queue before this uop.

        Called when the uop receives its queue-entry ``seq``; together with
        per-queue in-order issue this guarantees the wait graph is acyclic.
        """
        seq = self.seq
        if seq < 0:
            raise AssertionError("validate_ordering before seq assignment")
        # Plain loops, not a comprehension: this runs once per uop, and
        # CPython 3.11 gives every comprehension a frame of its own.
        for deps in (self.producers, self.reader_guards, (self.store_guard,)):
            for dep in deps:
                if dep is None or dep.priority:
                    continue  # front-inserted Swap-Stores depend on nothing
                if dep.seq < 0 or dep.seq >= seq:
                    raise ordering_error(seq, dep.seq)

    def describe(self) -> str:
        return (f"uop#{self.seq} [{self.state.value}] {self.inst.describe()} "
                f"vvrs={self.src_vvrs}->{self.dst_vvr} "
                f"pregs={self.src_pregs}->{self.dst_preg}")
