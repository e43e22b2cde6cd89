"""Reorder buffer: in-order commit of the decoupled VPU (§III, step 4).

Entries are micro-ops; hardware-generated swap operations do **not** occupy
ROB entries (they are a pre-issue artefact invisible to the architectural
instruction stream — the paper's Fig. 1 shows only the renamed instruction
reaching the ROB), but the pipeline still tracks their completion for the
issue rules.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List

from repro.core.uop import MicroOp, UopState


class ReorderBuffer:
    """Bounded in-order retirement queue."""

    __slots__ = ("capacity", "commit_width", "_entries", "total_committed",
                 "sanitizer")

    def __init__(self, capacity: int = 64, commit_width: int = 2) -> None:
        if capacity < 1:
            raise ValueError("ROB needs at least one entry")
        self.capacity = capacity
        self.commit_width = commit_width
        self._entries: Deque[MicroOp] = deque()
        self.total_committed = 0
        #: Optional sanitizer probe; retire() reports commits through it.
        self.sanitizer = None

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def allocate(self, uop: MicroOp) -> int:
        if self.full:
            raise RuntimeError("ROB full: rename must stall")
        uop.rob_index = self.total_committed + len(self._entries)
        self._entries.append(uop)
        return uop.rob_index

    def committable(self, now: int) -> List[MicroOp]:
        """Up to ``commit_width`` head entries whose execution finished."""
        ready: List[MicroOp] = []
        for uop in self._entries:
            if len(ready) >= self.commit_width:
                break
            if uop.state is UopState.DONE and uop.done_at <= now:
                ready.append(uop)
            else:
                break
        return ready

    def retire(self, uop: MicroOp) -> None:
        head = self._entries.popleft()
        if head is not uop:
            raise RuntimeError("out-of-order retire attempted")
        if self.sanitizer is not None:
            self.sanitizer.on_commit(uop)
        uop.state = UopState.COMMITTED
        self.total_committed += 1

    def __iter__(self) -> Iterator[MicroOp]:
        return iter(self._entries)
