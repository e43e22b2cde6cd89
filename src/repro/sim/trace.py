"""Instruction-level trace recording for pipeline debugging.

Attach a :class:`TraceRecorder` to a pipeline before running and it captures
one :class:`TraceEvent` per issued micro-op — rename/issue/completion
timestamps, the full VVR/physical mappings, and swap provenance.  The
recorder is how the repository's own debugging sessions inspected the Swap
Mechanism; it is part of the public API because anyone extending the
pipeline will want it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.uop import MicroOp
from repro.isa.instructions import Tag
from repro.vpu.pipeline import PipelineModel


@dataclass(frozen=True)
class TraceEvent:
    """One issued micro-op, flattened for inspection."""

    seq: int
    opcode: str
    tag: str
    vl: int
    src_vvrs: tuple
    dst_vvr: Optional[int]
    src_pregs: tuple
    dst_preg: Optional[int]
    renamed_at: int
    issued_at: int
    first_ready: int
    done_at: int

    @property
    def issue_latency(self) -> int:
        """Cycles from rename to issue (queueing + operand waits)."""
        return self.issued_at - self.renamed_at

    def describe(self) -> str:
        return (f"#{self.seq:<5d} {self.opcode:<10s} {self.tag:<6s} "
                f"vl={self.vl:<3d} "
                f"vvr {self.src_vvrs}->{self.dst_vvr} "
                f"preg {self.src_pregs}->{self.dst_preg} "
                f"ren@{self.renamed_at} iss@{self.issued_at} "
                f"done@{self.done_at}")


class TraceRecorder:
    """Captures every issue event of one pipeline run."""

    def __init__(self, pipeline: PipelineModel) -> None:
        self.events: List[TraceEvent] = []
        self._pipeline = pipeline
        self._original = pipeline._finish_issue

        def hooked(uop: MicroOp, occupancy: int, dead: int,
                   latency: int) -> None:
            self._original(uop, occupancy, dead, latency)
            self.events.append(self._snapshot(uop))

        pipeline._finish_issue = hooked  # type: ignore[method-assign]

    @staticmethod
    def _snapshot(uop: MicroOp) -> TraceEvent:
        return TraceEvent(
            seq=uop.seq,
            opcode=uop.inst.op.value,
            tag=uop.inst.tag.value,
            vl=uop.inst.vl,
            src_vvrs=uop.src_vvrs,
            dst_vvr=uop.dst_vvr,
            src_pregs=uop.src_pregs,
            dst_preg=uop.dst_preg,
            renamed_at=uop.renamed_at,
            issued_at=uop.issued_at,
            first_ready=uop.first_ready,
            done_at=uop.done_at,
        )

    # -- queries ------------------------------------------------------------
    def swaps(self) -> List[TraceEvent]:
        return [e for e in self.events if e.tag == Tag.SWAP.value]

    def for_vvr(self, vvr: int) -> List[TraceEvent]:
        """Every event touching a VVR (producer or consumer)."""
        return [e for e in self.events
                if e.dst_vvr == vvr or vvr in e.src_vvrs]

    def issue_order_is_per_uop_monotone(self) -> bool:
        """Sanity: timestamps are internally consistent for every event."""
        return all(e.renamed_at <= e.issued_at <= e.first_ready <= e.done_at
                   for e in self.events)

    def render(self, limit: int = 40) -> str:
        lines = [e.describe() for e in self.events[:limit]]
        if len(self.events) > limit:
            lines.append(f"... {len(self.events) - limit} more events")
        return "\n".join(lines)
