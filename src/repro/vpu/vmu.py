"""Vector Memory Unit: 512-bit interface onto the L2 bus (Table II).

For each vector memory instruction the VMU produces a
:class:`MemoryAccessPlan`: how many interface beats the access occupies and
how many extra stall cycles its L2 misses contribute.  Planning performs the
actual cache-state accesses, so calling it is a timing side effect.

Beat accounting:

* unit-stride — the access streams whole 512-bit lines: one beat per line
  the element span covers (8 × 64-bit elements per beat when aligned);
* strided — one beat per element (each beat carries one element; every
  element address is looked up in the L2);
* indexed — like strided, with addresses approximated as one distinct line
  per element (the deterministic worst case; real gathers in the evaluated
  kernels are cache-resident so the approximation only affects beat count,
  which is already per-element).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import Instruction
from repro.isa.registers import ELEMENT_BYTES
from repro.memory.hierarchy import MemorySystem
from repro.sim.layout import MemoryLayout

_LINE = 64


@dataclass(frozen=True, slots=True)
class MemoryAccessPlan:
    """Timing consequences of one vector memory instruction.

    Miss handling separates *bandwidth* from *latency*, modelling the
    memory-level parallelism of a streaming VMU: every missing line costs its
    DRAM transfer slots on the interface (``fill_beats``, serialised — the
    bandwidth bound), while the DRAM access latency is paid once per
    instruction and overlaps with other work (``miss_latency``, added to the
    instruction's completion, not to unit occupancy).
    """

    beats: int
    misses: int
    fill_beats: int
    miss_latency: int
    lines_touched: int

    @property
    def occupancy(self) -> int:
        """Memory-unit busy cycles contributed by data movement."""
        return self.beats + self.fill_beats


class VectorMemoryUnit:
    """Plans vector memory accesses against the shared L2."""

    __slots__ = ("memsys", "layout")

    def __init__(self, memsys: MemorySystem, layout: MemoryLayout) -> None:
        self.memsys = memsys
        self.layout = layout

    @property
    def first_element_latency(self) -> int:
        """Pipeline latency from issue to the first element (L2 hit path)."""
        return self.memsys.vector_first_latency

    def plan(self, inst: Instruction) -> MemoryAccessPlan:
        """Compute the access plan for ``inst`` (mutates cache state).

        Beat and unique-line counts come from line-index span arithmetic
        (the line indices of every access are a monotonic progression, so
        their distinct count is closed-form) — no per-element Python lists.
        The L2 probes are inherently sequential (each one advances LRU state
        and the hit/miss counters the figures report), so the instruction's
        whole address stream goes to the L2 in one
        :meth:`~repro.memory.hierarchy.MemorySystem.vector_lines` call, which
        probes it in per-element order and returns the miss count.
        """
        mem = inst.mem
        assert mem is not None, "memory instruction without operand"
        write = inst.is_store
        base = self.layout.base_addr(mem)
        vl = inst.vl

        if mem.indexed:
            # Deterministic worst case: one distinct line per element, so
            # the line-address sequence is an arithmetic progression and
            # every element touches its own line.
            addrs = range(base, base + vl * _LINE, _LINE)
            beats = vl
            lines = vl
        elif mem.stride == 1:
            first = base // _LINE
            last = (base + vl * ELEMENT_BYTES - 1) // _LINE
            beats = last - first + 1
            addrs = range(first * _LINE, (last + 1) * _LINE, _LINE)
            lines = beats
        else:
            step = mem.stride * ELEMENT_BYTES
            beats = vl
            if step:
                addrs = range(base, base + vl * step, step)
                # A step of a line or more gives every element its own
                # line; a shorter one visits every line between the first
                # and the last element's.
                if abs(step) >= _LINE:
                    lines = vl
                else:
                    lines = abs((base + (vl - 1) * step) // _LINE
                                - base // _LINE) + 1
            else:  # degenerate stride: every element hits the same address
                addrs = (base,) * vl
                lines = 1

        misses = self.memsys.vector_lines(addrs, write)
        dram = self.memsys.dram.config
        return MemoryAccessPlan(
            beats=beats,
            misses=misses,
            fill_beats=misses * dram.line_transfer,
            miss_latency=dram.latency if misses else 0,
            lines_touched=lines)
