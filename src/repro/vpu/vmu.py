"""Vector Memory Unit: 512-bit interface onto the L2 bus (Table II).

For each vector memory instruction the VMU produces an access plan: how
many interface beats the access occupies and how many extra stall cycles its
L2 misses contribute.  Planning performs the actual cache-state accesses, so
calling it is a timing side effect.

Miss handling separates *bandwidth* from *latency*, modelling the
memory-level parallelism of a streaming VMU: every missing line costs its
DRAM transfer slots on the interface (``fill_beats``, serialised — the
bandwidth bound), while the DRAM access latency is paid once per instruction
and overlaps with other work (``miss_latency``, added to the instruction's
completion, not to unit occupancy).  The unit is busy for ``beats +
fill_beats`` cycles of data movement.

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

from typing import Sequence, Tuple

from repro.isa.instructions import Instruction
from repro.isa.operands import MemOperand
from repro.isa.registers import ELEMENT_BYTES
from repro.memory.hierarchy import MemorySystem
from repro.sim.layout import MemoryLayout

_LINE = 64

#: ``(beats, fill_beats, miss_latency)`` of one vector memory instruction.
#: A plain tuple: the pipeline unpacks one per issued memory uop, and a
#: record class would cost a construction each.
AccessPlan = Tuple[int, int, int]


def access_stream(mem: MemOperand, base: int,
                  vl: int) -> Tuple[int, Sequence[int]]:
    """The interface beats and the byte-address stream of ``vl`` elements
    of ``mem`` starting at byte address ``base``: one address per beat."""
    if mem.indexed:
        # Deterministic worst case: one distinct line per element, so the
        # line-address sequence is an arithmetic progression.
        return vl, range(base, base + vl * _LINE, _LINE)
    if mem.stride == 1:
        first = base // _LINE
        last = (base + vl * ELEMENT_BYTES - 1) // _LINE
        return (last - first + 1,
                range(first * _LINE, (last + 1) * _LINE, _LINE))
    step = mem.stride * ELEMENT_BYTES
    if step:
        return vl, range(base, base + vl * step, step)
    # Degenerate stride: every element hits the same address.
    return vl, (base,) * vl


class VectorMemoryUnit:
    """Plans vector memory accesses against the shared L2."""

    __slots__ = ("memsys", "layout", "_line_transfer", "_dram_latency")

    def __init__(self, memsys: MemorySystem, layout: MemoryLayout) -> None:
        self.memsys = memsys
        self.layout = layout
        dram = memsys.dram.config
        self._line_transfer = dram.line_transfer
        self._dram_latency = dram.latency

    @property
    def first_element_latency(self) -> int:
        """Pipeline latency from issue to the first element (L2 hit path)."""
        return self.memsys.vector_first_latency

    def plan(self, inst: Instruction) -> AccessPlan:
        """Compute the :data:`AccessPlan` of ``inst`` (mutates cache state).

        Beat counts come from line-index span arithmetic — no per-element
        Python lists.  The L2 probes are inherently sequential (each one
        advances LRU state and the hit/miss counters the figures report), so
        the instruction's whole address stream goes to the L2 in one
        :meth:`~repro.memory.hierarchy.MemorySystem.vector_lines` call, which
        probes it in per-element order and returns the miss count.
        """
        mem = inst.mem
        assert mem is not None, "memory instruction without operand"
        beats, addrs = access_stream(mem, self.layout.base_addr(mem),
                                     inst.vl)
        misses = self.memsys.vector_lines(addrs, inst.is_store)
        if misses:
            return beats, misses * self._line_transfer, self._dram_latency
        return beats, 0, 0
