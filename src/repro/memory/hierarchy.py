"""The memory system the VPU sees: Table II's L2 and DRAM.

The Vector Memory Unit (VMU) bypasses the L1 caches and talks to the L2
directly over a 512-bit interface, so the one entry point here is
:meth:`MemorySystem.vector_lines`: the whole line-address stream of one
vector memory instruction, one 512-bit beat per address, streamed into the
L2 in order.  It returns the stream's L2 miss count and charges the DRAM
for the misses' line fills and for the dirty lines they evict.

The L1s are not modelled: the scalar core is the analytical
:func:`repro.scalar.core.loop_scalar_cycles`, and Fig. 4 prices the L1
areas from :class:`repro.power.technology.Technology` constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.memory.cache import Cache, CacheConfig
from repro.memory.dram import Dram, DramConfig


@dataclass(frozen=True)
class MemorySystemConfig:
    """Geometry/latency bundle; defaults reproduce Table II."""

    l2: CacheConfig = CacheConfig("L2", 1024 * 1024, 64, 16, latency=12)
    dram: DramConfig = DramConfig()

    def __post_init__(self) -> None:
        # The CacheConfig/DramConfig members validate themselves on
        # construction; what remains is the composition.
        if not isinstance(self.l2, CacheConfig):
            raise TypeError(
                f"expected a CacheConfig, got {type(self.l2).__name__}")
        if not isinstance(self.dram, DramConfig):
            raise TypeError(
                f"expected a DramConfig, got {type(self.dram).__name__}")


class MemorySystem:
    """Unified L2 + DRAM, shared by timing and energy models."""

    __slots__ = ("config", "l2", "dram")

    def __init__(self, config: MemorySystemConfig | None = None) -> None:
        self.config = config or MemorySystemConfig()
        self.l2 = Cache(self.config.l2)
        self.dram = Dram(self.config.dram)

    def vector_lines(self, addrs: Iterable[int], write: bool) -> int:
        """Stream one VMU beat per byte address of ``addrs`` into the L2.

        Returns the number of L2 misses.  The DRAM is charged one line read
        per miss (write-allocate fills the line either way) and one line
        write per dirty line evicted.  Writebacks are counted, not timed:
        the VMU's ``fill_beats`` model fills only.  How the miss latency and
        transfer cost surface in the pipeline (bandwidth-serialised fill
        beats, once-per-instruction latency) is the VMU's concern — see
        :meth:`repro.vpu.vmu.VectorMemoryUnit.plan`.
        """
        l2, dram = self.l2, self.dram
        writebacks = l2.stats.writebacks
        misses = l2.access_lines(addrs, write)
        dram.line_reads += misses
        dram.line_writes += l2.stats.writebacks - writebacks
        return misses

    @property
    def vector_first_latency(self) -> int:
        """Pipeline latency from VMU issue to first element (L2 hit path)."""
        return self.config.l2.latency

    def reset_stats(self) -> None:
        self.l2.stats.reset()
        self.dram.reset()
