"""The composed memory system of Table II.

The Vector Memory Unit (VMU) bypasses the L1 caches and talks to the L2
directly over a 512-bit interface, so the central entry point here is
:meth:`MemorySystem.vector_lines`: the whole line-address stream of one
vector memory instruction, one 512-bit beat per address, streamed into the
L2 in order.  It returns the stream's L2 miss count and charges the DRAM
for the misses' line fills and for the dirty lines they evict.

The scalar side (L1I/L1D) only matters for the scalar-core overhead model
and the area/energy accounting, but it is a real cache pair and is exercised
by the scalar-block cost model and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.memory.cache import Cache, CacheConfig
from repro.memory.dram import Dram, DramConfig


@dataclass(frozen=True)
class MemorySystemConfig:
    """Geometry/latency bundle; defaults reproduce Table II."""

    l1i: CacheConfig = CacheConfig("L1I", 32 * 1024, 64, 8, latency=4)
    l1d: CacheConfig = CacheConfig("L1D", 32 * 1024, 64, 8, latency=4)
    l2: CacheConfig = CacheConfig("L2", 1024 * 1024, 64, 16, latency=12)
    dram: DramConfig = DramConfig()
    #: 512-bit VMU interface = 8 × 64-bit elements per beat.
    vector_interface_bytes: int = 64

    def __post_init__(self) -> None:
        # The CacheConfig/DramConfig members validate themselves on
        # construction; what remains is the composition.
        if self.vector_interface_bytes <= 0:
            raise ValueError("vector interface width must be positive")
        for cache in (self.l1i, self.l1d, self.l2):
            if not isinstance(cache, CacheConfig):
                raise TypeError(
                    f"expected a CacheConfig, got {type(cache).__name__}")
        if not isinstance(self.dram, DramConfig):
            raise TypeError(
                f"expected a DramConfig, got {type(self.dram).__name__}")


class MemorySystem:
    """L1I + L1D + unified L2 + DRAM, shared by timing and energy models."""

    __slots__ = ("config", "l1i", "l1d", "l2", "dram")

    def __init__(self, config: MemorySystemConfig | None = None) -> None:
        self.config = config or MemorySystemConfig()
        self.l1i = Cache(self.config.l1i)
        self.l1d = Cache(self.config.l1d)
        self.l2 = Cache(self.config.l2)
        self.dram = Dram(self.config.dram)

    # -- vector side (VMU -> L2) ---------------------------------------------
    def vector_lines(self, addrs: Iterable[int], write: bool) -> int:
        """Stream one VMU beat per byte address of ``addrs`` into the L2.

        Returns the number of L2 misses.  The DRAM is charged one line read
        per miss (write-allocate fills the line either way) and one line
        write per dirty line evicted.  Writebacks are counted, not timed:
        the VMU's ``fill_beats`` model fills only.  How the miss latency and
        transfer cost surface in the pipeline (bandwidth-serialised fill
        beats, once-per-instruction latency) is the VMU's concern — see
        :class:`repro.vpu.vmu.MemoryAccessPlan`.
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

    # -- scalar side -----------------------------------------------------------
    def scalar_read(self, addr: int) -> int:
        """Scalar load; returns its latency in scalar-core cycles."""
        return self._scalar_access(self.l1d, addr)

    def fetch(self, addr: int) -> int:
        """Instruction fetch; returns its latency in scalar-core cycles."""
        return self._scalar_access(self.l1i, addr)

    def _scalar_access(self, l1: Cache, addr: int) -> int:
        """An L1 read backed by the L2; an L2 miss pays the DRAM line read
        (an evicted dirty L2 line is counted as a DRAM write, not timed)."""
        if l1.access(addr):
            return l1.config.latency
        latency = l1.config.latency + self.config.l2.latency
        if self.vector_lines((addr,), False):
            dram = self.config.dram
            latency += dram.latency + dram.line_transfer
        return latency

    def reset_stats(self) -> None:
        self.l1i.stats.reset()
        self.l1d.stats.reset()
        self.l2.stats.reset()
        self.dram.reset()
