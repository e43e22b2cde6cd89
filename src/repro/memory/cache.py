"""Set-associative write-back cache with true-LRU replacement.

The model is behavioural: it tracks tag state and hit/miss/writeback
counts.  Callers stream a batch of line addresses through
:meth:`Cache.access_lines` and get the batch's miss count back, so a vector
memory instruction costs one call however many lines it touches.  It
deliberately has no MSHRs or bank conflicts — the VPU's memory unit is
in-order and issues line requests back-to-back, so a hit/miss stream plus a
fixed miss penalty captures the timing behaviour the paper's comparisons
depend on (vector kernels here are dominated by capacity behaviour in the
1 MB L2).

Each set is a dict ``tag -> dirty`` kept in recency order: a hit pops its
tag and re-inserts it at the end, so the first key is always the least
recently used line and eviction is O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int = 64  # 512-bit lines, per Table II
    associativity: int = 8
    latency: int = 12

    def __post_init__(self) -> None:
        # Full validation up front: a bad sweep preset must fail when the
        # spec is parsed, not mid-grid inside a worker process.
        if self.line_bytes <= 0:
            raise ValueError(f"{self.name}: line size must be positive")
        if self.associativity <= 0:
            raise ValueError(f"{self.name}: associativity must be positive")
        if self.size_bytes <= 0:
            raise ValueError(f"{self.name}: size must be positive")
        if self.latency <= 0:
            raise ValueError(f"{self.name}: latency must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError(
                f"{self.name}: size must be a multiple of line*assoc")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass
class CacheStats:
    """Access counters (consumed by the McPAT-style energy model)."""

    reads: int = 0
    writes: int = 0
    read_misses: int = 0
    write_misses: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    def reset(self) -> None:
        self.reads = self.writes = 0
        self.read_misses = self.write_misses = self.writebacks = 0


class Cache:
    """One cache level.

    ``access_lines(addrs, write)`` streams byte addresses through the cache
    in order and returns how many missed.  Replacement is true LRU and
    misses write-allocate; dirty evictions increment the ``writebacks``
    counter, which :class:`repro.memory.hierarchy.MemorySystem` charges to
    the DRAM.
    """

    __slots__ = ("config", "stats", "_n_sets", "_line_bytes", "_assoc",
                 "_sets")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        # Geometry hoisted out of the per-access path (n_sets is a derived
        # property; accesses happen per line per memory instruction).
        self._n_sets = config.n_sets
        self._line_bytes = config.line_bytes
        self._assoc = config.associativity
        # set index -> {tag: dirty}, least recently used first
        self._sets: List[Dict[int, bool]] = [
            {} for _ in range(config.n_sets)]

    def access_lines(self, addrs: Iterable[int], write: bool = False) -> int:
        """Access each byte address in ``addrs`` in order; returns misses."""
        line_bytes, n_sets, assoc = self._line_bytes, self._n_sets, self._assoc
        sets = self._sets
        accesses = misses = writebacks = 0
        for addr in addrs:
            accesses += 1
            line = addr // line_bytes
            ways = sets[line % n_sets]
            tag = line // n_sets
            dirty = ways.pop(tag, None)
            if dirty is not None:
                ways[tag] = dirty or write
                continue
            misses += 1
            if len(ways) >= assoc and ways.pop(next(iter(ways))):
                writebacks += 1
            # Write-allocate: the line is brought in either way.
            ways[tag] = write
        stats = self.stats
        if write:
            stats.writes += accesses
            stats.write_misses += misses
        else:
            stats.reads += accesses
            stats.read_misses += misses
        stats.writebacks += writebacks
        return misses

    def holds(self, addrs: Iterable[int]) -> bool:
        """True when every byte address in ``addrs`` lies in a resident
        line.  A probe only: no recency, dirty bit or counter changes."""
        line_bytes, n_sets, sets = self._line_bytes, self._n_sets, self._sets
        for addr in addrs:
            line = addr // line_bytes
            if line // n_sets not in sets[line % n_sets]:
                return False
        return True

    def fits(self, addrs: Iterable[int]) -> bool:
        """True when filling every line of ``addrs`` would evict nothing
        (a probe, like :meth:`holds`)."""
        line_bytes, n_sets, sets = self._line_bytes, self._n_sets, self._sets
        absent: Dict[int, set] = {}
        for addr in addrs:
            line = addr // line_bytes
            if line // n_sets not in sets[line % n_sets]:
                absent.setdefault(line % n_sets, set()).add(line)
        return all(len(sets[s]) + len(lines) <= self._assoc
                   for s, lines in absent.items())

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty lines flushed."""
        dirty = 0
        for ways in self._sets:
            dirty += sum(ways.values())
            ways.clear()
        return dirty

    @property
    def occupancy(self) -> int:
        """Number of resident lines (diagnostics / tests)."""
        return sum(len(ways) for ways in self._sets)
