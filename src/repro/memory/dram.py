"""Flat-latency DRAM model (Table II's 2 GB DDR3).

A single latency plus a line-transfer cost is enough at the fidelity this
reproduction targets: every configuration being compared sees the same DRAM,
and the experiments sweep register-file organisations, not memory
controllers.  Counters feed the energy model.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DramConfig:
    """DRAM timing in VPU (1 GHz) cycles."""

    latency: int = 80
    line_transfer: int = 4  # 512-bit line over a 128-bit DDR interface

    def __post_init__(self) -> None:
        if self.latency <= 0:
            raise ValueError("DRAM latency must be positive")
        if self.line_transfer <= 0:
            raise ValueError("DRAM line-transfer cost must be positive")


@dataclass
class Dram:
    """Line read/write counters of the main memory; ``config`` times it."""

    config: DramConfig = DramConfig()
    line_reads: int = 0
    line_writes: int = 0

    @property
    def accesses(self) -> int:
        return self.line_reads + self.line_writes

    def reset(self) -> None:
        self.line_reads = 0
        self.line_writes = 0
