"""Simulation statistics: every counter the paper's figures consume.

The mapping onto Figure 3:

* column 1 (memory instructions) — ``vloads``, ``vstores``,
  ``spill_loads``, ``spill_stores``, ``swap_loads``, ``swap_stores``;
* column 2 (% of vector instructions) — ``arith_fraction`` /
  ``memory_fraction``;
* column 3 (execution time / speedup) — ``cycles`` and ``seconds`` (1 GHz
  VPU clock);
* column 4 (energy) — the event counters (`fpu_element_ops`, VRF element
  traffic, L2/DRAM access counts) feed :mod:`repro.power.mcpat`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

#: VPU clock (Table II).
VPU_HZ = 1_000_000_000


@dataclass
class SimStats:
    """Counters accumulated over one simulation run.

    The event counters, ``events_processed``, ``cycles_skipped`` and
    ``spans_charged`` included, are the full stepper's counts: where the
    scheduler skips whole steady-state periods (:mod:`repro.vpu.steady`)
    it adds each period's increments instead of stepping them.
    """

    cycles: int = 0
    committed: int = 0

    # Dynamic instruction counts (executed).
    arith_insts: int = 0
    vloads: int = 0
    vstores: int = 0
    spill_loads: int = 0
    spill_stores: int = 0
    swap_loads: int = 0
    swap_stores: int = 0
    scalar_blocks: int = 0

    # Element-level event counts (energy model inputs).
    fpu_element_ops: int = 0
    vrf_reads: int = 0
    vrf_writes: int = 0
    mvrf_reads: int = 0
    mvrf_writes: int = 0
    l2_reads: int = 0
    l2_writes: int = 0
    l2_misses: int = 0
    dram_accesses: int = 0
    mem_beats: int = 0

    # Stall / utilisation accounting.
    rename_frl_stalls: int = 0
    rename_rob_stalls: int = 0
    preissue_victim_stalls: int = 0
    preissue_queue_stalls: int = 0
    preissue_writer_stalls: int = 0
    issue_victim_stalls: int = 0
    arith_busy_cycles: int = 0
    mem_busy_cycles: int = 0

    # Scheduler efficiency: cycles the event-driven scheduler actually
    # evaluated (``events_processed``) versus cycles it jumped over between
    # events (``cycles_skipped``).  A no-progress probe cycle is evaluated
    # and then jumped over, so the counters overlap by the probe count:
    # events <= cycles <= events + skipped.
    events_processed: int = 0
    cycles_skipped: int = 0

    # Span charging: every fast-forward disposes of one stalled interval in
    # a single step instead of cycle-by-cycle; ``spans_charged`` counts
    # those intervals.  Both pipelines compute it from the same structural
    # events, so the equivalence suite pins it like every other counter.
    spans_charged: int = 0

    # Provenance.
    config_name: str = ""
    program_name: str = ""

    # -- derived ---------------------------------------------------------------
    @property
    def memory_insts(self) -> int:
        """All vector memory instructions, Fig. 3 column-1 total."""
        return (self.vloads + self.vstores + self.spill_loads
                + self.spill_stores + self.swap_loads + self.swap_stores)

    @property
    def vector_insts(self) -> int:
        return self.arith_insts + self.memory_insts

    @property
    def memory_fraction(self) -> float:
        total = self.vector_insts
        return self.memory_insts / total if total else 0.0

    @property
    def arith_fraction(self) -> float:
        total = self.vector_insts
        return self.arith_insts / total if total else 0.0

    @property
    def spill_insts(self) -> int:
        return self.spill_loads + self.spill_stores

    @property
    def swap_insts(self) -> int:
        return self.swap_loads + self.swap_stores

    @property
    def seconds(self) -> float:
        return self.cycles / VPU_HZ

    @property
    def arith_utilisation(self) -> float:
        return self.arith_busy_cycles / self.cycles if self.cycles else 0.0

    @property
    def mem_utilisation(self) -> float:
        return self.mem_busy_cycles / self.cycles if self.cycles else 0.0

    # -- serialisation ---------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe mapping of every counter (derived values excluded)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "SimStats":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SimStats fields: {sorted(unknown)}")
        return cls(**data)

    def summary(self) -> str:
        return (
            f"{self.program_name} on {self.config_name}: "
            f"{self.cycles} cycles, {self.vector_insts} vector insts "
            f"({self.memory_fraction:.0%} memory), "
            f"spill={self.spill_insts}, swap={self.swap_insts}, "
            f"util arith={self.arith_utilisation:.0%} "
            f"mem={self.mem_utilisation:.0%}")
