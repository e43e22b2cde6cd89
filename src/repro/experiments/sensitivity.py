"""Machine-axis sensitivity study: how robust is AVA's adaptability?

The paper evaluates one platform (Table II).  This study asks the natural
follow-up the scenario layer makes cheap: does the NATIVE-vs-AVA
comparison survive a worse memory system or a tighter swap pipeline?
Three one-factor-at-a-time sweeps over a spill-prone application
(blackscholes, the paper's §V stress case), each against AVA X4/X8 and
their NATIVE equivalents:

1. **L2 latency** — the VMU sits directly on the L2 bus, so every vector
   beat pays it;
2. **DRAM penalty** — swap traffic misses in the L2 land here, and only
   the two-level AVA organisations generate swap traffic;
3. **pre-issue swap budget** — how many swap operations the pre-issue
   stage may insert per cycle (`preissue_swap_budget`).

The headline observation: slowing the DRAM widens the NATIVE-vs-AVA gap
*monotonically* — AVA pays for its smaller P-VRF exactly where the paper
says it should (swap traffic through the memory hierarchy), and nowhere
else.  The gap is reported as AVA cycles / NATIVE cycles (1.0 = free
adaptability).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from typing import List, Optional, Sequence

from repro.core.config import MachineConfig, ava_config, native_config
from repro.experiments.engine import Cell, CellExecutor, CellResult, SweepSpec
from repro.experiments.rendering import render_bars, render_table
from repro.memory.dram import DramConfig
from repro.memory.hierarchy import MemorySystemConfig
from repro.vpu.params import DEFAULT_TIMING, TimingParams

#: The spill-prone application the study sweeps (§V's stress case).
SENSITIVITY_WORKLOAD = "blackscholes"

#: Axis points; the paper's platform value sits in each list.
L2_LATENCIES = (6, 12, 24)
DRAM_LATENCIES = (40, 80, 160, 320)
SWAP_BUDGETS = (1, 2, 4)

#: The machines compared at every axis point.
_SCALES = (4, 8)


def _machines() -> List[MachineConfig]:
    configs: List[MachineConfig] = []
    for scale in _SCALES:
        configs.append(native_config(scale))
        configs.append(ava_config(scale))
    return configs


@dataclass(frozen=True)
class SensitivityRow:
    """One axis point: cycles and NATIVE-vs-AVA gaps at each scale."""

    axis_value: int
    native_x4: int
    ava_x4: int
    native_x8: int
    ava_x8: int

    @property
    def gap_x4(self) -> float:
        return self.ava_x4 / self.native_x4

    @property
    def gap_x8(self) -> float:
        return self.ava_x8 / self.native_x8


def _rows(axis_values: Sequence[int],
          results: Sequence[CellResult]) -> List[SensitivityRow]:
    """Fold a (machine × axis)-ordered result list into per-axis rows."""
    n_axis = len(axis_values)
    cycles = [r.stats.cycles for r in results]

    def at(machine_idx: int, axis_idx: int) -> int:
        return cycles[machine_idx * n_axis + axis_idx]

    return [SensitivityRow(axis_value=value,
                           native_x4=at(0, j), ava_x4=at(1, j),
                           native_x8=at(2, j), ava_x8=at(3, j))
            for j, value in enumerate(axis_values)]


@dataclass
class SensitivityStudy:
    """The three sweeps, rendered like a Figure-3 panel."""

    workload: str
    l2_rows: List[SensitivityRow]
    dram_rows: List[SensitivityRow]
    swap_rows: List[SensitivityRow]

    def dram_gap_is_monotone(self) -> bool:
        """Does a slower DRAM widen the X8 NATIVE-vs-AVA gap monotonically?"""
        gaps = [row.gap_x8 for row in self.dram_rows]
        return all(a <= b for a, b in zip(gaps, gaps[1:]))

    @staticmethod
    def _table(axis_name: str, rows: List[SensitivityRow]) -> str:
        return render_table(
            [axis_name, "NATIVE X4", "AVA X4", "gap X4",
             "NATIVE X8", "AVA X8", "gap X8"],
            [[row.axis_value, row.native_x4, row.ava_x4,
              f"{row.gap_x4:.3f}", row.native_x8, row.ava_x8,
              f"{row.gap_x8:.3f}"]
             for row in rows])

    def render(self) -> str:
        parts = [f"=== Sensitivity study: {self.workload} "
                 f"(AVA vs NATIVE, gap = AVA cycles / NATIVE cycles) ==="]
        parts.append("-- (s1) L2 hit latency (cycles) --")
        parts.append(self._table("L2 latency", self.l2_rows))
        parts.append("-- (s2) DRAM access latency (cycles) --")
        parts.append(self._table("DRAM latency", self.dram_rows))
        parts.append(render_bars(
            [(f"DRAM {row.axis_value}", row.gap_x8)
             for row in self.dram_rows], fmt="{:.3f}", unit="x"))
        parts.append("-- (s3) pre-issue swap budget (ops/cycle) --")
        parts.append(self._table("swap budget", self.swap_rows))
        verdict = "yes" if self.dram_gap_is_monotone() else "NO"
        parts.append(f"slower DRAM widens the NATIVE-vs-AVA gap "
                     f"monotonically at X8: {verdict}")
        return "\n".join(parts)


def _memory_with_l2_latency(latency: int) -> MemorySystemConfig:
    base = MemorySystemConfig()
    return replace(base, l2=replace(base.l2, latency=latency))


def _memory_with_dram_latency(latency: int) -> MemorySystemConfig:
    base = MemorySystemConfig()
    return replace(base, dram=DramConfig(latency=latency))


def _timing_with_swap_budget(budget: int) -> TimingParams:
    return replace(DEFAULT_TIMING, preissue_swap_budget=budget)


def sensitivity_cells(workload: str = SENSITIVITY_WORKLOAD) -> List[Cell]:
    """The three sweeps' cells: L2, then DRAM, then swap budget, each
    (machine × axis)-ordered.  Run them as one batch: the executor
    dedupes equal cells within a batch, so the paper-default point all
    three axes share simulates once per machine."""
    machines = _machines()

    def grid(memsys: Sequence[Optional[MemorySystemConfig]] = (None,),
             params: Sequence[Optional[TimingParams]] = (None,)
             ) -> List[Cell]:
        return SweepSpec(workloads=[workload], configs=machines,
                         params=params, memsys=memsys).cells()

    return (grid(memsys=[_memory_with_l2_latency(v) for v in L2_LATENCIES])
            + grid(memsys=[_memory_with_dram_latency(v)
                           for v in DRAM_LATENCIES])
            + grid(params=[_timing_with_swap_budget(v)
                           for v in SWAP_BUDGETS]))


def assemble_sensitivity(workload: str, results: Sequence[CellResult]
                         ) -> SensitivityStudy:
    """Fold :func:`sensitivity_cells`-ordered results into the study."""
    n_machines = len(_machines())
    l2 = n_machines * len(L2_LATENCIES)
    dram = l2 + n_machines * len(DRAM_LATENCIES)
    return SensitivityStudy(
        workload=workload,
        l2_rows=_rows(L2_LATENCIES, results[:l2]),
        dram_rows=_rows(DRAM_LATENCIES, results[l2:dram]),
        swap_rows=_rows(SWAP_BUDGETS, results[dram:]))


def build_sensitivity(executor: Optional[CellExecutor] = None,
                      workload: str = SENSITIVITY_WORKLOAD
                      ) -> SensitivityStudy:
    """Run the three sweeps as one engine batch (cache-shared,
    ``--jobs``-able)."""
    return build_studies([workload], executor)[0]


def build_studies(workloads: Sequence[str],
                  executor: Optional[CellExecutor] = None
                  ) -> List[SensitivityStudy]:
    """One study per application, all of them run as ONE engine batch
    and sliced back in order."""
    executor = executor or CellExecutor()
    grids = [sensitivity_cells(name) for name in workloads]
    results = iter(executor.run([cell for grid in grids for cell in grid],
                                label="sensitivity"))
    return [assemble_sensitivity(name, list(islice(results, len(grid))))
            for name, grid in zip(workloads, grids)]
