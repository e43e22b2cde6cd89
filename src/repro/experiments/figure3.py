"""Figure 3 regenerator: the per-application four-chart panels.

For one application the panel contains, like the paper's rows:

1. memory-instruction breakdown — VLoad / VStore / Spill-Load /
   Spill-Store / Swap-Load / Swap-Store per configuration;
2. vector instruction mix — % arithmetic vs % memory;
3. execution time (cycles, and seconds at the 1 GHz VPU clock) and speedup
   over NATIVE X1;
4. energy split into L2 / VRF / FPU dynamic and leakage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.engine import (CellExecutor, CellResult, SweepSpec,
                                      figure3_spec, speedups)
from repro.experiments.rendering import render_bars, render_table


@dataclass
class Figure3Panel:
    """One application's full panel: its results in series order and each
    one's speedup over the first (NATIVE X1)."""

    workload: str
    results: List[CellResult]
    speedups: List[float]

    def memory_breakdown_rows(self) -> List[List[object]]:
        rows = []
        for r in self.results:
            s = r.stats
            rows.append([r.cell.config.name, s.vloads, s.vstores,
                         s.spill_loads, s.spill_stores, s.swap_loads,
                         s.swap_stores, s.memory_insts])
        return rows

    def mix_rows(self) -> List[List[object]]:
        return [[r.cell.config.name,
                 f"{r.stats.arith_fraction:.1%}",
                 f"{r.stats.memory_fraction:.1%}"]
                for r in self.results]

    def performance_rows(self) -> List[List[object]]:
        return [[r.cell.config.name, r.stats.cycles,
                 f"{r.stats.seconds * 1e6:.2f}",
                 f"{speedup:.2f}"]
                for r, speedup in zip(self.results, self.speedups)]

    def energy_rows(self) -> List[List[object]]:
        rows = []
        for r in self.results:
            e = r.energy
            rows.append([r.cell.config.name,
                         f"{e.l2_dynamic:.0f}", f"{e.l2_leakage:.0f}",
                         f"{e.vrf_dynamic:.0f}", f"{e.vrf_leakage:.0f}",
                         f"{e.fpu_dynamic:.0f}", f"{e.fpu_leakage:.0f}",
                         f"{e.total:.0f}"])
        return rows

    def render(self) -> str:
        parts = [f"=== Figure 3 panel: {self.workload} ==="]
        parts.append(f"-- ({self.workload}1) memory instructions --")
        parts.append(render_table(
            ["config", "VLoad", "VStore", "Spill-L", "Spill-S",
             "Swap-L", "Swap-S", "total"],
            self.memory_breakdown_rows()))
        parts.append(f"-- ({self.workload}2) vector instruction mix --")
        parts.append(render_table(["config", "Varithmetic", "Vmemory"],
                                  self.mix_rows()))
        parts.append(f"-- ({self.workload}3) execution time / speedup --")
        parts.append(render_table(
            ["config", "cycles", "time (us)", "speedup vs NATIVE X1"],
            self.performance_rows()))
        parts.append(render_bars(
            [(r.cell.config.name, speedup)
             for r, speedup in zip(self.results, self.speedups)],
            fmt="{:.2f}", unit="x"))
        parts.append(f"-- ({self.workload}4) energy (nJ) --")
        parts.append(render_table(
            ["config", "L2 dyn", "L2 leak", "VRF dyn", "VRF leak",
             "FPU dyn", "FPU leak", "total"],
            self.energy_rows()))
        return "\n".join(parts)

    def _index(self, config_name: str) -> int:
        for i, r in enumerate(self.results):
            if r.cell.config.name == config_name:
                return i
        raise KeyError(config_name)

    def record(self, config_name: str) -> CellResult:
        return self.results[self._index(config_name)]

    def speedup(self, config_name: str) -> float:
        return self.speedups[self._index(config_name)]


def build_panels(workload_names: Sequence[str],
                 executor: Optional[CellExecutor] = None,
                 label: str = "figure3") -> Dict[str, Figure3Panel]:
    """Run the Fig. 3 grid for several applications as ONE cell batch.

    Batching lets a parallel executor stream every (workload ×
    configuration) cell at once instead of panel by panel; results come
    back in grid order, so rendering is identical to the serial path.
    ``label`` names the batch in the executor's progress reporting.
    """
    executor = executor or CellExecutor()
    spec = figure3_spec(workload_names)
    return assemble_panels(spec, executor.run(spec.cells(), label=label))


def assemble_panels(spec: SweepSpec, results: Sequence[CellResult]
                    ) -> Dict[str, Figure3Panel]:
    """Fold a :func:`figure3_spec` grid's results into one panel per
    application."""
    return {name: Figure3Panel(name, chunk, speedups(chunk))
            for name, chunk in spec.chunk_by_workload(results)}
