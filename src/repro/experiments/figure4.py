"""Figure 4 regenerator: component areas and performance per mm².

The paper's bars: per-configuration component areas (VPU VRF, VPU FPUs,
core pipeline, L1-I, L1-D, L2, AVA structures) and, on the right axis, the
average performance (over the six applications) divided by the VPU area.
AVA's area is constant (1.126 mm² — the 8 KB organisation plus the 0.55%
bookkeeping structures) across every reconfiguration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.config import SCALE_FACTORS, ava_config, native_config
from repro.experiments.engine import (CellExecutor, RunRecord, SweepSpec,
                                      average_speedups, fill_speedups,
                                      record_from_result)
from repro.experiments.rendering import render_table
from repro.power.mcpat import AreaReport, McPatModel
from repro.vpu.params import TimingParams
from repro.workloads.registry import WORKLOAD_NAMES


@dataclass
class Figure4:
    """Areas plus performance/mm² for the NATIVE and AVA series."""

    native_areas: List[AreaReport]
    ava_area: AreaReport
    native_perf_mm2: List[float]
    ava_perf_mm2: List[float]
    avg_speedups_native: List[float]
    avg_speedups_ava: List[float]

    def area_rows(self) -> List[List[object]]:
        rows = []
        for report in [self.native_areas[0], self.ava_area,
                       *self.native_areas[1:]]:
            rows.append([report.config_name, f"{report.vrf:.2f}",
                         f"{report.fpus:.2f}", f"{report.ava_structs:.4f}",
                         f"{report.vpu:.3f}", f"{report.total:.2f}"])
        return rows

    def perf_rows(self) -> List[List[object]]:
        rows = []
        for i, scale in enumerate(SCALE_FACTORS):
            rows.append([f"X{scale}",
                         f"{self.avg_speedups_native[i]:.2f}",
                         f"{self.native_perf_mm2[i]:.2f}",
                         f"{self.avg_speedups_ava[i]:.2f}",
                         f"{self.ava_perf_mm2[i]:.2f}"])
        return rows

    @property
    def vpu_area_reduction(self) -> float:
        """AVA vs NATIVE X8 VPU area (the paper's 53%)."""
        return 1.0 - self.ava_area.vpu / self.native_areas[-1].vpu

    @property
    def ava_overhead_fraction(self) -> float:
        """AVA structures as a fraction of the VPU (the paper's 0.55%)."""
        return self.ava_area.ava_structs / self.ava_area.vpu

    def render(self) -> str:
        parts = ["=== Figure 4: area and performance/mm2 ==="]
        parts.append(render_table(
            ["config", "VRF", "FPUs", "AVA structs", "VPU", "total"],
            self.area_rows()))
        parts.append(render_table(
            ["scale", "NATIVE avg speedup", "NATIVE perf/mm2",
             "AVA avg speedup", "AVA perf/mm2"],
            self.perf_rows()))
        parts.append(
            f"AVA structures overhead: {self.ava_overhead_fraction:.2%} "
            f"of VPU (paper: 0.55%)")
        parts.append(
            f"VPU area reduction vs NATIVE X8: "
            f"{self.vpu_area_reduction:.1%} (paper: 53%)")
        return "\n".join(parts)


def build_figure4(params: Optional[TimingParams] = None,
                  per_workload: Optional[Dict[str, List[RunRecord]]] = None,
                  executor: Optional[CellExecutor] = None,
                  workload_names: Optional[Sequence[str]] = None) -> Figure4:
    """Compute Fig. 4; re-runs the applications unless records are given.

    The performance-per-mm² averages run over ``workload_names`` — Table
    IV's six by default, or any registry selection (the CLI's
    ``--extended`` / ``--workloads`` pass the ten-kernel grid through
    here).
    """
    mcpat = McPatModel()
    native_cfgs = [native_config(s) for s in SCALE_FACTORS]
    ava_cfgs = [ava_config(s) for s in SCALE_FACTORS]

    if per_workload is None:
        # One batch over the whole (workload × configuration) grid; a
        # parallel executor fans all cells out at once, and every cell
        # is shared with figure3/claims through the result cache.
        executor = executor or CellExecutor()
        spec = SweepSpec(workloads=list(workload_names or WORKLOAD_NAMES),
                         configs=native_cfgs + ava_cfgs, params=(params,))
        results = executor.run_spec(spec, label="figure4")
        per_workload = {
            name: fill_speedups([record_from_result(r) for r in chunk],
                                baseline_index=0)
            for name, chunk in spec.chunk_by_workload(results)}

    averages = average_speedups(per_workload)
    n = len(native_cfgs)
    avg_native, avg_ava = averages[:n], averages[n:]

    native_areas = [mcpat.area(cfg) for cfg in native_cfgs]
    ava_area = mcpat.area(ava_cfgs[-1])
    return Figure4(
        native_areas=native_areas,
        ava_area=ava_area,
        native_perf_mm2=[s / a.vpu for s, a in zip(avg_native, native_areas)],
        ava_perf_mm2=[s / ava_area.vpu for s in avg_ava],
        avg_speedups_native=avg_native,
        avg_speedups_ava=avg_ava,
    )
