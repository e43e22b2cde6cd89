"""The paper's claims, checked in one table.

Each row is a :class:`Claim`: a statement, the paper's value, a measured
value and the inclusive bounds it must lie in (``±inf`` when one-sided;
a strict inequality uses the next float, or the next integer for a
count).  ``repro claims`` prints each row's margin to its nearer bound
and exits 1 when any row reads ``NO``; CI runs it.

The rows cover Figure 3's shapes for the six Table-IV applications (§V),
Figures 4 and 5, Tables IV and V (§VI–VII), the sensitivity study and
four ablations of the paper's design choices: A1 RAC-guided swap
victims vs FIFO and round-robin, A2 aggressive register reclamation, A3
issue-queue depth (Table II: 32) and A4 the P-reg count at MVL 128
(Table I: 8).  Every grid runs as one executor batch, so a cell two
grids share simulates once; the Figure-3 grid is the spec of ``figure3
all``, so the two share cells through the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import List, Optional, Sequence, Tuple

from repro.core.config import (ava_config, native_config,
                               with_physical_registers)
from repro.core.swap import VictimPolicy
from repro.experiments.configs import ava_series, native_series
from repro.experiments.engine import (Cell, CellExecutor, CellPolicy,
                                      SweepSpec, figure3_spec)
from repro.experiments.figure3 import assemble_panels
from repro.experiments.figure4 import build_figure4
from repro.experiments.figure5 import build_figure5
from repro.experiments.rendering import render_table
from repro.experiments.sensitivity import (SENSITIVITY_WORKLOAD,
                                           assemble_sensitivity,
                                           sensitivity_cells)
from repro.experiments.tables import render_table4
from repro.power.physical import PhysicalDesignModel
from repro.vpu.params import DEFAULT_TIMING
from repro.workloads.registry import WORKLOAD_NAMES

#: A3 issue-queue depths and A4 physical-register counts.
QUEUE_DEPTHS = (2, 4, 8, 16, 32, 64)
PREGS = (6, 8, 12, 16, 24, 32)

#: The ablation grids, each one engine sweep over the swap-heaviest cells.
ABLATIONS = {
    "victim": SweepSpec(
        workloads=("blackscholes",), configs=(ava_config(8),),
        policies=tuple(CellPolicy(victim_policy=p) for p in VictimPolicy)),
    "reclamation": SweepSpec(
        workloads=("blackscholes", "swaptions"), configs=(ava_config(8),),
        policies=(CellPolicy(aggressive_reclamation=True),
                  CellPolicy(aggressive_reclamation=False))),
    "queue": SweepSpec(
        workloads=("blackscholes",), configs=(ava_config(4),),
        params=tuple(replace(DEFAULT_TIMING, arith_queue_depth=d,
                             mem_queue_depth=d) for d in QUEUE_DEPTHS)),
    "preg": SweepSpec(
        workloads=("blackscholes",),
        configs=tuple(with_physical_registers(ava_config(8), n)
                      for n in PREGS)),
}


def above(x: float) -> float:
    """The inclusive lower bound of a strict ``> x``."""
    return math.nextafter(x, math.inf)


def below(x: float) -> float:
    """The inclusive upper bound of a strict ``< x``."""
    return math.nextafter(x, -math.inf)


@dataclass(frozen=True)
class Claim:
    """One paper-vs-measured row: ``value`` must lie in ``[lo, hi]``.

    ``fmt`` renders both the value and the margin, so a row reads in the
    claim's own unit.
    """

    statement: str
    paper: str
    value: float
    lo: float = -math.inf
    hi: float = math.inf
    fmt: str = "{:.2f}"

    @property
    def holds(self) -> bool:
        return self.lo <= self.value <= self.hi

    @property
    def margin(self) -> float:
        """Distance to the nearer bound: 0 on a bound, negative outside."""
        return min(self.value - self.lo, self.hi - self.value)

    def row(self) -> List[str]:
        margin = ("exact" if self.lo == self.hi and self.holds
                  else self.fmt.format(self.margin))
        return [self.statement, self.paper, self.fmt.format(self.value),
                margin, "yes" if self.holds else "NO"]


def claims_grids(extra_workloads: Sequence[str] = ()
                 ) -> Tuple[SweepSpec, List[List[Cell]]]:
    """The Figure-3 spec and every grid the claims read: Figure 3, the
    :data:`ABLATIONS` in order, then the sensitivity study.

    ``extra_workloads`` widens the Figure-3 grid (the CLI's
    ``--extended`` passes the full ten-kernel suite), warming the shared
    cache without changing which claims are evaluated.
    """
    names = list(WORKLOAD_NAMES) + [n for n in extra_workloads
                                    if n not in WORKLOAD_NAMES]
    figure3 = figure3_spec(names)
    return figure3, [figure3.cells(),
                     *(spec.cells() for spec in ABLATIONS.values()),
                     sensitivity_cells()]


def check_headline_claims(executor: Optional[CellExecutor] = None,
                          extra_workloads: Sequence[str] = ()
                          ) -> List[Claim]:
    """Run :func:`claims_grids` as one batch and evaluate the claim
    table."""
    executor = executor or CellExecutor()
    figure3, grids = claims_grids(extra_workloads)
    results = iter(executor.run([cell for grid in grids for cell in grid],
                                label="claims"))
    figure3_results, *ablations, sensitivity = [
        list(islice(results, len(grid))) for grid in grids]
    panels = assemble_panels(figure3, figure3_results)
    runs = {name: [r.stats for r in rows]
            for name, rows in zip(ABLATIONS, ablations)}
    study = assemble_sensitivity(SENSITIVITY_WORKLOAD, sensitivity)

    def st(app: str, config: str):
        return panels[app].record(config).stats

    def sp(app: str, config: str) -> float:
        return panels[app].speedup(config)

    def vs(app: str, a: str, b: str) -> float:
        return sp(app, a) / sp(app, b)

    def named(plan, name: str) -> int:
        return sum(b.name.startswith(name) for b in plan.blocks)

    axpy = [r.stats for r in panels["axpy"].results]
    energy = {c: panels["axpy"].record(c).energy.total
              for c in ("NATIVE X1", "AVA X8")}
    fig4 = build_figure4(per_workload={
        name: [panels[name].speedup(c.name)
               for c in native_series() + ava_series()]
        for name in WORKLOAD_NAMES})
    plans = native_plan, ava_plan = build_figure5()
    pnr = PhysicalDesignModel()
    table4 = render_table4()
    lavamd_ava = [sp("lavamd", c.name) for c in ava_series()
                  if c.name != "AVA X3"]
    sw_swaps = st("swaptions", "AVA X8").swap_insts
    sw_spills = st("swaptions", "RG-LMUL8").spill_insts
    victim = dict(zip(VictimPolicy, runs["victim"]))
    victim_swaps = [s.swap_insts for s in victim.values()]
    on_off = list(zip(runs["reclamation"][0::2], runs["reclamation"][1::2]))
    queue = dict(zip(QUEUE_DEPTHS, (s.cycles for s in runs["queue"])))
    preg = dict(zip(PREGS, runs["preg"]))
    preg_swaps = [preg[n].swap_insts for n in PREGS]
    gaps = [row.gap_x8 for row in study.dram_rows]

    x, r, pct, n, mm2 = "{:.2f}x", "{:.3f}", "{:.1%}", "{:.0f}", "{:.3f} mm2"
    return [
        # Figure 3-a, axpy: the ideal case (§V).
        Claim("axpy: AVA X8 speedup over NATIVE X1", "2.03x",
              sp("axpy", "AVA X8"), 1.7, 2.4, x),
        Claim("axpy: NATIVE X8 speedup", "2.03x",
              sp("axpy", "NATIVE X8"), 1.7, 2.4, x),
        Claim("axpy: RG-LMUL8 speedup", "2.03x",
              sp("axpy", "RG-LMUL8"), 1.7, 2.4, x),
        Claim("axpy: AVA X8 / NATIVE X8 speedup", "equal",
              vs("axpy", "AVA X8", "NATIVE X8"), above(0.98), below(1.02), r),
        Claim("axpy: swaps, most in any configuration", "0",
              max(s.swap_insts for s in axpy), 0, 0, n),
        Claim("axpy: spills, most in any configuration", "0",
              max(s.spill_insts for s in axpy), 0, 0, n),
        Claim("axpy: memory share, worst distance from 75%", "75% everywhere",
              max(abs(s.memory_fraction - 0.75) for s in axpy),
              hi=below(0.01), fmt="{:.2%}"),
        Claim("axpy: energy saving at AVA X8", "37%",
              1 - energy["AVA X8"] / energy["NATIVE X1"], 0.25, 0.50, pct),
        # Figure 3-b, blackscholes: 23 logical registers.
        Claim("blackscholes: AVA X8 / RG-LMUL8 speedup", "1.64x / 1.49x",
              vs("blackscholes", "AVA X8", "RG-LMUL8"), lo=above(1.0), fmt=r),
        Claim("blackscholes: AVA / RG speedup, worse of X2 and X4",
              "AVA ahead", min(vs("blackscholes", f"AVA X{k}", f"RG-LMUL{k}")
                               for k in (2, 4)), lo=1.0, fmt=r),
        Claim("blackscholes: AVA X2 swaps (32 P-regs)", "0",
              st("blackscholes", "AVA X2").swap_insts, 0, 0, n),
        Claim("blackscholes: AVA X4 swaps", "swaps from X4",
              st("blackscholes", "AVA X4").swap_insts, lo=1, fmt=n),
        Claim("blackscholes: RG spills, fewest of LMUL2/4/8",
              "spills from LMUL2", min(st("blackscholes", f"RG-LMUL{k}")
                                       .spill_insts for k in (2, 4, 8)),
              lo=1, fmt=n),
        Claim("blackscholes: RG-LMUL8 spills minus AVA X8 swaps",
              "AVA slightly fewer", st("blackscholes", "RG-LMUL8").spill_insts
              - st("blackscholes", "AVA X8").swap_insts, lo=1, fmt=n),
        Claim("blackscholes: AVA X8 memory fraction", "38%",
              st("blackscholes", "AVA X8").memory_fraction, 0.30, 0.46, pct),
        # Figure 3-c, lavamd: fixed 48-element vectors.
        Claim("lavamd: AVA X3 / best other AVA speedup", "X3 best (1.67x)",
              sp("lavamd", "AVA X3") / max(lavamd_ava), lo=above(1.0), fmt=r),
        Claim("lavamd: AVA X3 speedup", "1.67x",
              sp("lavamd", "AVA X3"), 1.4, 1.9, x),
        Claim("lavamd: AVA X3 minus NATIVE X3 speedup", "equal",
              sp("lavamd", "AVA X3") - sp("lavamd", "NATIVE X3"),
              above(-0.02), below(0.02), "{:+.3f}x"),
        Claim("lavamd: AVA X3 swaps (21 P-regs)", "0",
              st("lavamd", "AVA X3").swap_insts, 0, 0, n),
        Claim("lavamd: RG-LMUL2 spills (15 regs fit)", "0",
              st("lavamd", "RG-LMUL2").spill_insts, 0, 0, n),
        Claim("lavamd: RG-LMUL4 spills", "spills from LMUL4",
              st("lavamd", "RG-LMUL4").spill_insts, lo=1, fmt=n),
        Claim("lavamd: RG-LMUL8 speedup", "0.48x",
              sp("lavamd", "RG-LMUL8"), hi=below(0.7), fmt=x),
        # Figure 3-d, particlefilter: 13 logical registers.
        Claim("particlefilter: spills + swaps, RG-LMUL2 / AVA X2 / X3", "0",
              st("particlefilter", "RG-LMUL2").spill_insts
              + st("particlefilter", "AVA X2").swap_insts
              + st("particlefilter", "AVA X3").swap_insts, 0, 0, n),
        Claim("particlefilter: fewer of RG-LMUL4 spills, AVA X8 swaps",
              "from LMUL4 / X4", min(st("particlefilter", "RG-LMUL4")
                                     .spill_insts, st("particlefilter",
                                                      "AVA X8").swap_insts),
              lo=1, fmt=n),
        Claim("particlefilter: AVA X8 / NATIVE X8 speedup", "similar",
              vs("particlefilter", "AVA X8", "NATIVE X8"), lo=above(0.85),
              fmt=r),
        Claim("particlefilter: AVA X8 / RG-LMUL8 speedup", "AVA ahead",
              vs("particlefilter", "AVA X8", "RG-LMUL8"), lo=1.0, fmt=r),
        # Figure 3-e, somier: memory bound.
        Claim("somier: spills + swaps, RG-LMUL4 / AVA X4", "0",
              st("somier", "RG-LMUL4").spill_insts
              + st("somier", "AVA X4").swap_insts, 0, 0, n),
        Claim("somier: RG-LMUL8 spills", "spills at LMUL8",
              st("somier", "RG-LMUL8").spill_insts, lo=1, fmt=n),
        Claim("somier: AVA X8 swaps", "few",
              st("somier", "AVA X8").swap_insts, hi=31, fmt=n),
        Claim("somier: AVA X8 / NATIVE X8 speedup", "small loss",
              vs("somier", "AVA X8", "NATIVE X8"), lo=above(0.9), fmt=r),
        # Figure 3-f, swaptions: 24 logical registers.
        Claim("swaptions: RG spills, fewest of LMUL2/4/8", "spills from LMUL2",
              min(st("swaptions", f"RG-LMUL{k}").spill_insts
                  for k in (2, 4, 8)), lo=1, fmt=n),
        Claim("swaptions: NATIVE X1 memory fraction", "12%",
              st("swaptions", "NATIVE X1").memory_fraction, hi=below(0.2),
              fmt=pct),
        Claim("swaptions: RG-LMUL8 memory fraction", "34%",
              st("swaptions", "RG-LMUL8").memory_fraction, lo=above(0.3),
              fmt=pct),
        Claim("swaptions: AVA X8 / RG-LMUL8 speedup", "AVA ahead",
              vs("swaptions", "AVA X8", "RG-LMUL8"), lo=above(1.0), fmt=r),
        Claim("swaptions: AVA X8 / NATIVE X8 speedup", "1.78x / 2.15x",
              vs("swaptions", "AVA X8", "NATIVE X8"), hi=below(1.0), fmt=r),
        Claim("swaptions: AVA X8 swaps / RG-LMUL8 spills", "comparable",
              sw_swaps / sw_spills if sw_spills else (math.inf if sw_swaps else 0),
              hi=1.2, fmt=r),
        # Figure 4: areas and performance per mm² (§VI).
        Claim("Fig. 4: NATIVE X1 VRF area", "0.18 mm2",
              fig4.native_areas[0].vrf, above(0.17), below(0.19), mm2),
        Claim("Fig. 4: NATIVE X1 FPU area", "0.94 mm2",
              fig4.native_areas[0].fpus, above(0.93), below(0.95), mm2),
        Claim("Fig. 4: AVA VPU area, every reconfiguration", "1.126 mm2",
              fig4.ava_area.vpu, above(1.116), below(1.136), mm2),
        Claim("Fig. 4: AVA structures area overhead", "0.55% of VPU",
              fig4.ava_overhead_fraction, 0.004, 0.007, "{:.2%}"),
        Claim("Fig. 4: VPU area reduction vs NATIVE X8", "53%",
              fig4.vpu_area_reduction, 0.45, 0.60, pct),
        Claim("Fig. 4: AVA / NATIVE perf per mm2, worst of X2..X8",
              "AVA higher", min(a / b for a, b in zip(
                  fig4.ava_perf_mm2[1:], fig4.native_perf_mm2[1:])),
              lo=above(1.0), fmt=r),
        # Figure 5 and Tables IV-V: floorplans and PnR (§VII).
        Claim("Fig. 5: AVA die / NATIVE X8 die", "49.3%",
              ava_plan.die_area_mm2 / native_plan.die_area_mm2,
              0.40, 0.60, pct),
        Claim("Fig. 5: lane 1, lane 8, VMU, ROB, IQ missing on a die", "0",
              sum(len({"lane 1", "lane 8", "VMU", "ROB", "IQ"}
                      - {b.name for b in plan.blocks}) for plan in plans),
              0, 0, n),
        Claim("Fig. 5: dies with four VRF corner macros", "2 of 2",
              sum(named(plan, "VRF macro") == 4 for plan in plans), 2, 2, n),
        Claim("Fig. 5: AVA structures blocks on the AVA die", "1",
              named(ava_plan, "AVA structures"), lo=1, fmt=n),
        Claim("Fig. 5: AVA structures blocks on the NATIVE X8 die", "0",
              named(native_plan, "AVA structures"), 0, 0, n),
        Claim("Table IV: applications listed", "6",
              sum(app in table4 for app in ("axpy", "blackscholes", "lavamd",
                                            "particlefilter", "somier",
                                            "swaptions")), 6, 6, n),
        Claim("Table V: AVA X8 worst slack at 1 GHz", "+0.119 ns",
              pnr.evaluate(ava_config(8)).wns_ns, lo=0.0, fmt="{:+.3f} ns"),
        Claim("Table V: NATIVE X8 worst slack at 1 GHz", "-0.244 ns",
              pnr.evaluate(native_config(8)).wns_ns, hi=below(0.0),
              fmt="{:+.3f} ns"),
        Claim("Table V: chip area reduction", "50.7%",
              pnr.area_reduction_vs(ava_config(8), native_config(8)),
              0.45, 0.55, pct),
        # Sensitivity: swap cost lands in the memory hierarchy.
        Claim("sensitivity: smallest X8 gap step as DRAM slows",
              "gap widens", min(b - a for a, b in zip(gaps, gaps[1:])),
              lo=0.0, fmt="{:+.3f}"),
        Claim("sensitivity: distinct NATIVE X8 cycles across DRAM", "1",
              len({row.native_x8 for row in study.dram_rows}), 1, 1, n),
        # Ablations of the paper's design choices (blackscholes unless
        # named).
        Claim("A1: RAC-min cycles / best victim policy", "RAC competitive",
              victim[VictimPolicy.RAC_MIN].cycles
              / min(s.cycles for s in victim.values()), hi=1.10, fmt=r),
        Claim("A1: most / fewest swaps over victim policies", "no thrash",
              max(victim_swaps) / max(1, min(victim_swaps)), hi=2.0, fmt=r),
        Claim("A2: swaps saved by reclamation, worse of 2 apps", ">= 0",
              min(off.swap_insts - on.swap_insts for on, off in on_off),
              lo=0, fmt=n),
        Claim("A2: cycles with / without reclamation, worse app", "<= 1",
              max(on.cycles / off.cycles for on, off in on_off), hi=1.02,
              fmt=r),
        Claim("A3: queue depth 2..64, worst cycles gap to depth 32",
              "insensitive", max(abs(c - queue[32]) for c in queue.values())
              / queue[32], hi=0.05, fmt=pct),
        Claim("A3: depth-64 / depth-32 cycles", "no gain past 32",
              queue[64] / queue[32], lo=0.98, fmt=r),
        Claim("A4: largest swap rise from one P-reg step to the next",
              "falls with P-regs", max(b - a for a, b in zip(
                  preg_swaps, preg_swaps[1:])), hi=8, fmt="{:+.0f}"),
        Claim("A4: swaps with 32 P-regs", "0", preg[32].swap_insts, 0, 0, n),
        Claim("A4: 8-preg / 32-preg cycles", "within 2x",
              preg[8].cycles / preg[32].cycles, hi=2.0, fmt=r),
    ]


def render_claims(claims: List[Claim]) -> str:
    rows = [claim.row() for claim in claims]
    held = sum(claim.holds for claim in claims)
    return (render_table(["claim", "paper", "measured", "margin", "holds"],
                         rows)
            + f"\n{held}/{len(claims)} claims hold")
