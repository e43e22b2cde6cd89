#!/usr/bin/env python
"""Energy and silicon report: the §VI/§VII story in one script.

Generates, for the whole suite:

* the McPAT-style component areas of every configuration and AVA's
  constant 1.126 mm² footprint,
* a per-application energy comparison of the baseline vs AVA's best
  reconfiguration — the (application × scale) grid runs as one engine
  sweep, parallel with ``--jobs`` and shared with every other artifact
  through the result cache,
* the post-PnR summary (Table V) with the timing verdict.

Run:  python examples/energy_area_report.py [--jobs N]
"""

import argparse

from repro import ava_config, native_config
from repro.core.config import BASE_MVL, SCALE_FACTORS
from repro.experiments.engine import SweepSpec, make_executor
from repro.experiments.rendering import render_table
from repro.power.mcpat import McPatModel
from repro.power.physical import PhysicalDesignModel
from repro.workloads import WORKLOAD_NAMES


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cache-dir", default=None,
                        help="persist results under this directory")
    args = parser.parse_args()
    executor = make_executor(jobs=args.jobs,
                             cache=args.cache_dir is not None,
                             cache_dir=args.cache_dir or ".repro-cache")
    mcpat = McPatModel()

    print("== silicon (Fig. 4) ==")
    rows = []
    for scale in SCALE_FACTORS:
        report = mcpat.area(native_config(scale))
        rows.append([report.config_name, f"{report.vrf:.2f}",
                     f"{report.vpu:.3f}", f"{report.total:.2f}"])
    ava_report = mcpat.area(ava_config(8))
    rows.append(["AVA (any MVL)", f"{ava_report.vrf:.2f}",
                 f"{ava_report.vpu:.3f}", f"{ava_report.total:.2f}"])
    print(render_table(["config", "VRF mm2", "VPU mm2", "total mm2"], rows))

    print("\n== energy: baseline vs best AVA reconfiguration ==")
    spec = SweepSpec(workloads=WORKLOAD_NAMES,
                     configs=[ava_config(s) for s in SCALE_FACTORS])
    with executor:
        results = executor.run(spec.cells())
    rows = []
    for name, sweep in spec.chunk_by_workload(results):
        base = sweep[0]
        best = min(sweep, key=lambda r: r.stats.cycles)
        rows.append([
            name, f"X{best.cell.config.mvl // BASE_MVL}",
            f"{base.stats.cycles / best.stats.cycles:.2f}x",
            f"{base.energy.total:,.0f}",
            f"{best.energy.total:,.0f}",
            f"{1 - best.energy.total / base.energy.total:+.0%}",
        ])
    print(render_table(
        ["application", "best", "speedup", "base nJ", "best nJ",
         "energy delta"], rows))

    print("\n== physical design (Table V) ==")
    pnr = PhysicalDesignModel()
    rows = []
    for config in (native_config(8), ava_config(8)):
        r = pnr.evaluate(config)
        rows.append([r.config_name, f"{r.wns_ns:+.3f}",
                     "meets 1 GHz" if r.meets_timing else "FAILS timing",
                     f"{r.power_mw:.0f}", f"{r.area_mm2:.2f}"])
    print(render_table(
        ["config", "WNS ns", "timing", "power mW", "area mm2"], rows))


if __name__ == "__main__":
    main()
