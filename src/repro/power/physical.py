"""Synthesis / place-and-route surrogate (Table V, §VII).

The paper implements AVA on the Hydra VPU at RTL and reports post-PnR
figures from Cadence Genus/Innovus on GF 22FDX at a 1 GHz target.  No RTL
tools exist in this environment, so this module provides an **analytical
surrogate anchored at the paper's two published rows** (NATIVE X8 and AVA)
that models the mechanisms the paper credits for the differences:

* VRF macro area/power follow memory-compiler scaling laws (sub-linear in
  capacity) fitted through the two published macro figures;
* logic area carries a wiring/floorplan overhead proportional to macro area
  (big macros push lane logic apart);
* worst negative slack degrades with the square root of chip area — the
  paper attributes NATIVE X8's failed timing to "longer wires between the
  SRAMs and the lane logic";
* placement density falls slowly with chip area.

Because the model is anchored, it reproduces Table V exactly at the two
published points and *extrapolates* the intermediate NATIVE configurations
(X2–X4), which the paper does not report; ``repro table5`` prints them as
extra rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import MachineConfig, MachineMode
from repro.power.technology import TECH_22NM, Technology


@dataclass(frozen=True)
class PnrResult:
    """One Table V row."""

    config_name: str
    wns_ns: float
    power_mw: float
    area_mm2: float
    density_pct: float
    vrf_macro_power_mw: float
    vrf_macro_area_mm2: float
    ava_structs_power_mw: float
    ava_structs_area_mm2: float

    @property
    def meets_timing(self) -> bool:
        return self.wns_ns >= 0.0

    @property
    def achievable_ghz(self) -> float:
        """Highest clock the critical path supports."""
        period = 1.0 - self.wns_ns  # target period minus slack = path delay
        return 1.0 / period if period > 0 else float("inf")

    def rows(self) -> list[tuple[str, str]]:
        return [
            ("WNS (ns)", f"{self.wns_ns:+.3f}"),
            ("Power (mW)", f"{self.power_mw:.0f}"),
            ("Area (mm2)", f"{self.area_mm2:.2f}"),
            ("Density", f"{self.density_pct:.1f}%"),
            ("-VRF macros (mW / mm2)",
             f"{self.vrf_macro_power_mw:.0f} / {self.vrf_macro_area_mm2:.3f}"),
            ("-AVA structures (mW / mm2)",
             f"{self.ava_structs_power_mw:.3f} / "
             f"{self.ava_structs_area_mm2:.4f}"),
        ]


class PhysicalDesignModel:
    """Anchored post-PnR estimator for VPU configurations."""

    def __init__(self, tech: Technology = TECH_22NM) -> None:
        self.tech = tech

    def _vrf_kb(self, config: MachineConfig) -> float:
        if config.mode is MachineMode.NATIVE:
            return config.vrf_bytes / 1024.0
        return 8.0  # AVA and RG implement the baseline 8 KB P-VRF

    def evaluate(self, config: MachineConfig) -> PnrResult:
        tech = self.tech
        kb = self._vrf_kb(config)
        macro_area = tech.pnr_macro_area_coeff * kb ** tech.pnr_macro_area_exp
        macro_power = (tech.pnr_macro_power_coeff
                       * kb ** tech.pnr_macro_power_exp)

        has_ava = config.mode is MachineMode.AVA
        structs_area = tech.pnr_ava_structs_mm2 if has_ava else 0.0
        structs_power = tech.pnr_ava_structs_mw if has_ava else 0.0

        logic_area = (tech.pnr_base_logic_mm2
                      + tech.pnr_wiring_overhead
                      * (macro_area - tech.pnr_macro_area_coeff
                         * 8.0 ** tech.pnr_macro_area_exp))
        area = logic_area + macro_area + structs_area

        logic_power = (tech.pnr_base_logic_mw
                       + tech.pnr_power_per_mm2
                       * (area - tech.pnr_ref_area_mm2))
        power = logic_power + macro_power + structs_power

        wns = (tech.pnr_slack0_ns
               - tech.pnr_wire_delay_ns_per_sqrt_mm2
               * (math.sqrt(area) - math.sqrt(tech.pnr_ref_area_mm2)))
        density = (tech.pnr_density0
                   - tech.pnr_density_slope
                   * (area - tech.pnr_ref_area_mm2))

        return PnrResult(
            config_name=config.name,
            wns_ns=wns,
            power_mw=power,
            area_mm2=area,
            density_pct=density,
            vrf_macro_power_mw=macro_power,
            vrf_macro_area_mm2=macro_area,
            ava_structs_power_mw=structs_power,
            ava_structs_area_mm2=structs_area,
        )

    def area_reduction_vs(self, config_a: MachineConfig,
                          config_b: MachineConfig) -> float:
        """Fractional chip-area reduction of A relative to B (§VII: 50.7%)."""
        a = self.evaluate(config_a).area_mm2
        b = self.evaluate(config_b).area_mm2
        return 1.0 - a / b
