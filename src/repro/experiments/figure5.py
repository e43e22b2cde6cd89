"""Figure 5 regenerator: the NATIVE X8 and AVA floorplans.

Floorplans are derived analytically from the configurations (no
simulation cells), so this artifact takes no engine executor; the claims
table checks the plans :func:`build_figure5` returns.
"""

from __future__ import annotations

from repro.core.config import ava_config, native_config
from repro.power.floorplan import Floorplan, build_floorplan


def build_figure5() -> tuple[Floorplan, Floorplan]:
    """The two dies of Fig. 5 (NATIVE X8 on top, AVA below)."""
    return build_floorplan(native_config(8)), build_floorplan(ava_config(8))


def render_figure5(width: int = 64, height: int = 16) -> str:
    native, ava = build_figure5()
    parts = ["=== Figure 5: post-PnR floorplans ==="]
    for plan in (native, ava):
        parts.append(f"-- {plan.config_name}: "
                     f"{plan.die_width_um:.0f} x {plan.die_height_um:.0f} um "
                     f"({plan.die_area_mm2:.2f} mm2) --")
        parts.append(plan.ascii_art(width, height))
        parts.append(plan.legend())
        parts.append(f"average VRF-macro to lane wire length: "
                     f"{plan.average_macro_lane_wire_um():.0f} um")
    ratio = (native.average_macro_lane_wire_um()
             / max(ava.average_macro_lane_wire_um(), 1e-9))
    parts.append(
        f"NATIVE X8 wires are {ratio:.2f}x longer — the mechanism behind "
        f"its negative slack in Table V (§VII)")
    return "\n".join(parts)
