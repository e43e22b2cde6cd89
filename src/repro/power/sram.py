"""CACTI-lite SRAM model: area, access energy and leakage vs size and ports.

A deliberately small analytical model with the scaling laws that matter for
the paper's comparisons:

* **area** grows linearly with capacity and with port count (each additional
  port beyond the 2-port base cell adds ``port_area_factor`` of the cell);
* **access energy** grows with the square root of capacity (bitline/wordline
  length) and linearly with... nothing else at this fidelity;
* **leakage** is proportional to area.

The constants are anchored so a 4R/2W VRF matches the paper's published
Fig. 4 points exactly (8 KB -> 0.18 mm², 64 KB -> 1.41 mm²).
"""

from __future__ import annotations

import math

from repro.power.technology import TECH_22NM, Technology

#: Reference VRF size for the sqrt energy scaling.
_REF_KB = 8.0


def _port_scale(ports: int, tech: Technology) -> float:
    """Area multiplier of a ``ports``-port cell relative to the anchor."""
    anchor = 1.0 + tech.port_area_factor * (tech.vrf_ports - 2)
    return (1.0 + tech.port_area_factor * (max(ports, 2) - 2)) / anchor


def sram_area_mm2(size_bytes: int, ports: int = 6,
                  tech: Technology = TECH_22NM) -> float:
    """Silicon area of an SRAM of ``size_bytes`` with ``ports`` ports."""
    if size_bytes < 0:
        raise ValueError("size must be non-negative")
    kb = size_bytes / 1024.0
    return tech.vrf_mm2_per_kb * kb * _port_scale(ports, tech)


def sram_leakage_mw(size_bytes: int, ports: int = 6,
                    tech: Technology = TECH_22NM) -> float:
    """Leakage power, proportional to area."""
    kb = size_bytes / 1024.0
    return tech.vrf_leak_mw_per_kb * kb * _port_scale(ports, tech)


def sram_access_energy_pj(size_bytes: int, element_bytes: int = 8,
                          tech: Technology = TECH_22NM) -> float:
    """Energy of one ``element_bytes`` access (sqrt-capacity scaling)."""
    kb = max(size_bytes / 1024.0, 0.25)
    scale = math.sqrt(kb / _REF_KB) * (element_bytes / 8.0)
    return tech.vrf_pj_per_element * scale

