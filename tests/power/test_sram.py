"""CACTI-lite SRAM model."""

import math

import pytest

from repro.power.sram import (
    sram_access_energy_pj,
    sram_area_mm2,
    sram_leakage_mw,
)


def test_fig4_anchor_points():
    """8 KB 4R/2W = 0.18 mm²; 64 KB = 1.41 mm² (Fig. 4)."""
    assert sram_area_mm2(8 * 1024, ports=6) == pytest.approx(0.176, abs=0.01)
    assert sram_area_mm2(64 * 1024, ports=6) == pytest.approx(1.41, abs=0.02)


def test_area_linear_in_capacity():
    a = sram_area_mm2(8 * 1024)
    assert sram_area_mm2(16 * 1024) == pytest.approx(2 * a)


def test_ports_cost_area():
    assert sram_area_mm2(8 * 1024, ports=6) > sram_area_mm2(8 * 1024, ports=2)


def test_leakage_proportional_to_area():
    ratio_area = sram_area_mm2(32 * 1024) / sram_area_mm2(8 * 1024)
    ratio_leak = sram_leakage_mw(32 * 1024) / sram_leakage_mw(8 * 1024)
    assert ratio_leak == pytest.approx(ratio_area)


def test_access_energy_sqrt_scaling():
    e8 = sram_access_energy_pj(8 * 1024)
    e32 = sram_access_energy_pj(32 * 1024)
    assert e32 == pytest.approx(e8 * math.sqrt(4))


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        sram_area_mm2(-1)
