"""PnR surrogate: Table V anchors and extrapolation behaviour."""

import pytest

from repro import ava_config, native_config, rg_config
from repro.power.physical import PhysicalDesignModel


@pytest.fixture
def model():
    return PhysicalDesignModel()


def test_native_x8_anchor(model):
    r = model.evaluate(native_config(8))
    assert r.wns_ns == pytest.approx(-0.244, abs=0.01)
    assert r.power_mw == pytest.approx(2290, abs=25)
    assert r.area_mm2 == pytest.approx(3.90, abs=0.05)
    assert r.density_pct == pytest.approx(61.0, abs=0.3)
    assert r.vrf_macro_power_mw == pytest.approx(388, abs=5)
    assert r.vrf_macro_area_mm2 == pytest.approx(1.252, abs=0.01)
    assert not r.meets_timing


def test_ava_anchor(model):
    r = model.evaluate(ava_config(8))
    assert r.wns_ns == pytest.approx(0.119, abs=0.005)
    assert r.power_mw == pytest.approx(1732, abs=25)
    assert r.area_mm2 == pytest.approx(1.98, abs=0.03)
    assert r.density_pct == pytest.approx(61.8, abs=0.2)
    assert r.ava_structs_power_mw == pytest.approx(5.266)
    assert r.ava_structs_area_mm2 == pytest.approx(0.0042)
    assert r.meets_timing


def test_chip_area_reduction_headline(model):
    reduction = model.area_reduction_vs(ava_config(8), native_config(8))
    assert reduction == pytest.approx(0.492, abs=0.03)  # paper: 50.7%


def test_extrapolated_configs_are_monotone(model):
    areas = [model.evaluate(native_config(s)).area_mm2 for s in (1, 2, 3, 4, 8)]
    wns = [model.evaluate(native_config(s)).wns_ns for s in (1, 2, 3, 4, 8)]
    assert areas == sorted(areas)
    assert wns == sorted(wns, reverse=True)  # bigger chips, worse slack


def test_rg_shares_the_baseline_physical_design(model):
    rg = model.evaluate(rg_config(8))
    native1 = model.evaluate(native_config(1))
    assert rg.vrf_macro_area_mm2 == native1.vrf_macro_area_mm2


def test_rows_render(model):
    rows = model.evaluate(ava_config(8)).rows()
    assert any("WNS" in k for k, _ in rows)
