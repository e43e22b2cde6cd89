"""McPAT-lite area and energy reports."""

import pytest

from repro import ava_config, native_config, rg_config
from repro.power.mcpat import McPatModel
from repro.sim.stats import SimStats


@pytest.fixture
def model():
    return McPatModel()


def test_native_vrf_areas_track_fig4(model):
    areas = [model.area(native_config(s)).vrf for s in (1, 2, 3, 4, 8)]
    assert areas == pytest.approx([0.176, 0.352, 0.528, 0.704, 1.408],
                                  abs=0.01)


def test_ava_area_is_constant_and_small(model):
    reports = [model.area(ava_config(s)) for s in (1, 2, 4, 8)]
    vpus = {round(r.vpu, 4) for r in reports}
    assert len(vpus) == 1  # the paper: 1.126 mm² for every reconfiguration
    assert reports[0].vpu == pytest.approx(1.126, abs=0.01)


def test_rg_builds_the_baseline_vrf(model):
    assert model.area(rg_config(8)).vrf == model.area(native_config(1)).vrf


def test_ava_structs_overhead_055_percent(model):
    report = model.area(ava_config(8))
    assert report.ava_structs / report.vpu == pytest.approx(0.0055, abs=0.001)
    assert model.area(native_config(8)).ava_structs == 0.0


def test_vpu_reduction_53_percent(model):
    ava = model.area(ava_config(8)).vpu
    native = model.area(native_config(8)).vpu
    assert 1 - ava / native == pytest.approx(0.52, abs=0.03)


def _stats(cycles=10_000, **kw):
    base = dict(fpu_element_ops=4096, vrf_reads=8192, vrf_writes=4096,
                l2_reads=512, l2_writes=256, dram_accesses=16)
    base.update(kw)
    return SimStats(cycles=cycles, **base)


def test_energy_report_components(model):
    report = model.energy(native_config(1), _stats())
    assert report.l2_dynamic > 0
    assert report.fpu_dynamic > 0
    assert report.vrf_dynamic > 0


def test_leakage_scales_with_runtime(model):
    short = model.energy(native_config(1), _stats(cycles=1_000))
    long = model.energy(native_config(1), _stats(cycles=10_000))
    assert long.l2_leakage == pytest.approx(10 * short.l2_leakage)
    assert long.l2_dynamic == short.l2_dynamic  # same event counts


def test_native_vrf_leakage_doubles_per_step(model):
    """§VI: 'NATIVE X2..X8 doubles the leakage in each configuration'."""
    stats = _stats()
    leak = [model.energy(native_config(s), stats).vrf_leakage
            for s in (1, 2, 4, 8)]
    assert leak[1] == pytest.approx(2 * leak[0], rel=0.01)
    assert leak[2] == pytest.approx(2 * leak[1], rel=0.01)
    assert leak[3] == pytest.approx(2 * leak[2], rel=0.01)


def test_ava_vrf_energy_stays_at_8kb_level(model):
    stats = _stats()
    ava = model.energy(ava_config(8), stats).vrf_leakage
    native = model.energy(native_config(8), stats).vrf_leakage
    assert ava < 0.3 * native


def test_swap_traffic_charged_to_vrf_and_l2(model):
    quiet = model.energy(ava_config(8), _stats())
    swappy = model.energy(ava_config(8), _stats(
        mvrf_reads=4096, mvrf_writes=4096, l2_reads=2048))
    assert swappy.vrf_dynamic > quiet.vrf_dynamic
    assert swappy.l2_dynamic > quiet.l2_dynamic
