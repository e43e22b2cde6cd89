"""Figure builders: panels, Figure 4 and Figure 5."""

import pytest

from repro.experiments.engine import (Cell, CellExecutor, fill_speedups,
                                      record_from_result)
from repro.experiments.figure3 import build_panels
from repro.experiments.figure4 import build_figure4
from repro.experiments.figure5 import build_figure5, render_figure5
from repro.core.config import SCALE_FACTORS, ava_config, native_config
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def axpy_panel():
    return build_panels(["axpy"])["axpy"]


def test_panel_has_all_14_bars(axpy_panel):
    assert len(axpy_panel.records) == 14
    assert axpy_panel.record("NATIVE X1").speedup == pytest.approx(1.0)
    with pytest.raises(KeyError):
        axpy_panel.record("NATIVE X9")


def test_panel_rows_are_complete(axpy_panel):
    assert len(axpy_panel.memory_breakdown_rows()) == 14
    assert len(axpy_panel.mix_rows()) == 14
    assert len(axpy_panel.performance_rows()) == 14
    assert len(axpy_panel.energy_rows()) == 14


def test_panel_render_contains_all_four_charts(axpy_panel):
    text = axpy_panel.render()
    for marker in ("memory instructions", "instruction mix",
                   "execution time", "energy"):
        assert marker in text


def test_figure4_from_precomputed_records():
    """Figure 4 can reuse engine output instead of re-simulating."""
    cfgs = ([native_config(s) for s in SCALE_FACTORS]
            + [ava_config(s) for s in SCALE_FACTORS])
    results = CellExecutor().run(
        [Cell(workload=get_workload("axpy"), config=cfg) for cfg in cfgs])
    records = {"axpy": fill_speedups(
        [record_from_result(r) for r in results])}
    fig4 = build_figure4(per_workload=records)
    assert len(fig4.native_perf_mm2) == len(SCALE_FACTORS)
    assert fig4.avg_speedups_native[0] == pytest.approx(1.0)
    assert fig4.ava_perf_mm2[-1] > fig4.native_perf_mm2[-1]
    assert "Figure 4" in fig4.render()


def test_figure5_builders():
    native, ava = build_figure5()
    assert native.config_name == "NATIVE X8"
    assert ava.config_name == "AVA X8"
    text = render_figure5()
    assert "longer" in text  # the wire-length comparison line
