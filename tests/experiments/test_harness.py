"""Experiment harness: configs, rendering, tables."""

from dataclasses import replace

import pytest

from repro.experiments.configs import (
    ava_series,
    equivalence_rows,
    figure3_series,
    native_series,
    rg_series,
)
from repro.experiments.engine import Cell, CellExecutor, speedups
from repro.experiments.rendering import render_bars, render_table
from repro.experiments.tables import (
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
)
from repro.core.config import native_config
from repro.sim.scenario import Scenario
from repro.sim.stats import SimStats
from repro.workloads import get_workload


def test_series_shapes():
    assert len(native_series()) == 5
    assert len(ava_series()) == 5
    assert len(rg_series()) == 4
    series = figure3_series()
    assert len(series) == 14  # 5 native + 5 ava + 4 rg
    assert series[0].name == "NATIVE X1"
    assert series[-1].name == "AVA X8"


def test_x3_has_no_rg_equivalent():
    names = [cfg.name for cfg in figure3_series()]
    assert "RG-LMUL3" not in names
    rows = equivalence_rows()
    assert ("NATIVE X3", "AVA X3 (21-PREG)", "NA") in rows


def test_engine_cell_with_check():
    [result] = CellExecutor().run(
        [Cell(get_workload("axpy"), Scenario(native_config(1)), check=True)])
    assert result.correct is True
    assert result.stats.cycles > 0
    assert result.energy.total > 0


def test_speedups_normalise_against_the_baseline():
    results = CellExecutor().run(
        [Cell("axpy", Scenario(cfg))
         for cfg in (native_config(1), native_config(8))])
    base, wide = speedups(results)
    assert base == 1.0
    assert wide == results[0].stats.cycles / results[1].stats.cycles > 1.0
    # A zero-cycle result reads 0.0 instead of dividing by zero.
    stalled = replace(results[1], stats=SimStats(cycles=0))
    assert speedups([results[0], stalled]) == [1.0, 0.0]


def test_runner_stub_is_gone():
    """The one-release compat stub served its release; it no longer exists."""
    import importlib
    import sys

    sys.modules.pop("repro.experiments.runner", None)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.experiments.runner")
    import repro.experiments
    assert not hasattr(repro.experiments, "run_cell")


def test_render_table_alignment():
    text = render_table(["a", "bbbb"], [[1, 2], [333, 4]])
    lines = text.splitlines()
    assert len({len(l) for l in lines}) == 1  # constant width


def test_render_bars():
    text = render_bars([("one", 1.0), ("two", 2.0)])
    assert text.splitlines()[1].count("#") > text.splitlines()[0].count("#")


def test_static_tables_render():
    assert "64" in render_table1()
    assert "NATIVE X8" in render_table2()
    assert "RG-LMUL8" in render_table3()
    assert "blackscholes" in render_table4()
    assert "WNS" in render_table5()
