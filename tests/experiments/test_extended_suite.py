"""End-to-end engine coverage of the extended ten-kernel suite.

Golden-oracle ``check=True`` cells for every new kernel across the MVL
grid, plus the figure builders' selection plumbing (``--extended`` /
``--workloads`` resolve through here).
"""

import pytest

from repro.core.config import ava_config, native_config
from repro.experiments.engine import Cell, CellExecutor, figure3_spec
from repro.experiments.figure3 import build_panels
from repro.experiments.figure4 import build_figure4
from repro.sim.scenario import Scenario
from repro.workloads import EXTENDED_WORKLOAD_NAMES

#: MVL 16 / 64 / 128 — short, mid and the most swap-intensive point.
MVL_GRID = [native_config(1), ava_config(4), ava_config(8)]


@pytest.mark.parametrize("name", EXTENDED_WORKLOAD_NAMES)
def test_new_workloads_check_true_across_the_mvl_grid(name):
    executor = CellExecutor()
    cells = [Cell(name, Scenario(config), check=True)
             for config in MVL_GRID]
    results = executor.run(cells)
    for result in results:
        assert result.correct is True, result.cell.label()
        assert result.stats.cycles > 0
        assert result.energy.total > 0
    # One compile per configuration, even though check replays data.
    assert executor.stats.compiles == len(MVL_GRID)


def test_figure3_spec_covers_the_extended_grid():
    spec = figure3_spec(EXTENDED_WORKLOAD_NAMES)
    names = [cell.workload_name for cell in spec.cells()]
    assert len(names) == len(EXTENDED_WORKLOAD_NAMES) * 14
    assert names[0] == "jacobi2d" and names[-1] == "streamcluster"


def test_figure3_panels_for_a_new_workload():
    panels = build_panels(["pathfinder"])
    panel = panels["pathfinder"]
    assert len(panel.results) == 14
    assert panel.speedup("NATIVE X1") == pytest.approx(1.0)
    assert "Figure 3 panel: pathfinder" in panel.render()


def test_figure4_accepts_a_workload_selection():
    fig4 = build_figure4(workload_names=["jacobi2d"])
    assert fig4.avg_speedups_native[0] == pytest.approx(1.0)
    assert "Figure 4" in fig4.render()

