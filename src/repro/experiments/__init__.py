"""Experiment harness: one regenerator per table and figure of the paper.

* :mod:`repro.experiments.configs` — Tables II/III configuration matrix,
  Table IV application list;
* :mod:`repro.experiments.engine` — the unified execution engine: sweep
  specs, the cell executor and the persistent content-addressed result
  cache every artifact shares;
* :mod:`repro.experiments.backends` — the two dispatchers (inline /
  process pool, picked by ``jobs``) the executor runs compiles and
  simulations through;
* :mod:`repro.experiments.sweep` — JSON sweep-spec files: named axis
  presets (machine / memory / timing / policy) expanded into engine grids
  behind the ``repro sweep`` CLI artifact;
* :mod:`repro.experiments.sensitivity` — the machine-axis sensitivity
  study (L2 latency × DRAM penalty × swap budget over AVA vs NATIVE);
* :mod:`repro.experiments.figure3` — the six per-application panels
  (memory-instruction breakdown, instruction mix, execution time/speedup,
  energy);
* :mod:`repro.experiments.figure4` — component areas + performance/mm²;
* :mod:`repro.experiments.figure5` — the two floorplans;
* :mod:`repro.experiments.tables` — Tables I and V;
* :mod:`repro.experiments.headline` — every paper claim as one table of
  bounded rows, behind ``repro claims``;
* :mod:`repro.experiments.rendering` — ASCII tables and bar charts.
"""

from repro.experiments.backends import default_jobs
from repro.experiments.configs import (
    figure3_series,
    native_series,
    ava_series,
    rg_series,
)
from repro.experiments.engine import (
    Cell,
    CellError,
    CellExecutionError,
    CellExecutor,
    CellPolicy,
    CellResult,
    Progress,
    ProgressRenderer,
    ResultCache,
    RunRecord,
    SweepSpec,
    make_executor,
)
from repro.experiments.sensitivity import build_sensitivity
from repro.experiments.sweep import parse_sweep, run_sweep

__all__ = [
    "figure3_series",
    "native_series",
    "ava_series",
    "rg_series",
    "Cell",
    "CellError",
    "CellExecutionError",
    "CellExecutor",
    "CellPolicy",
    "CellResult",
    "Progress",
    "ProgressRenderer",
    "ResultCache",
    "SweepSpec",
    "make_executor",
    "RunRecord",
    "build_sensitivity",
    "parse_sweep",
    "run_sweep",
    "default_jobs",
]
