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

Every name in ``__all__`` resolves on first access (PEP 562), so importing
one submodule — ``engine`` or ``figure3`` for a warm render — loads
neither ``sweep`` nor ``sensitivity``.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Public name -> the module that defines it.
_EXPORTS = {
    "figure3_series": "repro.experiments.configs",
    "native_series": "repro.experiments.configs",
    "ava_series": "repro.experiments.configs",
    "rg_series": "repro.experiments.configs",
    "Cell": "repro.experiments.engine",
    "CellError": "repro.experiments.engine",
    "CellExecutionError": "repro.experiments.engine",
    "CellExecutor": "repro.experiments.engine",
    "CellPolicy": "repro.experiments.engine",
    "CellResult": "repro.experiments.engine",
    "Progress": "repro.experiments.engine",
    "ProgressRenderer": "repro.experiments.engine",
    "ResultCache": "repro.experiments.engine",
    "SweepSpec": "repro.experiments.engine",
    "make_executor": "repro.experiments.engine",
    "build_sensitivity": "repro.experiments.sensitivity",
    "parse_sweep": "repro.experiments.sweep",
    "run_sweep": "repro.experiments.sweep",
    "default_jobs": "repro.experiments.backends",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module 'repro.experiments' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
