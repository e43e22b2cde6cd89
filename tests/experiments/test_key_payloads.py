"""Result-cache keys pinned across commits.

``data/key_payloads.json`` records, for every cell of the figure3 grid
over all ten kernels, each claims ablation grid and the three example
sweep specs (``functional_smoke`` is the one with ``check`` set), the
sha256 of :func:`cell_key_payload` with its ``"code"`` entry removed
(the package hash changes with every edit; the rest of the payload must
not).  A refactor of :class:`Cell`, :class:`SweepSpec` or the
sweep parser that moves one key byte fails here, because every cached
result keyed under the old layout would silently miss.

The file is regenerated only together with a ``CACHE_SCHEMA`` bump, from
the repository root::

    PYTHONPATH=src python -m tests.experiments.test_key_payloads
"""

import hashlib
import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.experiments.engine import Cell, cell_key_payload, figure3_spec
from repro.experiments.headline import ABLATIONS
from repro.experiments.sweep import parse_sweep
from repro.workloads import ALL_WORKLOAD_NAMES

PAYLOADS = Path(__file__).parent / "data" / "key_payloads.json"
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _grids() -> Dict[str, List[Cell]]:
    grids = {"figure3": figure3_spec(ALL_WORKLOAD_NAMES).cells()}
    for name, spec in ABLATIONS.items():
        grids[f"ablation-{name}"] = spec.cells()
    for name in ("sweep_smoke", "sensitivity", "functional_smoke"):
        parsed = parse_sweep(EXAMPLES / f"{name}.json")
        grids[name] = [cell for _, cell in parsed.labelled_cells()]
    return grids


def _hash(cell: Cell, fingerprints: Dict[str, str]) -> str:
    name = cell.workload_name
    if name not in fingerprints:
        fingerprints[name] = cell.resolve_workload().compile_fingerprint()
    payload = cell_key_payload(cell, fingerprints[name])
    del payload["code"]
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _all_hashes() -> Dict[str, List[str]]:
    fingerprints: Dict[str, str] = {}
    return {grid: [_hash(cell, fingerprints) for cell in cells]
            for grid, cells in _grids().items()}


@pytest.fixture(scope="module")
def live():
    return _all_hashes()


@pytest.mark.parametrize("grid", sorted(_grids()))
def test_cell_key_payloads_match_pinned(grid, live):
    pinned = json.loads(PAYLOADS.read_text())
    assert live[grid] == pinned[grid], grid


def test_every_pinned_grid_is_checked():
    assert set(json.loads(PAYLOADS.read_text())) == set(_grids())


@pytest.mark.parametrize("grid", sorted(_grids()))
def test_pinned_hashes_neither_merge_nor_split_cells(grid):
    """A regenerated pin keys apart exactly the cells that simulate
    differently: one hash per distinct (workload, simulated scenario,
    check, sanitize)."""
    pinned = json.loads(PAYLOADS.read_text())[grid]
    distinct = {(cell.workload_name, cell.scenario.simulated(), cell.check,
                 cell.sanitize) for cell in _grids()[grid]}
    assert len(set(pinned)) == len(distinct)


if __name__ == "__main__":
    PAYLOADS.parent.mkdir(exist_ok=True)
    PAYLOADS.write_text(json.dumps(_all_hashes(), indent=1, sort_keys=True)
                        + "\n")
