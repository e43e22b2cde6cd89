"""Deterministic grid sharding and per-shard counter merging.

A sweep over a (workload × machine × timing × memory × policy) grid is
embarrassingly partitionable: every cell is independent and the shared
content-addressed ``.repro-cache`` is already concurrent-safe (atomic
writes, checksummed entries).  This module supplies the two pieces that
turn one grid into N cooperating runs:

* :func:`shard_of` / :func:`partition` — a deterministic, reorder-stable
  assignment of cells to shards.  The shard of a cell depends only on
  the cell's *identity* (workload name, full scenario, execution flags),
  hashed with sha256 — never on its position in the grid, the process,
  or the Python hash seed — so every host computes the same partition
  and the shards are disjoint and exhaustive by construction;
* :func:`merge_stats` — an associative, commutative,
  identity-preserving merge of
  :class:`~repro.experiments.engine.ExecutorStats` counters (the
  ``merge-counters.py`` pattern): per-shard counter files combine into
  one batch summary in any order.

From the CLI, ``repro sweep --shards N --shard-index K`` runs only shard
K's cells (writing its counters with ``--stats-json``), and ``repro
merge`` combines the per-shard counter files once every shard has landed
in the shared cache dir — a warm full-sweep rerun then renders the
figures with zero duplicate simulations.  Resuming a killed shard needs
nothing more: the streaming cache replays its finished cells as hits.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.experiments.engine import Cell, ExecutorStats, _scenario_key

#: Schema of the ``--stats-json`` counter files ``repro merge`` consumes.
STATS_SCHEMA = 1


# ---------------------------------------------------------------------------
# deterministic partitioning
# ---------------------------------------------------------------------------
def shard_key(cell: Cell) -> str:
    """A cell's shard-assignment identity, as a stable content hash.

    Deliberately *cheaper* than the result-cache key: no workload compile
    fingerprint (partitioning must not build kernels), no code fingerprint
    (all hosts of one sweep run the same code by contract, and the
    partition must survive code edits so a resumed shard re-runs the same
    cells).
    Two cells that would produce the same result always land in the same
    shard, so the in-batch dedupe keeps working per shard.
    """
    payload = {
        "workload": cell.workload_name,
        "scenario": _scenario_key(cell.scenario()),
        "functional": cell.functional,
        "warm": cell.warm,
        "check": cell.check,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def shard_of(cell: Cell, shards: int) -> int:
    """The shard index in ``[0, shards)`` this cell belongs to."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    return int(shard_key(cell), 16) % shards


def partition(cells: Sequence[Cell], shards: int) -> List[List[int]]:
    """Positions of ``cells`` grouped per shard.

    Disjoint and exhaustive by construction (every position lands in
    exactly one bucket) and stable under reordering: membership is a
    pure function of the cell, so permuting the input only permutes
    positions *within* buckets, never cells *across* them.
    """
    buckets: List[List[int]] = [[] for _ in range(shards)]
    for i, cell in enumerate(cells):
        buckets[shard_of(cell, shards)].append(i)
    return buckets


def select_shard(cells: Sequence[Cell], shards: int,
                 shard_index: int) -> List[int]:
    """Positions of the cells shard ``shard_index`` owns."""
    if not 0 <= shard_index < shards:
        raise ValueError(
            f"shard index must be in [0, {shards}), got {shard_index}")
    return partition(cells, shards)[shard_index]


# ---------------------------------------------------------------------------
# counter merging (merge-counters.py style)
# ---------------------------------------------------------------------------
def merge_stats(*stats: ExecutorStats) -> ExecutorStats:
    """Field-wise sum of executor counter sets.

    Associative and commutative (integer addition per field) with
    ``ExecutorStats()`` as the identity, so per-shard counter files merge
    into the same batch summary in any order and any grouping —
    ``merge(a, merge(b, c)) == merge(merge(a, b), c)``.
    """
    merged = ExecutorStats()
    for one in stats:
        for f in fields(ExecutorStats):
            setattr(merged, f.name,
                    getattr(merged, f.name) + getattr(one, f.name))
    return merged


# ---------------------------------------------------------------------------
# per-shard counter files (`--stats-json` / `repro merge`)
# ---------------------------------------------------------------------------
def stats_payload(stats: ExecutorStats, *, artifact: str = "",
                  name: str = "", shards: Optional[int] = None,
                  shard_index: Optional[int] = None) -> dict:
    """The JSON document one run's ``--stats-json FILE`` writes."""
    return {
        "schema": STATS_SCHEMA,
        "artifact": artifact,
        "name": name,
        "shards": shards,
        "shard_index": shard_index,
        "stats": stats.to_dict(),
    }


def load_stats_file(path: Union[str, Path]) -> dict:
    """Read and validate one counter file; raises ``ValueError`` on
    anything ``repro merge`` cannot safely sum."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read stats file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if (not isinstance(payload, dict)
            or payload.get("schema") != STATS_SCHEMA
            or not isinstance(payload.get("stats"), dict)):
        raise ValueError(f"{path} is not a repro stats file "
                         f"(expected schema {STATS_SCHEMA})")
    try:
        ExecutorStats.from_dict(payload["stats"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return payload


def render_merge(paths: Sequence[Union[str, Path]]) -> str:
    """The ``repro merge`` body: per-shard one-liners plus the merged
    summary (whose first line is the same grep interface every run
    prints under ``--cache-stats``)."""
    payloads = [load_stats_file(p) for p in paths]
    per_shard = [ExecutorStats.from_dict(p["stats"]) for p in payloads]
    merged = merge_stats(*per_shard)
    lines = [f"merged {len(payloads)} runs"]
    for path, payload, stats in zip(paths, payloads, per_shard):
        tags = []
        if payload.get("name"):
            tags.append(str(payload["name"]))
        if payload.get("shard_index") is not None:
            tags.append(f"shard {payload['shard_index']}"
                        + (f"/{payload['shards']}"
                           if payload.get("shards") else ""))
        tag = f" ({', '.join(tags)})" if tags else ""
        lines.append(f"  {Path(path).name}{tag}: "
                     f"{stats.cells_requested} cells, "
                     f"{stats.cache_hits} hits, "
                     f"{stats.sims_executed} simulations, "
                     f"{stats.cells_failed} failed")
    lines.append(merged.summary())
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# sharded sweep rendering (`repro sweep --shard-index K`)
# ---------------------------------------------------------------------------
def run_sweep_shard(parsed, executor, *, shards: int,
                    shard_index: int) -> str:
    """Run only shard ``shard_index`` of a parsed sweep and render its
    rows.

    The header names the shard and the owned/total cell counts; the
    table shares the full sweep's column layout, so eyeballing shard
    outputs side by side lines up.  The full-grid render comes later,
    from a warm rerun over the merged cache — never by concatenating
    shard tables.
    """
    from repro.experiments.sweep import render_rows
    pairs = parsed.labelled_cells()
    owned = select_shard([cell for _, cell in pairs], shards, shard_index)
    picked = [pairs[i] for i in owned]
    results = executor.run(
        [cell for _, cell in picked],
        label=f"{parsed.name} [shard {shard_index}/{shards}]")
    header = (f"=== sweep: {parsed.name} shard {shard_index}/{shards} === "
              f"({len(picked)} of {len(pairs)} cells)")
    body = render_rows(parsed, [label for label, _ in picked], results)
    return header + "\n" + body if picked else header + "\n(no cells)"
