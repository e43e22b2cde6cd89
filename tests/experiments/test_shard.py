"""Sharded sweeps: partitioning, counter merging, end-to-end fan-out.

The invariants under test: the deterministic partition is disjoint and
exhaustive; per-shard counter files merge (field-wise sums) into the
single-run totals; and a warm full render over the shards' shared cache
is byte-identical to an unsharded run, with zero duplicate simulations.
"""

import json
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.core.config import ava_config, native_config
from repro.experiments.engine import ExecutorStats, SweepSpec
from repro.experiments.shard import partition, select_shard, shard_of
from repro.vpu.params import DEFAULT_TIMING
from repro.workloads import get_workload

SMOKE_SPEC = "examples/sweep_smoke.json"


def _small_axpy(n_elements: int = 256):
    workload = get_workload("axpy")
    workload.n_elements = n_elements
    return workload


def _grid_40() -> SweepSpec:
    """A cheap 40-cell grid: 4 machines x 10 timing variants of tiny axpy."""
    return SweepSpec(
        workloads=(_small_axpy(),),
        configs=(native_config(1), ava_config(2), ava_config(4),
                 ava_config(8)),
        params=tuple(replace(DEFAULT_TIMING, arith_dead_time=i)
                     for i in range(10)))


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------
def test_partition_is_disjoint_and_exhaustive():
    cells = _grid_40().cells()
    buckets = partition(cells, 4)
    flat = sorted(i for bucket in buckets for i in bucket)
    assert flat == list(range(len(cells)))  # every position, exactly once


def test_partition_rejects_bad_shapes():
    cells = _grid_40().cells()
    with pytest.raises(ValueError):
        shard_of(cells[0], 0)
    with pytest.raises(ValueError):
        select_shard(cells, 4, 4)
    with pytest.raises(ValueError):
        select_shard(cells, 4, -1)


def test_single_shard_owns_everything():
    cells = _grid_40().cells()
    assert partition(cells, 1) == [list(range(len(cells)))]


# ---------------------------------------------------------------------------
# CLI: --shard-index fan-out, merge, warm full render
# ---------------------------------------------------------------------------
def test_cli_shard_fanout_merges_into_a_byte_identical_sweep(capsys,
                                                             tmp_path):
    """Four `--shard-index` runs over a shared cache dir, then `repro
    merge` + a warm full sweep: the merge sums to the single-run totals
    and the full render replays byte-identically with 0 simulations."""
    cache = ["--cache-dir", str(tmp_path / "cache")]

    # The reference: one ordinary run in its own cache dir.
    assert main(["sweep", SMOKE_SPEC,
                 "--cache-dir", str(tmp_path / "ref")]) == 0
    reference = capsys.readouterr().out

    stats_files = []
    for k in range(4):
        stats_file = tmp_path / f"shard-{k}.json"
        stats_files.append(str(stats_file))
        assert main(["sweep", SMOKE_SPEC, "--shards", "4",
                     "--shard-index", str(k),
                     "--stats-json", str(stats_file)] + cache) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert f"shard {k}/4" in header

    # Every shard wrote a counter file; merging them reconstructs the
    # single-run totals (4 cells, 4 simulations, no hits on a cold fan-out).
    assert main(["merge"] + stats_files) == 0
    merged = capsys.readouterr().out
    assert "merged 4 runs" in merged
    assert "engine: 4 cells requested, 0 cache hits, 4 misses, " \
        "4 simulations executed" in merged
    per_shard = [json.loads(open(f).read())["stats"] for f in stats_files]
    assert sum(s["cells_requested"] for s in per_shard) == 4
    assert sum(s["sims_executed"] for s in per_shard) == 4

    # Warm full sweep over the merged cache: byte-identical, no new work.
    assert main(["sweep", SMOKE_SPEC, "--cache-stats"] + cache) == 0
    warm = capsys.readouterr()
    assert warm.out == reference
    assert "4 cache hits, 0 misses, 0 simulations executed" in warm.err


def test_cli_shard_of_an_empty_bucket_renders_no_cells(capsys, tmp_path):
    """A shard that owns nothing still exits 0 with an explicit header —
    CI matrix jobs must not fail on an unlucky partition."""
    cache = ["--cache-dir", str(tmp_path / "cache")]
    seen_empty = False
    for k in range(4):
        assert main(["sweep", SMOKE_SPEC, "--shards", "4",
                     "--shard-index", str(k)] + cache) == 0
        out = capsys.readouterr().out
        if "(0 of 4 cells)" in out:
            assert "(no cells)" in out
            seen_empty = True
    assert seen_empty  # the smoke grid leaves at least one empty shard


def test_executor_stats_round_trip():
    stats = ExecutorStats(cells_requested=7, cache_hits=2, cache_misses=5,
                          sims_executed=5, retries=1, sim_cycles=1234)
    assert ExecutorStats.from_dict(stats.to_dict()) == stats
    # Unknown keys from a newer writer are ignored, not fatal.
    payload = dict(stats.to_dict(), future_counter=9)
    assert ExecutorStats.from_dict(payload) == stats
