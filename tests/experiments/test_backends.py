"""Execution backends: selection, equivalence, and the CLI surface.

The backend layer's contract: *which* backend runs a batch (inline or
process pool, picked by ``jobs``) changes scheduling only — never a byte
of the rendered artifacts, never the cache contents, never the
user-visible counters a fault-free run reports.
"""

import json

import pytest

from repro.__main__ import main
from repro.core.config import ava_config, native_config
from repro.experiments.backends import (ExecutionBackend, InlineBackend,
                                        ProcessPoolBackend, default_jobs)
from repro.experiments.engine import CellExecutor, ExecutorStats, SweepSpec
from repro.experiments.shard import stats_payload


@pytest.fixture
def cache_args(tmp_path):
    return ["--cache-dir", str(tmp_path / "cache")]


# ---------------------------------------------------------------------------
# backend construction and selection
# ---------------------------------------------------------------------------
def test_executor_picks_backend_from_jobs():
    assert isinstance(CellExecutor().backend, InlineBackend)
    with CellExecutor(jobs=2) as parallel:
        assert isinstance(parallel.backend, ProcessPoolBackend)
        assert parallel.backend.jobs == 2


def test_backend_must_be_bound_before_use():
    backend = InlineBackend()
    with pytest.raises(RuntimeError):
        _ = backend.executor
    with pytest.raises(NotImplementedError):
        ExecutionBackend().execute([], None, None, None)


def test_default_jobs_is_a_positive_count():
    assert default_jobs() >= 1


# ---------------------------------------------------------------------------
# cross-backend equivalence (the acceptance invariant)
# ---------------------------------------------------------------------------
def test_backends_agree_byte_for_byte():
    spec = SweepSpec(workloads=("axpy",),
                     configs=(native_config(1), ava_config(2), ava_config(4),
                              ava_config(8)))
    inline = CellExecutor().run_spec(spec)
    with CellExecutor(jobs=2) as pooled:
        pool = pooled.run_spec(spec)
    for a, b in zip(inline, pool):
        assert a.stats == b.stats
        assert a.energy == b.energy


def test_figure3_stdout_identical_across_backends(capsys, tmp_path):
    """The headline acceptance: figure3 renders the same bytes whether the
    grid ran inline (--jobs 1) or over a pool (--jobs 2)."""
    outputs = {}
    for jobs in ("1", "2"):
        cache = ["--cache-dir", str(tmp_path / jobs)]
        assert main(["figure3", "axpy", "--jobs", jobs] + cache) == 0
        outputs[jobs] = capsys.readouterr().out
    assert outputs["1"] == outputs["2"]
    assert "Figure 3 panel: axpy" in outputs["1"]


# ---------------------------------------------------------------------------
# CLI flag surface
# ---------------------------------------------------------------------------
def test_jobs_auto_is_the_default_and_spelled_form(capsys, cache_args):
    assert main(["table2"] + cache_args) == 0
    first = capsys.readouterr().out
    assert main(["table2", "--jobs", "auto"] + cache_args) == 0
    assert capsys.readouterr().out == first


def test_jobs_flag_validation():
    with pytest.raises(SystemExit):
        main(["table2", "--jobs", "many"])
    with pytest.raises(SystemExit):
        main(["table2", "--jobs", "0"])


def test_shard_flag_validation(cache_args):
    # --shard-index is sweep-only and needs --shards.
    with pytest.raises(SystemExit):
        main(["figure3", "axpy", "--shard-index", "0", "--shards", "2"]
             + cache_args)
    with pytest.raises(SystemExit):
        main(["sweep", "examples/sweep_smoke.json", "--shard-index", "0"]
             + cache_args)
    # Out of range and bad counts.
    with pytest.raises(SystemExit):
        main(["sweep", "examples/sweep_smoke.json", "--shards", "2",
              "--shard-index", "2"] + cache_args)
    with pytest.raises(SystemExit):
        main(["sweep", "examples/sweep_smoke.json", "--shards", "0",
              "--shard-index", "0"] + cache_args)
    # --shards is only valid with sweep --shard-index.
    with pytest.raises(SystemExit):
        main(["table2", "--shards", "4"] + cache_args)
    with pytest.raises(SystemExit):
        main(["sweep", "examples/sweep_smoke.json", "--shards", "2"]
             + cache_args)


def test_chaos_rejects_stats_json(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["chaos", "examples/sweep_smoke.json",
              "--stats-json", str(tmp_path / "x.json")])
    assert excinfo.value.code == 2
    assert not (tmp_path / "x.json").exists()


def test_stats_json_writes_a_mergeable_counter_file(capsys, tmp_path):
    stats_file = tmp_path / "run.json"
    assert main(["sweep", "examples/sweep_smoke.json",
                 "--stats-json", str(stats_file),
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    capsys.readouterr()
    payload = json.loads(stats_file.read_text())
    assert payload["schema"] == 1
    assert payload["artifact"] == "sweep"
    assert payload["name"] == "sweep_smoke"
    assert payload["stats"]["cells_requested"] == 4
    assert payload["stats"]["sims_executed"] == 4
    assert payload["shard_index"] is None


def test_merge_artifact_sums_counter_files(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(stats_payload(
        ExecutorStats(cells_requested=3, cache_misses=3, sims_executed=3),
        artifact="sweep", name="demo", shards=2, shard_index=0)))
    b.write_text(json.dumps(stats_payload(
        ExecutorStats(cells_requested=1, cache_hits=1),
        artifact="sweep", name="demo", shards=2, shard_index=1)))
    assert main(["merge", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "merged 2 runs" in out
    assert "a.json (demo, shard 0/2): 3 cells, 0 hits, 3 simulations" in out
    assert ("engine: 4 cells requested, 1 cache hits, 3 misses, "
            "3 simulations executed") in out


def test_merge_rejects_missing_and_malformed_files(tmp_path):
    with pytest.raises(SystemExit):
        main(["merge"])  # nothing to merge
    with pytest.raises(SystemExit):
        main(["merge", str(tmp_path / "absent.json")])
    bad = tmp_path / "bad.json"
    bad.write_text("{\"schema\": 99}")
    with pytest.raises(SystemExit):
        main(["merge", str(bad)])


@pytest.mark.parametrize("value", [None, [1, 2], 2.7, -1, True],
                         ids=["null", "list", "float", "negative", "bool"])
def test_merge_rejects_a_non_count_counter(capsys, tmp_path, value):
    """A counter that is not a non-negative int is a usage error naming
    the file and the field — never a traceback, never a truncation."""
    path = tmp_path / "shard.json"
    payload = stats_payload(ExecutorStats(cells_requested=3))
    payload["stats"]["sims_executed"] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exit_info:
        main(["merge", str(path)])
    assert exit_info.value.code == 2  # parser.error, not a crash
    err = capsys.readouterr().err
    assert str(path) in err
    assert "sims_executed" in err


def test_merge_rejects_stray_run_flags(tmp_path):
    stats = tmp_path / "s.json"
    stats.write_text(json.dumps(stats_payload(ExecutorStats())))
    with pytest.raises(SystemExit):
        # Extra positional FILEs are merge-only.
        main(["figure3", "axpy", str(stats)])
