"""Cell dispatch: selection, equivalence, and the CLI surface.

The dispatch contract: *which* dispatcher runs a batch (inline or
process pool, picked by ``jobs``) changes scheduling only — never a byte
of the rendered artifacts, never the cache contents, never the
user-visible counters a fault-free run reports.
"""

import json
from dataclasses import fields

import pytest

from repro.__main__ import main
from repro.core.config import ava_config, native_config
from repro.experiments.backends import default_jobs
from repro.experiments.engine import (Cell, CellExecutor, CellResult,
                                      ExecutorStats, SweepSpec)
from repro.sim.scenario import Scenario
from repro.workloads import register_workload
from repro.workloads.axpy import Axpy


@pytest.fixture
def cache_args(tmp_path):
    return ["--cache-dir", str(tmp_path / "cache")]


# ---------------------------------------------------------------------------
# dispatcher selection
# ---------------------------------------------------------------------------
def test_executor_picks_backend_from_jobs():
    # Two workloads x two compile signatures: a multi-compile batch.
    spec = SweepSpec(workloads=("axpy", "blackscholes"),
                     configs=(native_config(1), ava_config(8)))
    inline = CellExecutor()
    inline.run(spec.cells())
    assert inline.stats.compiles == 4
    assert inline._pool is None  # jobs=1 never starts a pool
    with CellExecutor(jobs=2) as parallel:
        assert parallel._pool is None  # started lazily ...
        parallel.run(spec.cells())
        assert parallel._pool is not None  # ... by the first pooled batch


def test_default_jobs_is_a_positive_count():
    assert default_jobs() >= 1


# ---------------------------------------------------------------------------
# inline-vs-pool equivalence (the acceptance invariant)
# ---------------------------------------------------------------------------
def test_backends_agree_byte_for_byte():
    spec = SweepSpec(workloads=("axpy",),
                     configs=(native_config(1), ava_config(2), ava_config(4),
                              ava_config(8)))
    inline = CellExecutor().run(spec.cells())
    with CellExecutor(jobs=2) as pooled:
        pool = pooled.run(spec.cells())
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
    sweep = ["sweep", "examples/sweep_smoke.json"]
    assert main(sweep + cache_args) == 0
    first = capsys.readouterr().out
    assert main(sweep + ["--jobs", "auto"] + cache_args) == 0
    assert capsys.readouterr().out == first


def test_jobs_flag_validation(capsys):
    for jobs in ("many", "0"):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "examples/sweep_smoke.json", "--jobs", jobs])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err


def test_chaos_rejects_stats_json(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["chaos", "examples/sweep_smoke.json",
              "--stats-json", str(tmp_path / "x.json")])
    assert excinfo.value.code == 2
    assert not (tmp_path / "x.json").exists()


def test_stats_json_writes_the_run_counters(capsys, tmp_path):
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


class _Unbuildable(Axpy):
    """A registered kernel whose body raises while it is being built."""

    name = "unbuildable-kernel"

    def build_kernel(self):
        raise ValueError("kernel does not build")


def test_failed_cell_still_reports_its_counters(capsys, tmp_path,
                                                 registries):
    """A failed cell exits 1 with a failure report on stderr, and
    --stats-json and --cache-stats still report the run — failure count
    included."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "broken",
                                "workloads": ["axpy", "unbuildable-kernel"],
                                "machines": ["native-x1"]}))
    stats_file = tmp_path / "run.json"
    register_workload(_Unbuildable)
    assert main(["sweep", str(spec), "--jobs", "1", "--cache-stats",
                 "--stats-json", str(stats_file),
                 "--cache-dir", str(tmp_path / "cache")]) == 1
    payload = json.loads(stats_file.read_text())
    assert payload["stats"]["cells_requested"] == 2
    assert payload["stats"]["cells_failed"] == 1
    err = capsys.readouterr().err.splitlines()
    assert "failures: 1 cells failed" in err
    assert ("failed: unbuildable-kernel@NATIVE X1: ValueError: kernel "
            "does not build") in err
    assert err[-1].startswith("1 of 2 cells failed")


def test_extra_positionals_are_lint_only(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["figure3", "axpy", str(tmp_path / "extra.json")])
    assert excinfo.value.code == 2



def test_merge_is_no_longer_an_artifact(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["merge", "x.json"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


def test_stats_json_counters_are_identical_across_jobs(capsys, tmp_path):
    """A fault-free run reports the same counters inline and pooled."""
    counters = {}
    for jobs in ("1", "2"):
        stats_file = tmp_path / f"jobs-{jobs}.json"
        assert main(["sweep", "examples/sweep_smoke.json", "--jobs", jobs,
                     "--stats-json", str(stats_file),
                     "--cache-dir", str(tmp_path / jobs)]) == 0
        counters[jobs] = json.loads(stats_file.read_text())
    capsys.readouterr()
    assert counters["1"] == counters["2"]


def test_stats_json_envelope_is_exactly_the_run_counters(capsys, tmp_path):
    stats_file = tmp_path / "run.json"
    assert main(["figure3", "axpy", "--stats-json", str(stats_file),
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    capsys.readouterr()
    payload = json.loads(stats_file.read_text())
    assert set(payload) == {"schema", "artifact", "name", "stats"}
    assert payload["artifact"] == "figure3"
    assert list(payload["stats"]) == [f.name for f in fields(ExecutorStats)]
    assert all(isinstance(v, int) and v >= 0
               for v in payload["stats"].values())


def test_stats_json_of_a_warm_rerun_counts_only_hits(capsys, tmp_path):
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert main(["sweep", "examples/sweep_smoke.json"] + cache) == 0
    stats_file = tmp_path / "warm.json"
    assert main(["sweep", "examples/sweep_smoke.json",
                 "--stats-json", str(stats_file)] + cache) == 0
    capsys.readouterr()
    stats = json.loads(stats_file.read_text())["stats"]
    assert stats["cells_requested"] == stats["cache_hits"] == 4
    assert stats["cache_misses"] == stats["sims_executed"] == 0
    assert stats["compiles"] == stats["cells_failed"] == 0


def test_disjoint_specs_fill_one_shared_cache(capsys, tmp_path):
    """Cells are keyed by their inputs, so two runs over disjoint halves
    of a grid fill one cache that the whole grid then replays
    byte-identically, with no simulation run twice."""
    smoke = json.loads(open("examples/sweep_smoke.json").read())
    assert main(["sweep", "examples/sweep_smoke.json",
                 "--cache-dir", str(tmp_path / "ref")]) == 0
    reference = capsys.readouterr().out

    cache = ["--cache-dir", str(tmp_path / "shared")]
    for machine in smoke["machines"]:
        half = tmp_path / f"{machine}.json"
        half.write_text(json.dumps(dict(smoke, machines=[machine])))
        assert main(["sweep", str(half), "--cache-stats"] + cache) == 0
        assert ("0 cache hits, 2 misses, 2 simulations executed"
                in capsys.readouterr().err)

    assert main(["sweep", "examples/sweep_smoke.json",
                 "--cache-stats"] + cache) == 0
    warm = capsys.readouterr()
    assert warm.out == reference
    assert "4 cache hits, 0 misses, 0 simulations executed" in warm.err


def test_a_single_job_batch_never_starts_a_pool():
    """One compile and one simulation: nothing to overlap, so even a
    parallel executor runs them inline."""
    with CellExecutor(jobs=2) as executor:
        [result] = executor.run([Cell("axpy", Scenario(native_config(1)))])
        assert executor._pool is None
    assert isinstance(result, CellResult)
    assert executor.stats.compiles == executor.stats.sims_executed == 1
