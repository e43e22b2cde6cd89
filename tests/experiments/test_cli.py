"""The `python -m repro` command-line regenerators."""

import pytest

from repro.__main__ import main


@pytest.fixture
def cache_args(tmp_path):
    """Point the CLI's result cache at a throwaway directory."""
    return ["--cache-dir", str(tmp_path / "cache")]


def test_table_artifacts(capsys, cache_args):
    for artifact, marker in (("table1", "P-Regs"), ("table2", "NATIVE X8"),
                             ("table3", "RG-LMUL8"), ("table4", "somier"),
                             ("table5", "WNS")):
        assert main([artifact] + cache_args) == 0
        assert marker in capsys.readouterr().out


def test_figure5_artifact(capsys, cache_args):
    assert main(["figure5"] + cache_args) == 0
    out = capsys.readouterr().out
    assert "floorplans" in out and "lane" in out


def test_figure3_single_app(capsys, cache_args):
    assert main(["figure3", "axpy"] + cache_args) == 0
    out = capsys.readouterr().out
    assert "Figure 3 panel: axpy" in out
    assert "Swap-L" in out


def test_figure3_no_cache_flag(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    assert main(["figure3", "axpy", "--no-cache",
                 "--cache-dir", str(cache_dir)]) == 0
    assert "Figure 3 panel: axpy" in capsys.readouterr().out
    assert not cache_dir.exists()  # --no-cache must not touch the disk


def test_figure3_warm_cache_skips_simulation(capsys, cache_args):
    assert main(["figure3", "axpy", "--cache-stats"] + cache_args) == 0
    first = capsys.readouterr()
    assert "14 simulations executed" in first.err

    assert main(["figure3", "axpy", "--cache-stats"] + cache_args) == 0
    second = capsys.readouterr()
    assert "Figure 3 panel: axpy" in second.out
    assert second.out == first.out  # cache replay is byte-identical
    assert "14 cache hits" in second.err
    assert "0 simulations executed" in second.err


def test_figure3_warm_cache_reports_memoized_compiles(capsys, cache_args):
    """Warm replays are keyed by compile inputs alone: zero compiles, zero
    trace-store reads, zero simulations."""
    assert main(["figure3", "axpy", "--cache-stats"] + cache_args) == 0
    cold = capsys.readouterr().err
    # 14 chart configs collapse to 8 distinct (mvl, n_logical) signatures.
    assert "14 simulations executed, 8 kernel compiles" in cold
    assert "8 trace misses" in cold
    assert main(["figure3", "axpy", "--cache-stats"] + cache_args) == 0
    err = capsys.readouterr().err
    assert ("0 simulations executed, 0 kernel compiles, "
            "0 trace hits, 0 trace misses") in err


def test_warm_render_survives_a_cleared_trace_store(capsys, cache_args):
    """A cache hit reads no trace: wiping the trace store must leave the
    warm render byte-identical with nothing compiled or loaded."""
    assert main(["figure3", "axpy"] + cache_args) == 0
    cold = capsys.readouterr().out
    assert main(["cache", "clear", "--traces"] + cache_args) == 0
    assert "cleared 8 trace entries" in capsys.readouterr().out
    assert main(["figure3", "axpy", "--cache-stats"] + cache_args) == 0
    warm = capsys.readouterr()
    assert warm.out == cold
    assert ("14 cache hits, 0 misses, 0 simulations executed, "
            "0 kernel compiles, 0 trace hits, 0 trace misses") in warm.err


def test_figure3_accepts_extended_workload_names(capsys, cache_args):
    assert main(["figure3", "pathfinder"] + cache_args) == 0
    assert "Figure 3 panel: pathfinder" in capsys.readouterr().out


def test_figure3_workloads_selector(capsys, cache_args):
    assert main(["figure3", "all", "--workloads", "pathfinder"]
                + cache_args) == 0
    out = capsys.readouterr().out
    assert "Figure 3 panel: pathfinder" in out
    assert "Figure 3 panel: axpy" not in out


def test_figure3_bare_extended_runs_the_ten_kernel_suite(monkeypatch,
                                                         capsys, cache_args):
    """`figure3 --extended` (no positional) means the whole suite, while a
    bare `figure3` keeps rendering only the default axpy panel."""
    from types import SimpleNamespace

    import repro.experiments.figure3 as figure3
    from repro.workloads import ALL_WORKLOAD_NAMES

    seen = []

    def fake_build_panels(names, executor=None):
        seen.append(list(names))
        return {n: SimpleNamespace(render=lambda n=n: f"panel {n}")
                for n in names}

    monkeypatch.setattr(figure3, "build_panels", fake_build_panels)
    assert main(["figure3", "--extended"] + cache_args) == 0
    assert main(["figure3"] + cache_args) == 0
    assert main(["figure3", "somier", "--extended"] + cache_args) == 0
    assert seen == [ALL_WORKLOAD_NAMES, ["axpy"], ["somier"]]
    capsys.readouterr()


def test_progress_renders_to_stderr_and_never_touches_stdout(capsys,
                                                             cache_args):
    assert main(["figure3", "axpy", "--progress"] + cache_args) == 0
    first = capsys.readouterr()
    assert "\r" in first.err and "figure3:" in first.err
    assert "14/14 cells" in first.err
    assert "cells |" not in first.out  # stdout is artifact-only

    # Same artifact without progress: stdout must be byte-identical.
    assert main(["figure3", "axpy", "--no-progress"] + cache_args) == 0
    second = capsys.readouterr()
    assert second.out == first.out
    assert second.err == ""


def test_progress_defaults_off_when_stderr_is_not_a_terminal(capsys,
                                                             cache_args):
    """Piped/captured stderr (like CI greps) stays clean by default."""
    assert main(["figure3", "axpy"] + cache_args) == 0
    assert capsys.readouterr().err == ""


def test_progress_line_precedes_cache_stats_cleanly(capsys, cache_args):
    """--progress and --cache-stats share stderr without interleaving."""
    assert main(["figure3", "axpy", "--progress", "--cache-stats"]
                + cache_args) == 0
    err = capsys.readouterr().err
    assert "8 kernel compiles" in err
    stats_section = err[err.rindex("engine:"):]
    assert "\r" not in stats_section  # the live line was terminated first
    assert err[err.rindex("engine:") - 1] == "\n"


def test_claims_exit_status_follows_the_claims(capsys, cache_args,
                                              monkeypatch):
    """A "NO" row fails the run with exit 1; stdout is the same table."""
    from repro.experiments import headline
    verdicts = {"holds": [headline.Claim("c", "1x", 1.0, 1.0, 1.0)],
                "fails": [headline.Claim("c", "1x", headline.below(1.0),
                                         lo=1.0)]}
    for outcome, code in (("holds", 0), ("fails", 1)):
        claims = verdicts[outcome]
        monkeypatch.setattr(headline, "check_headline_claims",
                            lambda **_: claims)
        assert main(["claims"] + cache_args) == code
        assert capsys.readouterr().out == headline.render_claims(claims) + "\n"


def test_unknown_workload_selection_rejected(cache_args):
    with pytest.raises(SystemExit):
        main(["figure3", "doom"] + cache_args)
    with pytest.raises(SystemExit):
        main(["figure3", "all", "--workloads", "axpy,doom"] + cache_args)


@pytest.mark.parametrize("argv", [["figure7"], ["bench", "engine"]] + [
    [artifact, "bogus"] for artifact in ("table1", "table2", "table3",
                                         "table4", "table5", "figure4",
                                         "figure5", "claims")])
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


def test_cache_stats_reports_both_stores(capsys, cache_args):
    assert main(["figure3", "axpy"] + cache_args) == 0
    capsys.readouterr()
    assert main(["cache"] + cache_args) == 0  # bare cache == cache stats
    out = capsys.readouterr().out
    assert "results: 14 entries" in out
    assert "traces: 8 entries" in out


def test_cache_clear_results_keeps_traces_warm(capsys, cache_args):
    """The warm-trace workflow: wipe results, keep traces, replay with
    zero compiles."""
    assert main(["figure3", "axpy"] + cache_args) == 0
    capsys.readouterr()
    assert main(["cache", "clear", "--results"] + cache_args) == 0
    out = capsys.readouterr().out
    assert "cleared 14 result entries" in out
    assert "trace entries" not in out  # --results never touches traces

    assert main(["figure3", "axpy", "--cache-stats"] + cache_args) == 0
    err = capsys.readouterr().err
    assert "14 simulations executed, 0 kernel compiles" in err
    assert "8 trace hits, 0 trace misses" in err


def test_cache_clear_wipes_both_stores_by_default(capsys, cache_args):
    assert main(["figure3", "axpy"] + cache_args) == 0
    capsys.readouterr()
    assert main(["cache", "clear"] + cache_args) == 0
    out = capsys.readouterr().out
    assert "cleared 14 result entries" in out
    assert "cleared 8 trace entries" in out
    assert main(["cache", "stats"] + cache_args) == 0
    out = capsys.readouterr().out
    assert "results: 0 entries" in out
    assert "traces: 0 entries" in out


def test_cache_flag_validation():
    with pytest.raises(SystemExit):
        main(["cache", "prune"])  # unknown action
    with pytest.raises(SystemExit):
        main(["cache", "stats", "--traces"])  # flags are clear-only
    with pytest.raises(SystemExit):
        main(["cache", "--no-cache"])  # contradiction
    with pytest.raises(SystemExit):
        main(["figure3", "axpy", "--traces"])  # flags are cache-only
