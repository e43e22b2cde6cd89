"""The `python -m repro` command-line regenerators."""

from pathlib import Path

import pytest

from repro.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SMOKE_SPEC = str(REPO_ROOT / "examples" / "sweep_smoke.json")


@pytest.fixture
def cache_args(tmp_path):
    """Point the CLI's result cache at a throwaway directory."""
    return ["--cache-dir", str(tmp_path / "cache")]


def test_table_artifacts(capsys):
    for artifact, marker in (("table1", "P-Regs"), ("table2", "NATIVE X8"),
                             ("table3", "RG-LMUL8"), ("table4", "somier"),
                             ("table5", "WNS")):
        assert main([artifact]) == 0
        assert marker in capsys.readouterr().out


def test_figure5_artifact(capsys):
    assert main(["figure5"]) == 0
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
    """Warm replays are keyed by compile inputs alone: zero compiles and
    zero simulations."""
    assert main(["figure3", "axpy", "--cache-stats"] + cache_args) == 0
    cold = capsys.readouterr().err
    # 14 chart configs collapse to 8 distinct (mvl, n_logical) signatures.
    assert "14 simulations executed, 8 kernel compiles" in cold
    assert main(["figure3", "axpy", "--cache-stats"] + cache_args) == 0
    err = capsys.readouterr().err
    assert ("14 cache hits, 0 misses, 0 simulations executed, "
            "0 kernel compiles\n") in err


def test_cold_run_compiles_where_it_simulates_and_stores_no_trace(
        capsys, tmp_path):
    """Each pair job compiles its program and keeps it in memory: a cold
    run writes results only, and the engine line ends at its compiles."""
    cache_dir = tmp_path / "cache"
    assert main(["figure3", "axpy", "--cache-stats",
                 "--cache-dir", str(cache_dir)]) == 0
    engine_line = capsys.readouterr().err.splitlines()[0]
    # One compile per (workload, mvl, n_logical) pair: 8 for 14 charts.
    assert engine_line.endswith(
        "14 simulations executed, 8 kernel compiles")
    assert "trace" not in engine_line
    assert len(list(cache_dir.glob("*.json"))) == 14
    assert not (cache_dir / "traces").exists()


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


@pytest.mark.parametrize("argv, message", [
    (["figure3", "nosuch"], "unknown workload 'nosuch'"),
    (["figure3", "all", "--workloads", ","], "empty workload selection"),
    (["lint", "--rules", "Z999"], "unknown lint rule 'Z999'")],
    ids=["unknown-workload", "empty-selection", "unknown-lint-rule"])
def test_selection_errors_print_the_bare_message(argv, message, capsys,
                                                 cache_args):
    """A ``KeyError`` message reaches stderr as written, not repr-quoted."""
    if argv[0] != "lint":
        argv = argv + cache_args
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["figure7"], ["bench", "engine"]] + [
    [artifact, "bogus"] for artifact in ("table1", "table2", "table3",
                                         "table4", "table5", "figure4",
                                         "figure5", "claims")])
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv", [
    ["table1", "--jobs", "2"],
    ["figure5", "--cache-stats"],
    ["lint", str(REPO_ROOT / "src" / "repro"), "--cache-dir", "unused"],
    ["figure3", "axpy", "--seed", "3"],
    ["cache", "--sanitize"],
    ["sensitivity", "--extended"],
    ["chaos", SMOKE_SPEC, "--stats-json", "unused.json"],
    ["sweep", SMOKE_SPEC, "--workloads", "axpy"]],
    ids=["table1-jobs", "figure5-cache-stats", "lint-cache-dir",
         "figure3-seed", "cache-sanitize", "sensitivity-extended",
         "chaos-stats-json", "sweep-workloads"])
def test_a_flag_the_command_does_not_read_exits_2(argv, capsys, tmp_path,
                                                  monkeypatch):
    """Each command declares only the flags it reads; any other one is a
    usage error, never silently ignored, and nothing runs."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    "table1", "table2", "table3", "table4", "table5", "figure3", "figure4",
    "figure5", "claims", "sweep", "sensitivity", "chaos", "cache", "lint"])
def test_every_command_has_its_own_help(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    assert f"usage: python -m repro {command}" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [
    ["--deadline", "0"], ["--retries", "-1"]],
    ids=["deadline-0", "retries-negative"])
def test_invalid_numeric_flags_are_usage_errors(flags, capsys, cache_args):
    with pytest.raises(SystemExit) as excinfo:
        main(["figure3", "axpy"] + flags + cache_args)
    assert excinfo.value.code == 2
    assert flags[0] in capsys.readouterr().err


def test_cache_stats_and_clear_cover_the_result_cache(capsys, cache_args):
    assert main(["figure3", "axpy"] + cache_args) == 0
    capsys.readouterr()
    assert main(["cache"] + cache_args) == 0  # bare cache == cache stats
    assert "results: 14 entries" in capsys.readouterr().out
    assert main(["cache", "clear"] + cache_args) == 0
    assert capsys.readouterr().out == "cleared 14 result entries\n"
    assert main(["cache", "stats"] + cache_args) == 0
    assert "results: 0 entries" in capsys.readouterr().out

    # --results still parses (scripts pass it) and means a plain clear;
    # the next run re-simulates and recompiles.
    assert main(["figure3", "axpy"] + cache_args) == 0
    capsys.readouterr()
    assert main(["cache", "clear", "--results"] + cache_args) == 0
    assert capsys.readouterr().out == "cleared 14 result entries\n"
    assert main(["figure3", "axpy", "--cache-stats"] + cache_args) == 0
    assert ("14 simulations executed, 8 kernel compiles"
            in capsys.readouterr().err)


def test_a_leftover_trace_store_is_left_alone(capsys, tmp_path):
    """A cache directory written while runs stored traces keeps a
    ``traces/`` subdirectory: no command reads, counts or quarantines
    it."""
    cache_dir = tmp_path / "cache"
    leftover = cache_dir / "traces" / "0123abcd.json"
    leftover.parent.mkdir(parents=True)
    leftover.write_text("not json {")
    args = ["--cache-dir", str(cache_dir)]
    assert main(["figure3", "axpy", "--cache-stats"] + args) == 0
    assert "8 kernel compiles" in capsys.readouterr().err
    assert main(["cache", "verify"] + args) == 0
    out = capsys.readouterr().out
    assert "results: 14 entries, 14 ok, 0 quarantined" in out
    assert "traces" not in out.replace(str(cache_dir), "")
    assert leftover.read_text() == "not json {"  # not quarantined
    assert main(["cache", "clear"] + args) == 0
    assert capsys.readouterr().out == "cleared 14 result entries\n"


def test_cache_flag_validation():
    with pytest.raises(SystemExit):
        main(["cache", "prune"])  # unknown action
    with pytest.raises(SystemExit):
        main(["cache", "stats", "--results"])  # flags are clear-only
    with pytest.raises(SystemExit):
        main(["cache", "clear", "--traces"])  # there is no trace store
    with pytest.raises(SystemExit):
        main(["cache", "--no-cache"])  # contradiction
    with pytest.raises(SystemExit):
        main(["figure3", "axpy", "--results"])  # flags are cache-only
