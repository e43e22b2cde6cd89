"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` from the
repository root."""

from __future__ import annotations

import cProfile
import inspect
import json
import pstats
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path[:0] = [str(HERE.parent), str(REPO / "src")]

import ledger  # noqa: E402
import run  # noqa: E402

CONFIG = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _names(section: str) -> list:
    return [entry["name"] for entry in CONFIG[section]]


@pytest.mark.parametrize("section", ["workloads", "end_to_end", "per_layer"])
def test_names_are_well_formed_and_unique(section):
    names = _names(section)
    assert names and len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_workloads_match_the_command_and_say_why():
    assert set(_names("workloads")) == set(run.WORKLOADS)
    for workload in CONFIG["workloads"]:
        why = workload["why"]
        assert why.strip() and "\n" not in why and len(why) <= 200


def test_every_layer_metric_names_what_it_should_move():
    declared = [(m["name"], m["unit"], m["better"])
                for m in CONFIG["per_layer"]]
    assert declared == [(n, u, b) for n, u, b, _ in ledger.LAYER_METRICS]
    end_to_end = set(_names("end_to_end"))
    workloads = set(_names("workloads"))
    for name, _, _, moves in ledger.LAYER_METRICS:
        assert moves, f"{name} predicts nothing"
        for metric, workload in moves:
            assert metric in end_to_end and workload in workloads, name


def test_end_to_end_metrics_include_setup_with_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_sweep_spec_is_a_pure_function_of_the_seed():
    assert run.spec_bytes(run.sweep_spec(7)) == run.spec_bytes(
        run.sweep_spec(7))
    a, b = run.sweep_spec(7), run.sweep_spec(8)
    assert (a["memory"], a["timing"]) != (b["memory"], b["timing"])
    assert run.spec_bytes(a) != run.spec_bytes(b)


@pytest.mark.parametrize("seed", range(5))
def test_sweep_spec_parses_and_keeps_its_bands(seed):
    from repro.experiments.sweep import parse_sweep
    spec = run.sweep_spec(seed)
    parsed = parse_sweep(spec)
    assert parsed.check and len(parsed) == run.spec_cells(spec)
    for point, (l2, dram) in zip(spec["memory"], run.MEMORY_BANDS):
        assert l2[0] <= point["l2"]["latency"] <= l2[1]
        assert dram[0] <= point["dram"]["latency"] <= dram[1]


def _pipeline_methods() -> set:
    from repro.vpu.pipeline import VectorPipeline
    names = set()
    for cls in VectorPipeline.__mro__:
        if not cls.__module__.startswith("repro."):
            continue
        for name, value in vars(cls).items():
            if inspect.isfunction(value) or isinstance(
                    value, (property, staticmethod, classmethod)):
                names.add(name)
    return names


def test_every_pipeline_method_has_a_stage():
    methods = _pipeline_methods()
    unmapped = methods - set(ledger.STAGE_OF)
    assert not unmapped, f"map these in ledger.STAGE_OF: {sorted(unmapped)}"
    stale = set(ledger.STAGE_OF) - methods
    assert not stale, f"no longer on VectorPipeline: {sorted(stale)}"
    allowed = set(ledger.STAGES) | {"setup", ledger.CALLER}
    assert set(ledger.STAGE_OF.values()) <= allowed


def _small_simulation():
    from repro.core.config import ava_config
    from repro.sim.simulator import Simulator
    from repro.workloads.registry import get_workload
    workload = get_workload("axpy")
    workload.n_elements = 256
    program = workload.compile(ava_config(8)).program
    return Simulator(ava_config(8), program)


def test_stage_shares_account_for_the_whole_profile():
    sim = _small_simulation()
    profiler = cProfile.Profile()
    profiler.runcall(sim.run)
    shares = ledger.stage_shares(pstats.Stats(profiler))
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares.get("other", 0.0) < 0.05
    assert shares.get("schedule", 0.0) > 0


def test_tracer_binds_at_call_sites_and_restores():
    import repro.compiler.trace as trace_module
    import repro.workloads.base as base
    ledger.import_cli()
    original = trace_module.unroll_kernel
    tracer = ledger.Tracer()
    ledger.install_layer_spans(tracer, [])
    try:
        assert base.unroll_kernel is not original
        assert base.unroll_kernel is trace_module.unroll_kernel
        root = tracer.wrap("engine.other", _small_simulation)
        root()
    finally:
        tracer.restore()
    assert base.unroll_kernel is original
    from repro.experiments.engine import ResultCache
    assert "get" not in vars(ResultCache)  # inherited again, not shadowed
    assert not tracer.missing
    assert tracer.self_s["compiler.unroll"] > 0
    assert tracer.self_s["sim.construct"] > 0
    assert tracer.counts["compiler.compiles"] == 1


def test_self_times_add_up_to_the_root_span():
    import time
    tracer = ledger.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer():
        inner()
        time.sleep(0.01)
        inner()

    start = time.perf_counter()
    tracer.wrap("root", outer)()
    wall = time.perf_counter() - start
    assert tracer.self_s["inner"] >= 0.04
    assert sum(tracer.self_s.values()) == pytest.approx(wall, rel=0.05)


def test_child_accounting_is_per_process(tmp_path):
    big = run.run_child(
        [sys.executable, "-c", "x = bytearray(128 << 20); print(len(x))"],
        tmp_path)
    assert big.code == 0 and big.stdout.strip() == b"134217728"
    assert big.rss_mb >= 128 and big.cpu_s > 0 and big.wall_s > 0
    # RUSAGE_CHILDREN would report the big child's peak again here.
    small = run.run_child([sys.executable, "-c", "pass"], tmp_path)
    assert small.rss_mb < big.rss_mb - 64


def test_probe_scales_child_cpu_time(tmp_path):
    spin = ("import time\nend = time.process_time() + 0.3\n"
            "while time.process_time() < end: pass")
    result = run.run_child([sys.executable, "-c", spin], tmp_path, probe=True)
    assert result.code == 0 and result.cpu_s >= 0.3
    assert 0.1 < result.cpu_scale < 10 and result.cpu_scale != 1.0
    assert result.norm_cpu_s == pytest.approx(
        result.cpu_s * result.cpu_scale)
    plain = run.run_child([sys.executable, "-c", "pass"], tmp_path)
    assert plain.cpu_scale == 1.0 and plain.norm_cpu_s == plain.cpu_s


def test_sweep_row_check_rejects_a_wrong_row():
    table = ("=== sweep: s ===\n"
             "workload | machine | correct\n"
             "---------+---------+--------\n"
             "spmv     | ava-x8  | yes    \n"
             "spmv     | rg-lmul8| NO     \n")
    result = run.Run(1.0, 1.0, 1.0, 0, table.encode(), b"")
    assert run._sweep_rows_correct(result, 2) == [
        "1 sweep rows not correct = yes"]
    assert run._sweep_rows_correct(result, 3)[0].startswith("sweep printed")
