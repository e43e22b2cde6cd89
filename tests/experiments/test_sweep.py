"""Sweep spec files: parsing, validation, execution, cache behaviour."""

import json

import pytest

from repro.__main__ import main
from repro.core.config import ava_config, get_machine, native_config
from repro.core.swap import VictimPolicy
from repro.experiments.engine import (Cell, CellExecutor, ResultCache,
                                      cell_key)
from repro.experiments.sweep import parse_sweep, run_sweep
from repro.memory.presets import get_memory_system
from repro.sim.scenario import Scenario, build_scenario


BASE_SPEC = {
    "workloads": ["axpy"],
    "machines": ["native-x1", "ava-x8"],
    "memory": ["table2", "slow-dram"],
}


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------
def test_parse_resolves_presets_and_counts_cells():
    parsed = parse_sweep(dict(BASE_SPEC))
    assert len(parsed) == 4
    assert [e.label for e in parsed.machines] == ["native-x1", "ava-x8"]
    assert parsed.machines[1].value == ava_config(8)
    assert parsed.memory[1].value == get_memory_system("slow-dram")
    pairs = parsed.labelled_cells()
    assert len(pairs) == 4
    # One loop nest owns both: every label describes exactly its cell.
    for (workload, machine, _, memory, _), cell in pairs:
        assert cell.workload_name == workload
        assert cell.config.name == get_machine(machine).name
        assert cell.scenario.memory == get_memory_system(memory)


def test_parse_inline_overrides():
    parsed = parse_sweep({
        "workloads": ["axpy"],
        "machines": [{"base": "ava-x8", "n_physical": 12}],
        "memory": [{"l2": {"latency": 24}, "dram": {"latency": 160}}],
        "timing": [{"preissue_swap_budget": 1}],
        "policies": ["fifo", {"victim_policy": "rac-min",
                              "aggressive_reclamation": False}],
    })
    assert parsed.machines[0].value.n_physical == 12
    assert parsed.memory[0].value.l2.latency == 24
    assert parsed.memory[0].value.dram.latency == 160
    assert parsed.timing[0].value.preissue_swap_budget == 1
    assert parsed.policies[0].value.victim_policy is VictimPolicy.FIFO
    assert parsed.policies[1].value.aggressive_reclamation is False
    # Labels stay readable and deterministic.
    assert parsed.memory[0].label == "table2[dram.latency=160,l2.latency=24]"
    assert parsed.policies[1].label == "rac-min[no-reclaim]"


@pytest.mark.parametrize("broken", [
    {},  # no workloads
    {"workloads": ["axpy"]},  # no machines
    {**BASE_SPEC, "bogus": 1},  # unknown top-level key
    {**BASE_SPEC, "workloads": ["doom"]},  # unknown workload
    {**BASE_SPEC, "machines": ["cray-1"]},  # unknown machine preset
    {**BASE_SPEC, "memory": ["hbm3"]},  # unknown memory preset
    {**BASE_SPEC, "memory": [{"l3": {"latency": 9}}]},  # unknown section
    {**BASE_SPEC, "memory": [{"l2": {"bogus": 9}}]},  # unknown field
    {**BASE_SPEC, "memory": [{"l2": {"latency": 0}}]},  # invalid value
    {**BASE_SPEC, "memory": [{"l2": {"latency": "12"}}]},  # wrong type
    {**BASE_SPEC, "memory": [{"vector_interface_bytes": "64"}]},
    {**BASE_SPEC, "timing": [{"bogus": 1}]},
    {**BASE_SPEC, "timing": [{"preissue_swap_budget": 0}]},
    {**BASE_SPEC, "policies": [{"bogus": True}]},
    {**BASE_SPEC, "workloads": "axpy"},  # bare string, not a list
    {**BASE_SPEC, "machines": "native-x1"},
    {**BASE_SPEC, "memory": "table2"},
    {**BASE_SPEC, "memory": []},  # empty axis
    # Non-positive counts: a modulo by zero, or a machine that fails
    # inside every cell.
    {**BASE_SPEC, "machines": [{"base": "ava-x8", "lanes": 0}]},
    {**BASE_SPEC, "machines": [{"base": "ava-x8", "n_physical": 0}]},
    # JSON true is not the integer 1, and a count is not a float.
    {**BASE_SPEC, "machines": [{"base": "ava-x8", "lanes": True}]},
    {**BASE_SPEC, "timing": [{"rob_entries": True}]},
    {**BASE_SPEC, "timing": [{"preissue_swap_budget": 1.5}]},
    {**BASE_SPEC, "memory": [{"dram": {"latency": 45.5}}]},
    # Knobs no model read are gone: naming one is an unknown field.
    {**BASE_SPEC, "memory": [{"l1d": {"latency": 40}}]},
    {**BASE_SPEC, "memory": [{"l1i": {"latency": 4}}]},
    {**BASE_SPEC, "timing": [{"lanes": 4}]},
    {**BASE_SPEC, "machines": [{"base": "ava-x8", "lmul": 2}]},
])
def test_bad_specs_fail_at_parse_time(broken):
    with pytest.raises(ValueError):
        parse_sweep(broken)


def test_parse_from_file_uses_the_stem_as_name(tmp_path):
    path = tmp_path / "my-grid.json"
    path.write_text(json.dumps(BASE_SPEC))
    assert parse_sweep(path).name == "my-grid"
    with pytest.raises(ValueError):
        parse_sweep(tmp_path / "missing.json")
    (tmp_path / "broken.json").write_text("{not json")
    with pytest.raises(ValueError):
        parse_sweep(tmp_path / "broken.json")


# ---------------------------------------------------------------------------
# execution and the cache
# ---------------------------------------------------------------------------
def test_memory_presets_produce_distinct_cache_keys():
    """The memory system must be visible to the key: same workload, same
    machine, different preset -> different entry."""
    cell_a = Cell("axpy", Scenario(native_config(1)))
    cell_b = Cell("axpy", build_scenario(native_config(1),
                                         memory="slow-dram"))
    cell_c = Cell("axpy", build_scenario(native_config(1), memory="table2"))
    key_a = cell_key(cell_a)
    key_b = cell_key(cell_b)
    key_c = cell_key(cell_c)
    assert key_a != key_b
    # The default scenario IS the table2 platform; both must share one
    # cache entry.
    assert key_a == key_c


def test_warm_rerun_reuses_each_preset_with_zero_misses(tmp_path):
    cold = CellExecutor(cache=ResultCache(tmp_path / "cache"))
    cold_text = run_sweep(dict(BASE_SPEC), executor=cold)
    assert cold.stats.cache_misses == 4
    assert cold.stats.sims_executed == 4

    warm = CellExecutor(cache=ResultCache(tmp_path / "cache"))
    warm_text = run_sweep(dict(BASE_SPEC), executor=warm)
    assert warm.stats.cache_misses == 0
    assert warm.stats.cache_hits == 4
    assert warm.stats.sims_executed == 0
    assert warm_text == cold_text


def test_rendered_grid_shows_axis_labels(tmp_path):
    text = run_sweep(dict(BASE_SPEC), executor=CellExecutor())
    assert "2 memory" in text and "= 4 cells" in text
    assert "slow-dram" in text and "table2" in text
    assert "native-x1" in text and "ava-x8" in text
    # The single-valued timing/policy axes stay out of the table.
    assert "| timing" not in text and "| policy" not in text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_sweep_runs_a_spec_file(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(BASE_SPEC))
    assert main(["sweep", str(path),
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    assert "=== sweep: grid ===" in out
    assert "slow-dram" in out


def test_cli_sweep_progress_is_labelled_with_the_spec_name(tmp_path,
                                                           capsys):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(BASE_SPEC))
    assert main(["sweep", str(path), "--progress",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    err = capsys.readouterr().err
    assert "grid: " in err and "4/4 cells" in err


def test_cli_sweep_rejects_bad_usage(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep"])  # no spec file
    with pytest.raises(SystemExit):
        main(["sweep", str(tmp_path / "missing.json")])
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(BASE_SPEC))
    with pytest.raises(SystemExit):
        main(["sweep", str(path), "--extended"])


def test_cli_sweep_does_not_mask_execution_errors(tmp_path, monkeypatch):
    """Only parse-time problems are usage errors; a failure inside the
    grid must surface as the exception it is, not exit code 2."""
    import repro.experiments.engine as engine

    path = tmp_path / "grid.json"
    path.write_text(json.dumps(BASE_SPEC))

    def boom(self, cells, **kwargs):
        raise ValueError("simulated mid-grid failure")

    monkeypatch.setattr(engine.CellExecutor, "run", boom)
    with pytest.raises(ValueError, match="mid-grid"):
        main(["sweep", str(path), "--cache-dir", str(tmp_path / "cache")])


def test_cli_version(capsys):
    from repro._version import __version__

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
