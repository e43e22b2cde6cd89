"""The machine-axis sensitivity study."""

import hashlib
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.compiler.signature import CompileSignature
from repro.experiments.engine import CellExecutor, make_executor
from repro.experiments.sensitivity import (DRAM_LATENCIES, L2_LATENCIES,
                                           SENSITIVITY_WORKLOAD, SWAP_BUDGETS,
                                           assemble_sensitivity,
                                           build_sensitivity,
                                           sensitivity_cells)
from repro.sim.simulator import Simulator


@pytest.fixture(scope="module")
def executor():
    return CellExecutor()


@pytest.fixture(scope="module")
def results(executor):
    """The study's one batch, as :func:`build_sensitivity` runs it."""
    return executor.run(sensitivity_cells(), label="sensitivity")


@pytest.fixture(scope="module")
def study(results):
    return assemble_sensitivity(SENSITIVITY_WORKLOAD, results)


def test_compiles_once_per_distinct_compile_signature(study, executor):
    """The narrowed compile key: the study sweeps timing x memory x policy
    over four machines (NATIVE/AVA at X4 and X8), but NATIVE Xn and AVA Xn
    share an (mvl, n_logical) signature — so the whole grid compiles its
    one workload exactly twice, once per scale, not once per machine."""
    assert executor.stats.compiles == 2


def test_shared_default_point_simulates_once_per_machine(study, executor):
    """The three axes run as one batch, so the executor's in-batch dedupe
    simulates the paper-default point they share (L2 12, DRAM 80, budget
    2) once per machine: 40 cells, 28 distinct keys.  On AVA X4 the
    default point's budget never binds and its demand is within budget
    4, so that key reuses its run: 27 simulations."""
    assert executor.stats.cells_requested == 40
    assert executor.stats.sims_executed == 27
    assert executor.stats.sims_reused == 1


def test_swap_budget_cells_match_direct_simulation(results):
    """The engine simulates a budget key once and lands that run under
    every budget its demand covers; each swap-budget cell must equal its
    own direct ``Simulator`` run in every ``SimStats`` field, not only
    the cycles the study prints."""
    swap_results = results[-4 * len(SWAP_BUDGETS):]  # four machines each
    assert {r.cell.scenario.timing.preissue_swap_budget
            for r in swap_results} == set(SWAP_BUDGETS)
    programs = {}
    for result in swap_results:
        cell = result.cell
        signature = CompileSignature.from_config(cell.config)
        if signature not in programs:
            programs[signature] = cell.resolve_workload().compile(
                cell.config).program
        sim = Simulator(cell.scenario, programs[signature])
        if cell.warm:
            sim.warm_caches()
        direct = sim.run().stats
        assert direct.to_dict() == result.stats.to_dict(), cell.label()


def test_study_covers_every_axis_point(study):
    assert [r.axis_value for r in study.l2_rows] == list(L2_LATENCIES)
    assert [r.axis_value for r in study.dram_rows] == list(DRAM_LATENCIES)
    assert [r.axis_value for r in study.swap_rows] == list(SWAP_BUDGETS)


def test_slower_dram_widens_the_gap_monotonically(study):
    """The headline: AVA pays for its smaller P-VRF in swap traffic
    through the memory hierarchy, so a slower DRAM must widen the
    NATIVE-vs-AVA gap at X8 — monotonically across the axis."""
    gaps = [row.gap_x8 for row in study.dram_rows]
    assert study.dram_gap_is_monotone()
    assert gaps[-1] > gaps[0]  # strictly wider across the full axis
    # NATIVE generates no swap traffic, so its columns stay flat.
    assert len({row.native_x8 for row in study.dram_rows}) == 1


def test_render_matches_the_pinned_stdout_digest(study):
    """``repro sensitivity`` prints the study's render and a newline:
    exactly the bytes CI's stdout contract pins."""
    digests = Path(__file__).parents[2] / ".github" / "stdout.sha256"
    pinned = dict(reversed(line.split())
                  for line in digests.read_text().splitlines())
    stdout = study.render() + "\n"
    assert (hashlib.sha256(stdout.encode()).hexdigest()
            == pinned["sensitivity.out"])


def test_render_contains_all_three_tables(study):
    text = study.render()
    for marker in ("L2 hit latency", "DRAM access latency",
                   "pre-issue swap budget",
                   "gap monotonically at X8: yes"):
        assert marker in text


def test_cli_sensitivity_renders_the_study(monkeypatch, capsys, tmp_path):
    """CLI wiring only — the study itself is monkeypatched to stay fast."""
    import repro.experiments.sensitivity as sensitivity

    calls = []

    class FakeStudy:
        def render(self):
            return "fake sensitivity table"

    def fake_build(workloads, executor=None):
        calls.append(list(workloads))
        return [FakeStudy() for _ in workloads]

    monkeypatch.setattr(sensitivity, "build_studies", fake_build)
    assert main(["sensitivity",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    assert "fake sensitivity table" in capsys.readouterr().out
    assert calls == [["blackscholes"]]

    assert main(["sensitivity", "lavamd",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    capsys.readouterr()
    assert calls[-1] == ["lavamd"]

    with pytest.raises(SystemExit):
        main(["sensitivity", "doom"])
    # The whole-suite selectors must not sneak past the --extended guard.
    with pytest.raises(SystemExit):
        main(["sensitivity", "extended"])
    with pytest.raises(SystemExit):
        main(["sensitivity", "all"])
    with pytest.raises(SystemExit):
        main(["sensitivity", "--extended"])


def test_several_applications_run_as_one_batch(monkeypatch, capsys,
                                               tmp_path):
    """``sensitivity --workloads a,b`` submits every study's cells as one
    batch and slices the results back: one ``CellExecutor.run`` call, and
    the same text as each study built on its own."""
    batches = []
    real_run = CellExecutor.run

    def spy(self, cells, *args, **kwargs):
        batches.append(len(cells))
        return real_run(self, cells, *args, **kwargs)

    monkeypatch.setattr(CellExecutor, "run", spy)
    cache = str(tmp_path / "cache")
    assert main(["sensitivity", "--workloads", "axpy,lavamd", "--jobs", "1",
                 "--no-progress", "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert batches == [80]

    executor = make_executor(jobs=1, cache=True, cache_dir=cache)
    alone = [build_sensitivity(executor=executor, workload=name).render()
             for name in ("axpy", "lavamd")]
    assert out == "".join(text + "\n" for text in alone)
    assert executor.stats.sims_executed == 0  # every cell was a hit
