"""The claim table behind ``repro claims``."""

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.experiments import headline
from repro.experiments.engine import (CellExecutor, ResultCache, cell_key,
                                      figure3_spec)
from repro.experiments.headline import Claim, above, below
from repro.experiments.sensitivity import (DRAM_LATENCIES, L2_LATENCIES,
                                           SWAP_BUDGETS)
from repro.workloads.registry import WORKLOAD_NAMES

#: One row per claim; CHANGES.md maps every retired benchmark assert
#: onto these rows or onto a tier-1 test.
N_CLAIMS = 62


class PlanRecorder(CellExecutor):
    """An executor that keeps every plan it makes."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.plans = []

    def plan(self, cells):
        plan = super().plan(cells)
        self.plans.append(plan)
        return plan


#: The pinned stdout digests CI checks with ``sha256sum -c``.
STDOUT_DIGESTS = Path(__file__).parents[2] / ".github" / "stdout.sha256"


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """One full claims run, with an extra kernel widening the batch; its
    results stay in a cache (the fourth element's directory)."""
    cache_dir = tmp_path_factory.mktemp("claims-cache")
    with PlanRecorder(jobs=2, cache=ResultCache(cache_dir)) as executor:
        claims = headline.check_headline_claims(
            executor=executor, extra_workloads=["pathfinder"])
    return claims, executor.stats, executor.plans, cache_dir


@pytest.mark.parametrize("value, lo, hi, margin", [
    (1.5, 1.5, 2.5, "0.00"), (2.5, 1.5, 2.5, "0.00"),
    (1.5, 1.5, math.inf, "0.00"), (2.5, -math.inf, 2.5, "0.00"),
    (0.0, 0.0, 0.0, "exact")])
def test_a_value_on_a_bound_holds_with_margin_zero(value, lo, hi, margin):
    claim = Claim("c", "2x", value, lo, hi)
    assert claim.holds and claim.margin == 0.0
    assert claim.row()[3:] == [margin, "yes"]


@pytest.mark.parametrize("claim", [
    Claim("c", "2x", below(1.5), 1.5, 2.5),
    Claim("c", "2x", above(2.5), 1.5, 2.5),
    Claim("c", ">1", 1.0, lo=above(1.0)),
    Claim("c", "0", 1, 0, 0),
])
def test_a_value_just_outside_a_bound_reads_no(claim):
    assert not claim.holds and claim.margin < 0
    assert claim.row()[-1] == "NO"
    assert headline.render_claims([claim]).endswith("0/1 claims hold")


def test_claim_statements_are_unique_and_counted(run):
    statements = [claim.statement for claim in run[0]]
    assert len(statements) == len(set(statements)) == N_CLAIMS


def test_every_claim_holds(run):
    assert [c.statement for c in run[0] if not c.holds] == []


def test_extra_workloads_join_the_figure3_batch(run):
    """The extra kernel widens the Figure-3 grid; the ablation and
    sensitivity grids are fixed."""
    figure3 = len(figure3_spec(WORKLOAD_NAMES + ["pathfinder"]).cells())
    ablations = sum(len(spec.cells())
                    for spec in headline.ABLATIONS.values())
    sensitivity = 4 * (len(L2_LATENCIES) + len(DRAM_LATENCIES)
                       + len(SWAP_BUDGETS))
    assert run[1].cells_requested == figure3 + ablations + sensitivity


def test_claims_simulate_each_distinct_key_once(run):
    """Every grid joins one plan, so a cell two grids share (the default
    blackscholes points of Figure 3, the ablations and the sensitivity
    study) simulates once, not once per grid.  One sensitivity key whose
    swap budget never binds lands the payload of its equal run instead."""
    stats, plans = run[1], run[2]
    assert len(plans) == 1
    assert [cell for grid in headline.claims_grids(["pathfinder"])[1]
            for cell in grid] == plans[0].cells
    assert stats.cache_hits == 0
    assert stats.sims_reused == 1
    assert (stats.sims_executed + stats.sims_reused
            == len({cell_key(c) for c in plans[0].cells}))


def test_claims_stdout_matches_its_pinned_digest(run, capsys, tmp_path):
    """Tier-1 sees what CI's stdout contract sees: ``repro claims``
    replayed from the fixture's cache prints exactly the pinned bytes,
    ablation values included, and simulates nothing."""
    stats_file = tmp_path / "claims.json"
    assert main(["claims", "--jobs", "1", "--no-progress",
                 "--cache-dir", str(run[3]),
                 "--stats-json", str(stats_file)]) == 0
    stdout = capsys.readouterr().out
    stats = json.loads(stats_file.read_text())["stats"]
    assert stats["sims_executed"] == 0
    assert stats["cache_hits"] == stats["cells_requested"] == 143
    pinned = dict(reversed(line.split()) for line in
                  STDOUT_DIGESTS.read_text().splitlines())
    assert (hashlib.sha256(stdout.encode()).hexdigest()
            == pinned["claims-cold.out"])
