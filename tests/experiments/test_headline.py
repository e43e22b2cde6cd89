"""The claim table behind ``repro claims``."""

import math

import pytest

from repro.experiments import headline
from repro.experiments.engine import CellExecutor, figure3_spec
from repro.experiments.headline import Claim, above, below
from repro.experiments.sensitivity import (DRAM_LATENCIES, L2_LATENCIES,
                                           SWAP_BUDGETS)
from repro.workloads.registry import WORKLOAD_NAMES

#: One row per claim; CHANGES.md maps every retired benchmark assert
#: onto these rows or onto a tier-1 test.
N_CLAIMS = 62


@pytest.fixture(scope="module")
def run():
    """One full claims run, with an extra kernel widening the batch."""
    with CellExecutor(jobs=2) as executor:
        claims = headline.check_headline_claims(
            executor=executor, extra_workloads=["pathfinder"])
    return claims, executor.stats


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
    figure3 = len(figure3_spec(WORKLOAD_NAMES + ["pathfinder"]))
    ablations = sum(len(spec) for spec in headline.ABLATIONS.values())
    sensitivity = 4 * (len(L2_LATENCIES) + len(DRAM_LATENCIES)
                       + len(SWAP_BUDGETS))
    assert run[1].cells_requested == figure3 + ablations + sensitivity
