"""Simulation results pinned across commits.

``data/sim_digests.json`` records, for every registered workload at
``n_elements = 512`` and every figure3 configuration, the timing-mode cycle
count, the scheduler's evaluated events, the swap traffic and a hash of the
full statistics.  The pipeline-equivalence suite compares the two schedulers
with each other, so it cannot see a change to code they share (the
``PipelineModel`` methods, the VRF mapping, the RAC, victim selection); this
file can.  Every cell that swaps under the paper's defaults is also pinned
under the ablations' other victim policies (``fifo``, ``round-robin``) and
swap budgets (1, 4), keyed ``<workload>@<config> <variant>``.

The same runs are also recounted from their compiled programs: the
arithmetic counters and the arithmetic unit's busy time follow from the
opcode table alone, and bound ``cycles`` from below.

A deliberate timing-model or workload change regenerates the file in the
same change, from the repository root::

    PYTHONPATH=src python -m tests.sim.test_sim_digests
"""

import functools
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.swap import VictimPolicy
from repro.experiments.configs import figure3_series
from repro.isa.opcodes import OPCODE_INFO, OpKind
from repro.sim.scenario import CellPolicy, Scenario
from repro.vpu.params import DEFAULT_TIMING
from repro.vpu.pipeline import VectorPipeline
from repro.workloads import get_workload
from repro.workloads.registry import registered_names

DIGESTS = Path(__file__).parent / "data" / "sim_digests.json"

#: Shrunken problem size, as in the pipeline-equivalence suite.
SMALL_N = 512

#: The ablations' non-default swap knobs, as scenario fields.
VARIANTS = {
    "fifo": {"policy": CellPolicy(victim_policy=VictimPolicy.FIFO)},
    "round-robin": {"policy": CellPolicy(
        victim_policy=VictimPolicy.ROUND_ROBIN)},
    "budget=1": {"timing": replace(DEFAULT_TIMING, preissue_swap_budget=1)},
    "budget=4": {"timing": replace(DEFAULT_TIMING, preissue_swap_budget=4)},
}


def _row(stats) -> dict:
    payload = json.dumps(stats.to_dict(), sort_keys=True)
    return {"cycles": stats.cycles,
            "events_processed": stats.events_processed,
            "swap_loads": stats.swap_loads,
            "swap_stores": stats.swap_stores,
            "stats_sha256": hashlib.sha256(payload.encode()).hexdigest()}


@functools.cache
def _runs(name: str) -> dict:
    """Every run of ``name`` as ``(scenario, program, stats)``, keyed like
    its digest row: one per figure3 configuration, plus one per
    :data:`VARIANTS` entry for each configuration that swaps at the
    defaults.  Every test reads it, so each program compiles once and
    each run simulates once."""
    workload = get_workload(name)
    workload.n_elements = SMALL_N
    runs = {}
    for config in figure3_series():
        cell = f"{name}@{config.name}"
        program = workload.compile(config).program
        scenario = Scenario(machine=config)
        stats = VectorPipeline(scenario, program).run()
        runs[cell] = (scenario, program, stats)
        if not stats.swap_loads + stats.swap_stores:
            continue
        for label, fields in VARIANTS.items():
            scenario = Scenario(machine=config, **fields)
            runs[f"{cell} {label}"] = (
                scenario, program, VectorPipeline(scenario, program).run())
    return runs


def _digests(name: str) -> dict:
    """The pinned row of every run of ``name``."""
    return {key: _row(stats) for key, (_, _, stats) in _runs(name).items()}


def _is_variant(key: str) -> bool:
    return key.rpartition(" ")[2] in VARIANTS


@pytest.mark.parametrize("name", registered_names())
def test_simulation_matches_pinned_digest(name):
    pinned = json.loads(DIGESTS.read_text())
    digests = {key: digest for key, digest in _digests(name).items()
               if not _is_variant(key)}
    assert len(digests) == len(figure3_series())
    for key, digest in digests.items():
        assert digest == pinned[key], key


@pytest.mark.parametrize("name", registered_names())
def test_swap_variants_match_pinned_digest(name):
    """Victim policies and swap budgets other than the paper's: a bug in
    a policy the default never runs still fails a named test."""
    pinned = json.loads(DIGESTS.read_text())
    digests = {key: digest for key, digest in _digests(name).items()
               if _is_variant(key)}
    assert sorted(digests) == sorted(
        key for key in pinned if key.startswith(f"{name}@")
        and _is_variant(key))
    for key, digest in digests.items():
        assert digest == pinned[key], key


def _arith_recount(program, lanes: int, dead_time: int) -> tuple:
    """``(arith_insts, fpu_element_ops, arith_busy_cycles)`` recounted
    from the compiled program and the opcode table alone.  The unit is
    busy ``dead_time`` cycles plus one beat per ``lanes`` elements (times
    the opcode's ``beats_per_element``), at least one, per instruction."""
    insts = busy = elements = 0
    for inst in program.insts:
        info = OPCODE_INFO[inst.op]
        if info.kind is not OpKind.ARITH:
            continue
        insts += 1
        elements += inst.vl
        busy += dead_time + max(
            1, math.ceil(inst.vl / lanes * info.beats_per_element))
    return insts, elements, busy


@pytest.mark.parametrize("name", registered_names())
def test_arithmetic_unit_recount_bounds_cycles(name):
    """The arithmetic counters follow from the program alone, and the
    single arithmetic unit's busy time is a floor under ``cycles``: no
    schedule can finish before the unit has issued every instruction."""
    for key, (scenario, program, stats) in _runs(name).items():
        insts, elements, floor = _arith_recount(
            program, scenario.machine.lanes, scenario.timing.arith_dead_time)
        assert (stats.arith_insts, stats.fpu_element_ops,
                stats.arith_busy_cycles) == (insts, elements, floor), key
        assert stats.cycles >= floor, key


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    every = {}
    for workload_name in registered_names():
        every.update(_digests(workload_name))
    DIGESTS.write_text(json.dumps(every, indent=1, sort_keys=True) + "\n")
