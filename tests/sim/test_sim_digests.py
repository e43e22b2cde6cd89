"""Simulation results pinned across commits.

``data/sim_digests.json`` records, for every registered workload at
``n_elements = 512`` and every figure3 configuration, the timing-mode cycle
count, the scheduler's evaluated events, the swap traffic and a hash of the
full statistics.  The pipeline-equivalence suite compares the two schedulers
with each other, so it cannot see a change to code they share (the
``PipelineModel`` methods, the VRF mapping, the RAC); this file can.

A deliberate timing-model or workload change regenerates the file in the
same change, from the repository root::

    PYTHONPATH=src python -m tests.sim.test_sim_digests
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.configs import figure3_series
from repro.vpu.pipeline import VectorPipeline
from repro.workloads import get_workload
from repro.workloads.registry import registered_names

DIGESTS = Path(__file__).parent / "data" / "sim_digests.json"

#: Shrunken problem size, as in the pipeline-equivalence suite.
SMALL_N = 512


def _digests(name: str) -> dict:
    workload = get_workload(name)
    workload.n_elements = SMALL_N
    digests = {}
    for config in figure3_series():
        program = workload.compile(config).program
        stats = VectorPipeline(config, program).run()
        payload = json.dumps(stats.to_dict(), sort_keys=True)
        digests[f"{name}@{config.name}"] = {
            "cycles": stats.cycles,
            "events_processed": stats.events_processed,
            "swap_loads": stats.swap_loads,
            "swap_stores": stats.swap_stores,
            "stats_sha256": hashlib.sha256(payload.encode()).hexdigest()}
    return digests


@pytest.mark.parametrize("name", registered_names())
def test_simulation_matches_pinned_digest(name):
    pinned = json.loads(DIGESTS.read_text())
    digests = _digests(name)
    assert len(digests) == len(figure3_series())
    for key, digest in digests.items():
        assert digest == pinned[key], key


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    every = {}
    for workload_name in registered_names():
        every.update(_digests(workload_name))
    DIGESTS.write_text(json.dumps(every, indent=1, sort_keys=True) + "\n")
