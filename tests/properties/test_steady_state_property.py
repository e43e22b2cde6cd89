"""Steady-state extrapolation on drawn machines, policies and timings.

The single-level premise properties next door draw NATIVE-, RG- and
AVA-X1-shaped machines and chaining delays and dead times; here a drawn
machine is one of those or a two-level AVA X2-X8 under any victim policy
with reclamation on or off.  Each runs a registered workload with warm
caches, as an engine cell does, so :class:`~repro.vpu.pipeline.VectorPipeline`
may skip whole strip periods (:mod:`repro.vpu.steady`).  The reference
stepper never skips, and the two must give the same full statistics.
"""

from hypothesis import given, note, settings, strategies as st

from repro.core.config import ava_config
from repro.core.swap import VictimPolicy
from repro.sim.scenario import CellPolicy, Scenario
from repro.sim.simulator import Simulator
from repro.vpu.pipeline import VectorPipeline
from repro.vpu.reference import ReferencePipeline
from repro.workloads import get_workload
from repro.workloads.registry import registered_names
from tests.properties.test_single_level_premise import _MACHINES, _TIMINGS

_TWO_LEVEL = st.sampled_from([2, 3, 4, 8]).map(ava_config)
_POLICIES = st.builds(CellPolicy, st.sampled_from(list(VictimPolicy)),
                      st.booleans())


def _warm_run(cls, scenario, program):
    sim = Simulator(scenario, program)
    sim.pipeline = cls(scenario, program)
    sim.warm_caches()
    sim.pipeline.run()
    return sim.pipeline


@given(machine=st.one_of(_MACHINES, _TWO_LEVEL), policy=_POLICIES,
       name=st.sampled_from(registered_names()), timing=_TIMINGS,
       strips=st.integers(8, 24))
@settings(max_examples=15, deadline=None)
def test_extrapolation_matches_the_reference(machine, policy, name, timing,
                                             strips):
    workload = get_workload(name)
    workload.n_elements = strips * machine.mvl
    program = workload.compile(machine).program
    scenario = Scenario(machine=machine, timing=timing, policy=policy)
    pipe = _warm_run(VectorPipeline, scenario, program)
    ref = _warm_run(ReferencePipeline, scenario, program)
    note(f"steady state: {pipe.steady}")
    assert pipe.stats.to_dict() == ref.stats.to_dict()
    assert pipe.now == ref.now
