"""Scalar-core loop-overhead model."""

from repro.scalar.core import (
    DEFAULT_SCALAR_MODEL,
    LoopOverhead,
    ScalarCoreModel,
    loop_scalar_cycles,
)


def test_dual_issue_halves_alu_work():
    model = ScalarCoreModel()
    four = model.loop_cycles(LoopOverhead(alu_insts=4, has_vsetvl=False,
                                          taken_branch=False))
    eight = model.loop_cycles(LoopOverhead(alu_insts=8, has_vsetvl=False,
                                           taken_branch=False))
    assert four == 2.0
    assert eight == 4.0


def test_vsetvl_and_branch_serialize():
    model = ScalarCoreModel()
    bare = model.loop_cycles(LoopOverhead(alu_insts=2, has_vsetvl=False,
                                          taken_branch=False))
    full = model.loop_cycles(LoopOverhead(alu_insts=2))
    assert full == bare + model.vsetvl_cycles + model.branch_cycles


def test_loads_add_partial_latency():
    model = ScalarCoreModel()
    without = model.loop_cycles(LoopOverhead(alu_insts=4))
    with_load = model.loop_cycles(LoopOverhead(alu_insts=4, loads=1))
    assert with_load > without


def test_convenience_wrapper_matches_model():
    assert loop_scalar_cycles(6) == DEFAULT_SCALAR_MODEL.loop_cycles(
        LoopOverhead(alu_insts=6))
