"""Opcode metadata and functional semantics."""

import numpy as np
import pytest

from repro.isa.opcodes import OPCODE_INFO, Op, OpKind
from repro.isa.semantics import evaluate_arith


def test_every_opcode_has_info():
    for op in Op:
        info = OPCODE_INFO[op]
        assert info.latency >= 0
        assert info.beats_per_element >= 0


def test_memory_classification():
    assert OPCODE_INFO[Op.VLE].kind is OpKind.MEM_LOAD
    assert OPCODE_INFO[Op.VSE].kind is OpKind.MEM_STORE
    assert OPCODE_INFO[Op.VLXE].kind is OpKind.MEM_LOAD
    assert OPCODE_INFO[Op.VSXE].kind is OpKind.MEM_STORE
    assert OPCODE_INFO[Op.VADD].is_arith
    assert not OPCODE_INFO[Op.VADD].is_memory


def test_iterative_units_cost_more_beats():
    assert (OPCODE_INFO[Op.VDIV].beats_per_element
            > OPCODE_INFO[Op.VMUL].beats_per_element)
    assert OPCODE_INFO[Op.VSQRT].beats_per_element > 1.0


def test_fma_has_higher_latency_than_add():
    assert OPCODE_INFO[Op.VFMADD].latency > OPCODE_INFO[Op.VADD].latency


@pytest.mark.parametrize("op,srcs,scalar,expected", [
    (Op.VADD, ([1.0, 2.0], [3.0, 4.0]), None, [4.0, 6.0]),
    (Op.VSUB, ([5.0, 5.0], [3.0, 1.0]), None, [2.0, 4.0]),
    (Op.VMUL, ([2.0, 3.0], [4.0, 5.0]), None, [8.0, 15.0]),
    (Op.VFMADD, ([2.0, 3.0], [4.0, 5.0], [1.0, 1.0]), None, [9.0, 16.0]),
    (Op.VFMADD_VF, ([2.0, 3.0], [1.0, 1.0]), 10.0, [21.0, 31.0]),
    (Op.VRSUB_VF, ([1.0, 2.0],), 10.0, [9.0, 8.0]),
    (Op.VMAX, ([1.0, 9.0], [5.0, 2.0]), None, [5.0, 9.0]),
    (Op.VMIN_VF, ([1.0, 9.0],), 4.0, [1.0, 4.0]),
    (Op.VMERGE, ([1.0, 0.0], [7.0, 7.0], [9.0, 9.0]), None, [7.0, 9.0]),
    (Op.VMFLT, ([1.0, 5.0], [3.0, 2.0]), None, [1.0, 0.0]),
])
def test_arith_semantics(op, srcs, scalar, expected):
    arrays = [np.array(s) for s in srcs]
    result = evaluate_arith(op, arrays, scalar, len(expected))
    assert np.allclose(result, expected)


def test_division_by_zero_yields_zero():
    result = evaluate_arith(Op.VDIV, [np.array([4.0, 4.0]),
                                      np.array([2.0, 0.0])], None, 2)
    assert np.allclose(result, [2.0, 0.0])


def test_reduction_broadcasts_result():
    result = evaluate_arith(Op.VREDSUM, [np.array([1.0, 2.0, 3.0])], None, 3)
    assert np.allclose(result, [6.0, 6.0, 6.0])


def test_generator_opcodes():
    assert np.allclose(evaluate_arith(Op.VFMV_VF, [], 3.5, 4), [3.5] * 4)
    assert np.allclose(evaluate_arith(Op.VID, [], None, 4), [0, 1, 2, 3])


def test_integer_bitwise_semantics():
    a = np.array([6.0, 12.0])
    assert np.allclose(evaluate_arith(Op.VAND_VI, [a], 4.0, 2), [4.0, 4.0])
    assert np.allclose(evaluate_arith(Op.VSLL_VI, [a], 1.0, 2), [12.0, 24.0])
    assert np.allclose(evaluate_arith(Op.VSRL_VI, [a], 1.0, 2), [3.0, 6.0])


def test_evaluate_rejects_memory_opcode():
    with pytest.raises(ValueError):
        evaluate_arith(Op.VLE, [], None, 4)


def test_vl_clips_source_arrays():
    long = np.arange(16, dtype=float)
    result = evaluate_arith(Op.VADD, [long, long], None, 4)
    assert len(result) == 4
    assert np.allclose(result, [0, 2, 4, 6])
