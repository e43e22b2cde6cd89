"""Kernel-builder DSL."""

import pytest

from repro.isa.builder import KernelBuilder
from repro.isa.opcodes import Op


def test_operator_sugar_emits_expected_opcodes():
    kb = KernelBuilder()
    a = kb.load("x")
    b = kb.load("y")
    _ = a + b
    _ = a - 2.0
    _ = 3.0 * a
    _ = a / b
    _ = 1.0 - a
    _ = -a
    ops = [i.op for i in kb.build().insts]
    assert ops == [Op.VLE, Op.VLE, Op.VADD, Op.VSUB_VF, Op.VMUL_VF,
                   Op.VDIV, Op.VRSUB_VF, Op.VNEG]


def test_ssa_fresh_destinations():
    kb = KernelBuilder()
    a = kb.load("x")
    b = a + a
    c = b + a
    kb.store(c, "x")
    body = kb.build()
    dsts = [i.dst for i in body.insts if i.dst is not None]
    assert len(dsts) == len(set(dsts))
    assert body.n_vregs == 3


def test_const_must_precede_body():
    kb = KernelBuilder()
    kb.load("x")
    with pytest.raises(RuntimeError):
        kb.const(1.0)


def test_preamble_tracked_as_invariants():
    kb = KernelBuilder()
    c0 = kb.const(1.0)
    c1 = kb.const(2.0)
    x = kb.load("x")
    kb.store(x + c0, "y")
    kb.store(x + c1, "z")
    body = kb.build()
    assert body.n_preamble == 2
    assert body.invariants == [c0.vid, c1.vid]


def test_cross_builder_registers_rejected():
    kb1, kb2 = KernelBuilder(), KernelBuilder()
    a = kb1.load("x")
    with pytest.raises(ValueError):
        kb2.store(a, "y")


def test_empty_body_rejected():
    with pytest.raises(ValueError):
        KernelBuilder().build()


def test_gather_scatter():
    kb = KernelBuilder()
    idx = kb.iota()
    val = kb.gather("table", idx)
    kb.scatter(val, "out", idx)
    insts = kb.build().insts
    assert insts[1].op is Op.VLXE and insts[1].mem.indexed
    assert insts[2].op is Op.VSXE and len(insts[2].srcs) == 2


def test_strided_memory_ops():
    kb = KernelBuilder()
    v = kb.load("m", offset=2, stride=4)
    kb.store(v, "m", stride=4)
    insts = kb.build().insts
    assert insts[0].op is Op.VLSE and insts[0].mem.stride == 4
    assert insts[0].mem.base_elem == 2
    assert insts[1].op is Op.VSSE


def test_comparison_and_merge():
    kb = KernelBuilder()
    a, b = kb.load("a"), kb.load("b")
    m = kb.lt(a, b)
    kb.store(kb.merge(m, a, b), "out")
    ops = [i.op for i in kb.build().insts]
    assert Op.VMFLT in ops and Op.VMERGE in ops
