"""Strip-mine unrolling."""

import pytest

from repro.compiler.trace import StripSchedule, body_pressure, unroll_kernel
from repro.isa.builder import KernelBuilder
from repro.isa.opcodes import Op


def simple_body():
    kb = KernelBuilder()
    c = kb.const(2.0)
    x = kb.load("x")
    kb.store(x + c, "y")
    return kb.build()


def test_schedule_covers_all_elements():
    sched = StripSchedule.for_elements(100, 16)
    assert sum(s.vl for s in sched.strips) == 100
    assert sched.n_iterations == 7
    assert sched.strips[-1].vl == 4  # the tail strip


def test_schedule_rejects_bad_inputs():
    with pytest.raises(ValueError):
        StripSchedule.for_elements(0, 16)
    with pytest.raises(ValueError):
        StripSchedule.for_elements(16, 0)


def test_unroll_emits_light_ops_around_body_instructions():
    """The unroller copies no instruction: each op is a plain
    ``(inst, dst, srcs, vl, mem)`` tuple whose ``inst`` is the body
    instruction (or the strip's scalar block); the allocator builds the
    final instructions."""
    body = simple_body()
    trace = unroll_kernel(body, StripSchedule.for_elements(32, 16), 16)
    assert all(type(op) is tuple and len(op) == 5 for op in trace)
    vector = [inst for inst, *_ in trace if not inst.is_scalar]
    assert all(any(inst is b for b in body.insts) for inst in vector)


def test_unroll_emits_preamble_once():
    body = simple_body()
    trace = unroll_kernel(body, StripSchedule.for_elements(64, 16), 16)
    vfmvs = [vl for inst, _, _, vl, _ in trace if inst.op is Op.VFMV_VF]
    assert vfmvs == [16]  # once, and MVL wide


def test_unroll_is_ssa():
    body = simple_body()
    trace = unroll_kernel(body, StripSchedule.for_elements(64, 16), 16)
    defs = [dst for _, dst, _, _, _ in trace if dst is not None]
    assert len(defs) == len(set(defs))


def test_invariants_shared_across_iterations():
    body = simple_body()
    trace = unroll_kernel(body, StripSchedule.for_elements(48, 16), 16)
    const_reg = next(dst for inst, dst, _, _, _ in trace
                     if inst.op is Op.VFMV_VF)
    adds = [srcs for inst, _, srcs, _, _ in trace
            if inst.op is Op.VADD_VF or inst.op is Op.VADD]
    assert adds
    assert all(const_reg in srcs for srcs in adds)


def test_memory_rebased_per_strip():
    body = simple_body()
    trace = unroll_kernel(body, StripSchedule.for_elements(48, 16), 16)
    loads = [mem for inst, _, _, _, mem in trace if inst.op is Op.VLE]
    assert [mem.base_elem for mem in loads] == [0, 16, 32]


def test_strided_memory_rebased_by_stride():
    kb = KernelBuilder()
    v = kb.load("m", stride=3)
    kb.store(v, "out")
    trace = unroll_kernel(kb.build(), StripSchedule.for_elements(32, 16), 16)
    loads = [mem for inst, _, _, _, mem in trace if inst.op is Op.VLSE]
    assert [mem.base_elem for mem in loads] == [0, 48]


def test_vl_stamped_per_strip():
    body = simple_body()
    trace = unroll_kernel(body, StripSchedule.for_elements(40, 16), 16)
    stores = [vl for inst, _, _, vl, _ in trace if inst.op is Op.VSE]
    assert stores == [16, 16, 8]


def test_scalar_blocks_inserted_per_iteration():
    body = simple_body()
    sched = StripSchedule.for_elements(64, 16, scalar_cycles=5.0)
    trace = unroll_kernel(body, sched, 16)
    blocks = [inst for inst, *_ in trace if inst.is_scalar]
    assert len(blocks) == 4
    assert all(b.scalar == 5.0 for b in blocks)


def test_body_pressure_includes_invariants():
    kb = KernelBuilder()
    consts = [kb.const(float(i)) for i in range(5)]
    x = kb.load("x")
    acc = x + consts[0]
    for c in consts[1:]:
        acc = acc + c
    kb.store(acc, "y")
    assert body_pressure(kb.build()) >= 6  # 5 invariants + live temps
