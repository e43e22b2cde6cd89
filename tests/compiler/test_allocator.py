"""Belady register allocation with spill insertion."""

import pytest

from repro.compiler.allocator import allocate
from repro.compiler.liveness import max_pressure
from repro.isa.instructions import Instruction, Tag
from repro.isa.opcodes import Op
from repro.isa.operands import AddressSpace, data_ref
from tests.conftest import trace_ops


def chain(n_values: int, fan_in: int = 2):
    """A trace defining n_values and summing them at the end."""
    trace = [Instruction(op=Op.VLE, dst=i, vl=8, mem=data_ref("x", i * 8))
             for i in range(n_values)]
    acc = n_values
    prev = 0
    for i in range(1, n_values):
        trace.append(Instruction(op=Op.VADD, dst=acc, srcs=(prev, i), vl=8))
        prev = acc
        acc += 1
    trace.append(Instruction(op=Op.VSE, srcs=(prev,), vl=8,
                             mem=data_ref("x")))
    return trace_ops(trace)


def test_no_spills_when_supply_covers_pressure():
    trace = chain(6)
    result = allocate(trace, n_regs=8, mvl=16)
    assert result.spill_loads + result.spill_stores == 0
    assert result.max_pressure <= 8
    assert result.registers_used <= 8


def test_spills_emitted_when_pressure_exceeds_supply():
    trace = chain(12)
    assert max_pressure(trace) > 4
    result = allocate(trace, n_regs=4, mvl=16)
    assert result.spill_loads > 0
    assert result.spill_stores > 0
    assert result.spill_slots > 0


def test_spill_code_uses_mvl_width():
    """§II.A: spill code always runs with VL = MVL."""
    trace = chain(12)
    result = allocate(trace, n_regs=4, mvl=64)
    spills = [i for i in result.insts if i.tag is Tag.SPILL]
    assert spills
    assert all(i.vl == 64 for i in spills)
    assert all(i.mem.space is AddressSpace.SPILL for i in spills)


def test_output_never_references_out_of_range_registers():
    result = allocate(chain(12), n_regs=4, mvl=16)
    for inst in result.insts:
        for reg in inst.registers:
            assert 0 <= reg < 4


def test_allocated_trace_preserves_instruction_order():
    trace = chain(5)
    result = allocate(trace, n_regs=8, mvl=16)
    kept = [i for i in result.insts if i.tag is Tag.NORMAL]
    assert [i.op for i in kept] == [inst.op for inst, *_ in trace]


def test_ssa_violation_rejected():
    # Redefining a *live* virtual register is a broken trace.
    trace = [Instruction(op=Op.VLE, dst=0, vl=8, mem=data_ref("x")),
             Instruction(op=Op.VADD, dst=1, srcs=(0, 0), vl=8),
             Instruction(op=Op.VLE, dst=0, vl=8, mem=data_ref("x")),
             Instruction(op=Op.VADD, dst=2, srcs=(0, 1), vl=8),
             Instruction(op=Op.VSE, srcs=(2,), vl=8, mem=data_ref("x"))]
    with pytest.raises(ValueError):
        allocate(trace_ops(trace), n_regs=8, mvl=16)


def test_use_before_def_rejected():
    trace = [Instruction(op=Op.VSE, srcs=(3,), vl=8, mem=data_ref("x"))]
    with pytest.raises(ValueError):
        allocate(trace_ops(trace), n_regs=8, mvl=16)


def test_minimum_register_supply_enforced():
    with pytest.raises(ValueError):
        allocate(chain(3), n_regs=1, mvl=16)


def test_value_spilled_once_reloaded_many_times():
    """SSA values keep a valid slot copy: one store, many loads."""
    trace = [Instruction(op=Op.VLE, dst=0, vl=8, mem=data_ref("x"))]
    # Interleave many fresh values with repeated far uses of register 0.
    vid = 1
    for _ in range(6):
        trace.append(Instruction(op=Op.VLE, dst=vid, vl=8, mem=data_ref("x")))
        trace.append(Instruction(op=Op.VADD, dst=vid + 1, srcs=(0, vid),
                                 vl=8))
        trace.append(Instruction(op=Op.VSE, srcs=(vid + 1,), vl=8,
                                 mem=data_ref("x")))
        vid += 2
    result = allocate(trace_ops(trace), n_regs=3, mvl=16)
    # SSA values keep their slot copy valid forever, so reload traffic
    # dominates store traffic.
    assert result.spill_loads >= result.spill_stores
