"""Instruction construction and validation."""

import dataclasses
import pickle

import pytest

from repro.compiler.signature import CompileSignature
from repro.isa.instructions import Instruction, Tag, scalar_block
from repro.isa.opcodes import OPCODE_INFO, Op, OpKind
from repro.isa.operands import data_ref, spill_ref
from repro.isa.program import Program
from repro.workloads.registry import get_workload

DECLARED = ("op", "dst", "srcs", "scalar", "vl", "mem", "tag", "uid")
DERIVED = ("info", "is_memory", "is_load", "is_store", "is_arith",
           "is_scalar")


def test_basic_arith_instruction():
    inst = Instruction(op=Op.VADD, dst=3, srcs=(1, 2), vl=16)
    assert inst.is_arith and not inst.is_memory
    assert inst.registers == (1, 2, 3)


def test_load_requires_memory_operand():
    with pytest.raises(ValueError):
        Instruction(op=Op.VLE, dst=1, vl=16)


def test_store_has_no_destination():
    with pytest.raises(ValueError):
        Instruction(op=Op.VSE, dst=1, srcs=(2,), vl=16, mem=data_ref("x"))


def test_arith_requires_destination():
    with pytest.raises(ValueError):
        Instruction(op=Op.VADD, srcs=(1, 2), vl=16)


def test_source_arity_enforced():
    with pytest.raises(ValueError):
        Instruction(op=Op.VADD, dst=0, srcs=(1,), vl=16)


def test_scalar_forms_require_scalar():
    with pytest.raises(ValueError):
        Instruction(op=Op.VMUL_VF, dst=0, srcs=(1,), vl=16)


def test_vl_must_be_positive():
    with pytest.raises(ValueError):
        Instruction(op=Op.VADD, dst=0, srcs=(1, 2), vl=0)


def test_uids_are_unique():
    a = Instruction(op=Op.VADD, dst=0, srcs=(1, 2), vl=4)
    b = Instruction(op=Op.VADD, dst=0, srcs=(1, 2), vl=4)
    assert a.uid != b.uid


def test_with_operands_rewrites_registers_vl_and_mem():
    inst = Instruction(op=Op.VLE, dst=1, vl=1, mem=data_ref("x", 0))
    out = inst.with_operands(5, (), 16, data_ref("x", 64))
    assert out.dst == 5
    assert out.vl == 16
    assert out.mem is not None and out.mem.base_elem == 64
    assert out.uid != inst.uid


def test_spill_tag_survives_with_operands():
    inst = Instruction(op=Op.VSE, srcs=(1,), vl=16, mem=spill_ref(0),
                       tag=Tag.SPILL)
    assert inst.with_operands(None, (2,), 16, inst.mem).tag is Tag.SPILL


def test_scalar_block():
    block = scalar_block(6.0)
    assert block.is_scalar
    assert block.scalar == 6.0
    with pytest.raises(ValueError):
        scalar_block(-1.0)


def test_describe_is_informative():
    inst = Instruction(op=Op.VLE, dst=4, vl=16, mem=data_ref("x", 32),
                       tag=Tag.SWAP)
    text = inst.describe()
    assert "vle" in text and "x[32]" in text and "SWAP" in text


@pytest.mark.parametrize("build", [
    lambda: Instruction(op=Op.VADD, dst=0, srcs=(1, 2), vl=16,
                        mem=data_ref("x")),
    lambda: Instruction(op=Op.VADD, dst=0, srcs=(1, 2), vl=16,
                        tag=Tag.SWAP),
    lambda: Instruction(op=Op.VADD, dst=0, srcs=(1, 2), vl=16,
                        tag=Tag.SPILL),
    lambda: Instruction(op=Op.VADD, dst=0, srcs=(1, 2), vl=16, scalar=1.0),
    lambda: Instruction(op=Op.SCALAR_BLOCK, scalar=2.0, dst=0),
    lambda: Instruction(op=Op.SCALAR_BLOCK, scalar=2.0, srcs=(1,)),
    lambda: Instruction(op=Op.SCALAR_BLOCK, scalar=2.0, mem=data_ref("x")),
    lambda: Instruction(op=Op.SCALAR_BLOCK),
    lambda: Instruction(op=Op.SCALAR_BLOCK, scalar=float("nan")),
    lambda: Instruction(op=Op.SCALAR_BLOCK, scalar=float("inf")),
    lambda: Instruction(op=Op.SCALAR_BLOCK, scalar=-1.0),
    lambda: scalar_block(float("nan")),
], ids=["arith-mem", "arith-swap-tag", "arith-spill-tag", "arith-scalar",
        "block-dst", "block-srcs", "block-mem", "block-no-cost",
        "block-nan-cost", "block-inf-cost", "block-negative-cost",
        "scalar_block-nan"])
def test_shapes_the_pipeline_cannot_simulate_are_rejected(build):
    with pytest.raises(ValueError):
        build()


def example(op: Op) -> Instruction:
    """A valid instruction for ``op``, with every operand it takes set."""
    info = OPCODE_INFO[op]
    if info.kind is OpKind.SCALAR:
        return Instruction(op=op, scalar=3.0)
    srcs = tuple(range(10, 10 + info.n_srcs))
    scalar = 2.5 if info.uses_scalar else None
    if info.kind is OpKind.ARITH:
        return Instruction(op=op, dst=4, srcs=srcs, scalar=scalar, vl=8)
    mem = data_ref("x", 24, stride=2, indexed=op in (Op.VLXE, Op.VSXE))
    dst = 4 if info.kind is OpKind.MEM_LOAD else None
    return Instruction(op=op, dst=dst, srcs=srcs, vl=8, mem=mem,
                       tag=Tag.SPILL)


def snapshot(inst: Instruction) -> dict:
    """Every declared field but the construction counter, plus every
    derived slot."""
    return {name: getattr(inst, name) for name in DECLARED[:-1] + DERIVED}


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.value)
def test_every_construction_path_agrees(op):
    inst = example(op)
    info = OPCODE_INFO[op]
    assert [getattr(inst, name) for name in DERIVED] == [
        info, info.is_memory, info.kind is OpKind.MEM_LOAD,
        info.kind is OpKind.MEM_STORE, info.is_arith,
        info.kind is OpKind.SCALAR]
    loaded = Instruction.from_dict(inst.to_dict())
    unpickled = pickle.loads(pickle.dumps(inst))
    others = [loaded, unpickled]
    if not inst.is_scalar:  # scalar blocks have vl=0: nothing to rewrite
        others.append(
            inst.with_operands(inst.dst, inst.srcs, inst.vl, inst.mem))
    for other in others:
        assert snapshot(other) == snapshot(inst)
        assert (other.uid == inst.uid) is (other is unpickled)
    assert unpickled == inst


def test_instructions_are_slotted_and_frozen():
    inst = example(Op.VLE)
    assert not hasattr(inst, "__dict__")
    for name in DECLARED + DERIVED:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(inst, name, None)


def test_equality_and_hash_include_uid_but_not_derived_slots():
    a = Instruction(op=Op.VADD, dst=0, srcs=(1, 2), vl=4, uid=7)
    b = Instruction(op=Op.VADD, dst=0, srcs=(1, 2), vl=4, uid=7)
    c = Instruction(op=Op.VADD, dst=0, srcs=(1, 2), vl=4, uid=8)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert hash(a) == hash((Op.VADD, 0, (1, 2), None, 4, None, Tag.NORMAL,
                            7))
    text = repr(a)
    assert text.startswith("Instruction(op=<Op.VADD")
    assert "uid=7" in text
    assert not any(f"{name}=" in text for name in DERIVED)


def test_equal_sources_share_one_tuple_in_a_program():
    program = get_workload("lavamd").compile(
        CompileSignature(mvl=16, n_logical=4)).program
    assert any(inst.tag is Tag.SPILL for inst in program)
    for prog in (program, Program.from_dict(program.to_dict())):
        by_value = {}
        for inst in prog:
            assert by_value.setdefault(inst.srcs, inst.srcs) is inst.srcs
