"""Memory operand value objects."""

import dataclasses
import pickle

import pytest

from repro.isa.operands import (
    AddressSpace,
    MemOperand,
    data_ref,
    spill_ref,
)


def test_data_ref_defaults():
    op = data_ref("x")
    assert op.space is AddressSpace.DATA
    assert op.base_elem == 0 and op.stride == 1


def test_with_base_preserves_everything_else():
    op = data_ref("x", 10, stride=3)
    moved = op.with_base(40)
    assert moved.base_elem == 40
    assert moved.stride == 3 and moved.buffer == "x"
    assert moved.space is AddressSpace.DATA


def test_spill_ref_names_slots():
    assert spill_ref(3).buffer == "slot3"
    assert spill_ref(3).space is AddressSpace.SPILL


def test_describe_distinguishes_kinds():
    assert "unit" in data_ref("x").describe()
    assert "stride=4" in data_ref("x", stride=4).describe()
    assert "indexed" in data_ref("x", indexed=True).describe()


def test_operands_are_hashable_value_objects():
    assert data_ref("x", 8) == MemOperand(AddressSpace.DATA, "x", 8)
    assert len({data_ref("x"), data_ref("x"), data_ref("y")}) == 2


def test_operands_are_slotted_frozen_and_picklable():
    op = data_ref("x", 8, stride=2, indexed=True)
    assert not hasattr(op, "__dict__")
    for f in dataclasses.fields(op):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(op, f.name, None)
    copy = pickle.loads(pickle.dumps(op))
    assert copy == op and hash(copy) == hash(op)
    assert MemOperand.from_dict(op.to_dict()) == op
    assert repr(op) == ("MemOperand(space=<AddressSpace.DATA: 'data'>, "
                        "buffer='x', base_elem=8, stride=2, indexed=True)")
