"""Micro-op dependency bookkeeping and the ordering invariant."""

import pytest

from repro.core.uop import MicroOp
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Op


def arith_uop(seq=-1):
    return MicroOp(Instruction(op=Op.VADD, dst=0, srcs=(1, 2), vl=8),
                   seq=seq)


def test_validate_requires_seq():
    u = arith_uop()
    with pytest.raises(AssertionError):
        u.validate_ordering()


def test_validate_accepts_older_dependencies():
    old = arith_uop(seq=1)
    young = arith_uop(seq=2)
    young.attach_producer(old)
    young.attach_reader_guard(old)
    young.validate_ordering()


def test_validate_rejects_younger_dependency():
    old = arith_uop(seq=1)
    young = arith_uop(seq=2)
    old.attach_producer(young)
    with pytest.raises(AssertionError):
        old.validate_ordering()


def test_priority_swaps_exempt_from_ordering():
    """Front-inserted Swap-Stores depend on nothing; they may be younger."""
    head = arith_uop(seq=1)
    priority_store = arith_uop(seq=9)
    priority_store.priority = True
    head.attach_store_guard(priority_store)
    head.validate_ordering()


def test_none_producers_allowed():
    u = arith_uop(seq=3)
    u.attach_producer(None)
    u.validate_ordering()


def test_describe_shows_rename_state():
    u = arith_uop(seq=5)
    u.src_vvrs = (40, 41)
    u.dst_vvr = 42
    text = u.describe()
    assert "(40, 41)" in text and "42" in text


def test_equality_is_identity():
    """A micro-op is one in-flight instance: two built from the same
    instruction with equal fields are distinct, and list membership and
    removal find the exact object."""
    inst = Instruction(op=Op.VADD, dst=0, srcs=(1, 2), vl=8)
    a = MicroOp(inst, seq=4)
    b = MicroOp(inst, seq=4)
    assert a == a and a != b
    assert len({a, b}) == 2
    readers = [a, b]
    readers.remove(b)
    assert len(readers) == 1 and readers[0] is a
    assert a in readers and b not in readers
