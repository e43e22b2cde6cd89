"""Reorder buffer: in-order retirement."""

import pytest

from repro.core.rob import ReorderBuffer
from repro.core.uop import MicroOp, UopState
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Op
from repro.isa.operands import data_ref


def uop(memory=False):
    if memory:
        inst = Instruction(op=Op.VLE, dst=0, vl=8, mem=data_ref("x"))
    else:
        inst = Instruction(op=Op.VADD, dst=0, srcs=(1, 2), vl=8)
    return MicroOp(inst)


def finish(u, at):
    u.state = UopState.DONE
    u.done_at = at


def test_allocate_until_full():
    rob = ReorderBuffer(capacity=2)
    rob.allocate(uop())
    rob.allocate(uop())
    assert rob.full
    with pytest.raises(RuntimeError):
        rob.allocate(uop())


def test_commit_is_in_order():
    rob = ReorderBuffer(capacity=4, commit_width=2)
    a, b, c = uop(), uop(), uop()
    for u in (a, b, c):
        rob.allocate(u)
    finish(b, 5)
    finish(c, 5)
    # The head (a) is not done: nothing can commit.
    assert rob.committable(now=10) == []
    finish(a, 7)
    assert rob.committable(now=10) == [a, b]  # commit width caps at 2


def test_committable_respects_time():
    rob = ReorderBuffer()
    a = uop()
    rob.allocate(a)
    finish(a, 20)
    assert rob.committable(now=10) == []
    assert rob.committable(now=20) == [a]


def test_retire_out_of_order_rejected():
    rob = ReorderBuffer()
    a, b = uop(), uop()
    rob.allocate(a)
    rob.allocate(b)
    finish(a, 0)
    finish(b, 0)
    with pytest.raises(RuntimeError):
        rob.retire(b)


def test_retire_updates_counters_and_state():
    rob = ReorderBuffer()
    a = uop()
    rob.allocate(a)
    finish(a, 0)
    rob.retire(a)
    assert a.state is UopState.COMMITTED
    assert rob.total_committed == 1
    assert rob.occupancy == 0
    assert list(rob) == []
