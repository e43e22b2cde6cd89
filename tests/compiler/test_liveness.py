"""Live pressure: the reference MAXLIVE measure."""

import pytest

from repro.compiler.liveness import live_pressure, max_pressure
from repro.isa.instructions import Instruction, scalar_block
from repro.isa.opcodes import Op
from repro.isa.operands import data_ref
from tests.conftest import trace_ops


def seq(*defs):
    """Build a tiny trace from (dst, srcs) pairs."""
    out = []
    for dst, srcs in defs:
        if dst is None:
            out.append(Instruction(op=Op.VSE, srcs=srcs[:1], vl=4,
                                   mem=data_ref("x")))
        elif not srcs:
            out.append(Instruction(op=Op.VLE, dst=dst, vl=4,
                                   mem=data_ref("x")))
        elif len(srcs) == 1:
            out.append(Instruction(op=Op.VMV, dst=dst, srcs=srcs, vl=4))
        else:
            out.append(Instruction(op=Op.VADD, dst=dst, srcs=srcs[:2], vl=4))
    return trace_ops(out)


def test_live_pressure_simple_chain():
    trace = seq((0, ()), (1, (0,)), (None, (1,)))
    # At inst 1 both 0 (being read) and 1 (being written) are live.
    assert live_pressure(trace) == [1, 2, 1]
    assert max_pressure(trace) == 2


def test_pressure_counts_overlapping_ranges():
    trace = seq((0, ()), (1, ()), (2, ()), (3, (0, 1)), (None, (2,)),
                (None, (3,)))
    # At the VADD, registers 0 and 1 are read, 2 is live-through and 3 is
    # being defined: four simultaneously-live registers.
    assert max_pressure(trace) == 4


def test_never_read_value_still_occupies_register():
    trace = seq((0, ()), (1, ()), (None, (1,)))
    assert live_pressure(trace)[0] == 1


def test_scalar_blocks_are_transparent():
    trace = trace_ops([scalar_block(4.0)]) + seq((0, ()), (None, (0,)))
    assert max_pressure(trace) == 1


@pytest.mark.parametrize("defs", [
    # never defined
    ((None, (5,)),),
    # defined only later: v0 is live at position 1, so a pass that only
    # rejected never-defined registers would under-count there
    ((None, (5,)), (0, ()), (5, ()), (None, (0,))),
])
def test_use_before_def_rejected(defs):
    trace = seq(*defs)
    with pytest.raises(ValueError):
        live_pressure(trace)


def test_empty_trace():
    assert max_pressure([]) == 0
