"""Memory layout: address assignment and functional backing store."""

import numpy as np
import pytest

from repro.core.config import ava_config
from repro.isa.operands import AddressSpace, MemOperand, data_ref, spill_ref
from repro.isa.program import Program
from repro.sim.layout import LAYOUT_BASE, MemoryLayout


def make_layout(functional=True, spill_slots=2):
    program = Program(name="t", buffers={"x": 100, "y": 50},
                      spill_slots=spill_slots, mvl=128)
    return MemoryLayout(program, ava_config(8), functional=functional)


def test_regions_are_disjoint_and_aligned():
    layout = make_layout()
    x = layout.base_addr(data_ref("x"))
    y = layout.base_addr(data_ref("y"))
    s0 = layout.base_addr(spill_ref(0))
    mv = layout.base_addr(layout.mvrf_operand(0))
    assert x == LAYOUT_BASE
    assert y >= x + 100 * 8
    assert s0 >= y + 50 * 8
    assert mv >= s0 + 2 * 128 * 8
    assert y % 64 == 0 and s0 % 64 == 0


def test_element_offsets():
    layout = make_layout()
    assert (layout.base_addr(data_ref("x", 5))
            == layout.base_addr(data_ref("x")) + 40)


def test_mvrf_slots_by_vvr():
    layout = make_layout()
    a = layout.base_addr(layout.mvrf_operand(0))
    b = layout.base_addr(layout.mvrf_operand(1))
    assert b - a == 128 * 8  # one MVL-wide slot per VVR


def test_unknown_buffer_rejected():
    layout = make_layout()
    with pytest.raises(KeyError):
        layout.base_addr(data_ref("nope"))


def test_functional_roundtrip_unit_stride():
    layout = make_layout()
    layout.set_data("x", np.arange(100, dtype=float))
    got = layout.load(data_ref("x", 10), 5)
    assert np.allclose(got, [10, 11, 12, 13, 14])
    layout.store(data_ref("x", 10), 3, np.array([7.0, 8.0, 9.0]))
    assert np.allclose(layout.get_data("x")[10:13], [7, 8, 9])


def test_unit_stride_store_past_the_end_writes_only_in_range():
    layout = make_layout()
    layout.set_data("x", np.arange(100, dtype=float))
    layout.store(data_ref("x", 98), 4, np.array([7.0, 8.0, 9.0, 10.0]))
    x = layout.get_data("x")
    assert np.array_equal(x[98:], [7, 8])
    assert np.array_equal(x[:98], np.arange(98))
    assert np.array_equal(layout.get_data("y"), np.zeros(50))


def test_unit_stride_store_ending_at_the_buffer_end():
    layout = make_layout()
    layout.set_data("x", np.arange(100, dtype=float))
    layout.store(data_ref("x", 96), 4, np.array([7.0, 8.0, 9.0, 10.0]))
    x = layout.get_data("x")
    assert np.array_equal(x[96:], [7, 8, 9, 10])
    assert np.array_equal(x[:96], np.arange(96))


def test_functional_strided_access():
    layout = make_layout()
    layout.set_data("x", np.arange(100, dtype=float))
    got = layout.load(MemOperand(AddressSpace.DATA, "x", 0, stride=3), 4)
    assert np.allclose(got, [0, 3, 6, 9])


def test_functional_gather_clips_indices():
    layout = make_layout()
    layout.set_data("x", np.arange(100, dtype=float))
    idx = np.array([5.0, 99.0, 1000.0, -3.0])
    got = layout.load(data_ref("x", indexed=True), 4, index=idx)
    assert np.allclose(got, [5, 99, 99, 0])


def test_boundary_loads_clamp():
    layout = make_layout()
    layout.set_data("x", np.arange(100, dtype=float))
    got = layout.load(data_ref("x", -1), 3)
    assert np.allclose(got, [0, 0, 1])  # clamped at element 0


def test_spill_slots_roundtrip():
    layout = make_layout()
    layout.store(spill_ref(1), 4, np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(layout.load(spill_ref(1), 4), [1, 2, 3, 4])
    # Slot 0 is untouched and reads zeros.
    assert np.allclose(layout.load(spill_ref(0), 4), np.zeros(4))


def test_undeclared_spill_slots_are_rejected():
    """Only the program's declared slots resolve: slot 2 of a two-slot
    program would land past the spill region, in the M-VRF."""
    layout = make_layout(spill_slots=2)
    for mem in (spill_ref(2), MemOperand(AddressSpace.SPILL, "spare")):
        with pytest.raises(KeyError, match="not a declared spill slot"):
            layout.base_addr(mem)
        with pytest.raises(KeyError, match="not a declared spill slot"):
            layout.load(mem, 4)


def test_non_functional_layout_rejects_data_access():
    layout = make_layout(functional=False)
    with pytest.raises(RuntimeError):
        layout.set_data("x", np.zeros(100))
    with pytest.raises(RuntimeError):
        layout.get_data("x")


def test_buffer_size_mismatch_rejected():
    layout = make_layout()
    with pytest.raises(ValueError):
        layout.set_data("x", np.zeros(7))
