"""Two-level VRF: valid bits, value transport, dirty-bit, generations."""

import numpy as np

from repro.core.vrf import TwoLevelVRF


def test_valid_bit_lifecycle():
    vrf = TwoLevelVRF(8, 4, 16)
    assert vrf.is_valid(3)
    vrf.mark_pending(3)
    assert not vrf.is_valid(3)
    vrf.mark_valid(3)
    assert vrf.is_valid(3)


def test_functional_value_roundtrip_through_mvrf():
    vrf = TwoLevelVRF(8, 4, 8, functional=True)
    data = np.arange(8, dtype=float)
    vrf.write_preg(2, data, 8)
    vrf.swap_out(5, 2)  # VVR 5 lives in preg 2; store it
    vrf.write_preg(2, np.zeros(8), 8)  # preg reused, overwritten
    vrf.swap_in(5, 3)  # bring VVR 5 back into preg 3
    assert np.allclose(vrf.read_preg(3, 8), data)


def test_partial_vl_write_preserves_tail():
    vrf = TwoLevelVRF(8, 4, 8, functional=True)
    vrf.write_preg(0, np.full(8, 7.0), 8)
    vrf.write_preg(0, np.full(4, 1.0), 4)
    out = vrf.read_preg(0, 8)
    assert np.allclose(out, [1, 1, 1, 1, 7, 7, 7, 7])


def test_unwritten_preg_reads_zero():
    vrf = TwoLevelVRF(8, 4, 8, functional=True)
    assert np.allclose(vrf.read_preg(1, 8), np.zeros(8))


def test_counters_track_without_functional_mode():
    vrf = TwoLevelVRF(8, 4, 16, functional=False)
    vrf.write_preg(0, None, 16)
    vrf.read_preg(0, 16)
    vrf.swap_out(1, 0)
    vrf.swap_in(1, 2)
    assert vrf.pvrf_writes == 16 + 16  # write + swap_in fill
    assert vrf.pvrf_reads == 16 + 16  # read + swap_out drain
    assert vrf.mvrf_writes == 16
    assert vrf.mvrf_reads == 16


def test_dirty_bit_set_by_swap_out_cleared_by_drop():
    vrf = TwoLevelVRF(8, 4, 16)
    assert not vrf.has_mvrf_copy(3)
    vrf.swap_out(3, 0)
    assert vrf.has_mvrf_copy(3)
    vrf.swap_in(3, 1)  # the copy stays valid after a reload
    assert vrf.has_mvrf_copy(3)
    vrf.drop_mvrf(3)
    assert not vrf.has_mvrf_copy(3)


def test_generation_bumped_on_drop():
    vrf = TwoLevelVRF(8, 4, 16)
    g0 = vrf.generation(2)
    vrf.drop_mvrf(2)
    assert vrf.generation(2) == g0 + 1
    vrf.drop_mvrf(2)
    assert vrf.generation(2) == g0 + 2
