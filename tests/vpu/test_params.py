"""Timing parameters."""

import pytest

from repro.vpu.params import TimingParams, arith_beats


def test_table2_structure():
    p = TimingParams()
    assert p.arith_queue_depth == 32
    assert p.mem_queue_depth == 32
    assert p.scalar_clock_ratio == 2.0  # 2 GHz scalar vs 1 GHz VPU


def test_arith_beats_rounding():
    assert arith_beats(16, 1.0, 8) == 2
    assert arith_beats(17, 1.0, 8) == 3
    assert arith_beats(1, 1.0, 8) == 1
    assert arith_beats(16, 4.0, 8) == 8  # iterative divide
    assert arith_beats(16, 1.0, 4) == 4


def test_scalar_clock_conversion():
    p = TimingParams()
    assert p.scalar_to_vpu(6.0) == 3.0


def test_validation():
    with pytest.raises(ValueError):
        TimingParams(scalar_clock_ratio=0)
