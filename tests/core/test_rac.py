"""Register Access Counters: the 3-bit usage counters of §III.C."""

import pytest

from repro.core.rac import RAC_MAX, RegisterAccessCounters


def test_increment_decrement():
    rac = RegisterAccessCounters(8)
    rac.increment(3)
    rac.increment(3)
    assert rac.count(3) == 2
    rac.decrement(3)
    assert rac.count(3) == 1


def test_underflow_is_a_protocol_violation():
    rac = RegisterAccessCounters(8)
    with pytest.raises(RuntimeError):
        rac.decrement(0)


def test_reclaimable_only_at_zero():
    rac = RegisterAccessCounters(8)
    assert rac.is_reclaimable(0)
    rac.increment(0)
    assert not rac.is_reclaimable(0)
    rac.decrement(0)
    assert rac.is_reclaimable(0)


def test_saturation_at_3_bits():
    rac = RegisterAccessCounters(8)
    for _ in range(RAC_MAX + 5):
        rac.increment(1)
    assert rac.count(1) == RAC_MAX
    # A saturated counter stops counting and is never trusted again...
    rac.decrement(1)
    assert rac.count(1) == RAC_MAX
    assert not rac.is_reclaimable(1)
    # ...until it is reset.
    rac.reset(1)
    assert rac.count(1) == 0
    assert rac.is_reclaimable(1)
