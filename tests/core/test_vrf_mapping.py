"""Second-level mapping: PRMT / VRLT / PFRL."""

import pytest

from repro.core.vrf_mapping import VRFMapping


def test_initial_state():
    m = VRFMapping(64, 8)
    assert m.free_count == 8
    assert m.resident_vvrs() == []
    assert not m.in_pvrf(0)
    assert not m.in_mvrf(0)


def test_allocate_maps_and_tracks_owner():
    m = VRFMapping(64, 8)
    preg = m.allocate(10)
    assert m.in_pvrf(10)
    assert m.preg_of(10) == preg
    assert m._owner[preg] == 10
    assert m.free_count == 7


def test_double_allocation_rejected():
    m = VRFMapping(64, 8)
    m.allocate(10)
    with pytest.raises(RuntimeError):
        m.allocate(10)


def test_allocate_with_empty_pfrl_rejected():
    m = VRFMapping(64, 2)
    m.allocate(0)
    m.allocate(1)
    with pytest.raises(RuntimeError):
        m.allocate(2)


def test_evict_moves_to_mvrf():
    m = VRFMapping(64, 8)
    preg = m.allocate(10)
    assert m.evict(10) == preg
    assert not m.in_pvrf(10)
    assert m.in_mvrf(10)  # the value now lives in memory
    assert m.free_count == 8
    with pytest.raises(KeyError):
        m.preg_of(10)


def test_release_clears_everything():
    m = VRFMapping(64, 8)
    m.allocate(10)
    m.release(10)
    assert not m.in_pvrf(10) and not m.in_mvrf(10)
    assert m.free_count == 8
    # Releasing an M-VRF resident clears its memory state too.
    m.allocate(11)
    m.evict(11)
    assert m.release(11) is None
    assert not m.in_mvrf(11)


def test_release_of_a_resident_vvr_reports_evict_then_release():
    """The sanitizer sees a resident release as an eviction followed by a
    release, each against the mapping state of that step."""
    m = VRFMapping(64, 8)
    seen = []

    class Recorder:
        def _snap(self, event, vvr, preg):
            seen.append((event, vvr, preg, m.in_pvrf(vvr), m.in_mvrf(vvr),
                         m.free_count, m._owner[preg], m.vvr_version[vvr]))

        def on_map_alloc(self, vvr, preg):
            pass

        def on_map_evict(self, vvr, preg):
            self._snap("evict", vvr, preg)

        def on_map_release(self, vvr, preg):
            self._snap("release", vvr, preg)

    m.sanitizer = Recorder()
    preg = m.allocate(10)
    assert m.release(10) == preg
    assert seen == [("evict", 10, preg, False, True, 8, None, 2),
                    ("release", 10, preg, False, False, 8, None, 2)]
    assert not m.in_mvrf(10)


def test_reallocation_after_evict_clears_mvrf_flag():
    m = VRFMapping(64, 8)
    m.allocate(10)
    m.evict(10)
    m.allocate(10)  # Swap-Load brings it back
    assert m.in_pvrf(10) and not m.in_mvrf(10)


def test_invariant_check_passes_for_legal_state():
    m = VRFMapping(64, 8)
    for vvr in range(5):
        m.allocate(vvr)
    m.evict(2)
    m.invariant_check()


def test_more_physical_than_vvrs_rejected():
    with pytest.raises(ValueError):
        VRFMapping(8, 16)
