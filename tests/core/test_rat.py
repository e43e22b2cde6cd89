"""First-level renaming: RAT + FRL."""

import pytest

from repro.core.rat import RenameTable


def test_initial_identity_mapping():
    rat = RenameTable(32, 64)
    assert rat.mapping()[0] == 0
    assert rat.mapping()[31] == 31
    assert rat.free_count == 32


def test_rename_destination_allocates_fresh_vvr():
    rat = RenameTable(32, 64)
    new, old = rat.rename_destination(5)
    assert old == 5
    assert new == 32  # first FRL entry
    assert rat.mapping()[5] == new


def test_sources_follow_current_mapping():
    rat = RenameTable(32, 64)
    new, _ = rat.rename_destination(3)
    assert rat.rename_sources((3, 4)) == (new, 4)


def test_frl_exhaustion_stalls():
    """§II: the FRL running dry is what stalls the scalar core."""
    rat = RenameTable(4, 8)
    for _ in range(4):
        rat.rename_destination(0)
    assert not rat.can_rename_dst()
    with pytest.raises(RuntimeError):
        rat.rename_destination(0)


def test_commit_recycles_old_vvr():
    rat = RenameTable(4, 8)
    new, old = rat.rename_destination(1)
    before = rat.free_count
    rat.commit(old)
    assert rat.free_count == before + 1
    # The recycled VVR comes back around eventually.
    seen = {rat.rename_destination(0)[0] for _ in range(before + 1)}
    assert old in seen


def test_live_vvrs():
    rat = RenameTable(4, 8)
    new, _ = rat.rename_destination(2)
    assert rat.live_vvrs() == {0, 1, new, 3}


def test_needs_enough_vvrs():
    with pytest.raises(ValueError):
        RenameTable(32, 16)
