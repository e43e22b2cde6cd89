"""Set-associative cache model."""

import pytest

from repro.memory.cache import Cache, CacheConfig


def small_cache(assoc=2, sets=4):
    return Cache(CacheConfig("test", sets * assoc * 64, 64, assoc, latency=4))


def hit(c, addr, write=False):
    """One address through ``access_lines``; True on hit."""
    return not c.access_lines((addr,), write)


def test_geometry():
    cfg = CacheConfig("L2", 1024 * 1024, 64, 16, 12)
    assert cfg.n_sets == 1024


def test_geometry_must_divide():
    with pytest.raises(ValueError):
        CacheConfig("bad", 1000, 64, 8)


def test_cold_miss_then_hit():
    c = small_cache()
    assert not hit(c, 0x1000)
    assert hit(c, 0x1000)
    assert c.stats.reads == 2
    assert c.stats.read_misses == 1


def test_same_line_different_bytes_hit():
    c = small_cache()
    hit(c, 0x1000)
    assert hit(c, 0x1030)  # same 64-byte line


def test_lru_eviction():
    c = small_cache(assoc=2, sets=1)
    hit(c, 0x000)  # line A
    hit(c, 0x040)  # line B
    hit(c, 0x000)  # touch A -> B becomes LRU
    hit(c, 0x080)  # line C evicts B
    assert hit(c, 0x000)
    assert not hit(c, 0x040)  # B was evicted


def test_dirty_eviction_counts_writeback():
    c = small_cache(assoc=1, sets=1)
    hit(c, 0x000, write=True)
    hit(c, 0x040)  # evicts the dirty line
    assert c.stats.writebacks == 1


def test_clean_eviction_no_writeback():
    c = small_cache(assoc=1, sets=1)
    hit(c, 0x000)
    hit(c, 0x040)
    assert c.stats.writebacks == 0


def test_write_allocate():
    c = small_cache()
    assert not hit(c, 0x2000, write=True)
    assert hit(c, 0x2000)
    assert c.stats.write_misses == 1


def test_set_indexing_isolates_sets():
    c = small_cache(assoc=1, sets=4)
    hit(c, 0 * 64)
    hit(c, 1 * 64)
    hit(c, 2 * 64)
    hit(c, 3 * 64)
    assert all(hit(c, i * 64) for i in range(4))


def test_flush():
    c = small_cache()
    hit(c, 0x000, write=True)
    hit(c, 0x100)
    assert c.occupancy == 2
    dirty = c.flush()
    assert dirty == 1
    assert c.occupancy == 0
    assert not hit(c, 0x000)


def test_config_validates_at_construction():
    """A bad sweep preset must fail at spec-parse time, not mid-grid."""
    with pytest.raises(ValueError):
        CacheConfig("bad", 1024, 64, 8, latency=0)
    with pytest.raises(ValueError):
        CacheConfig("bad", 1024, 64, 8, latency=-4)
    with pytest.raises(ValueError):
        CacheConfig("bad", 0, 64, 8)
    with pytest.raises(ValueError):
        CacheConfig("bad", 1024, 0, 8)
    with pytest.raises(ValueError):
        CacheConfig("bad", 1024, 64, 0)
