"""Composed memory system and DRAM model."""

from repro.memory.cache import CacheConfig
from repro.memory.dram import Dram, DramConfig
from repro.memory.hierarchy import MemorySystem, MemorySystemConfig


def test_table2_defaults():
    ms = MemorySystem()
    assert ms.config.l2.size_bytes == 1024 * 1024
    assert ms.config.l2.latency == 12
    assert ms.config.l2.line_bytes == 64  # 512-bit lines
    assert ms.vector_first_latency == 12


def test_dram_counters_and_latency():
    dram = Dram(DramConfig(latency=80, line_transfer=4))
    dram.line_reads += 1
    dram.line_writes += 1
    assert dram.accesses == 2
    dram.reset()
    assert dram.accesses == 0


def test_vector_access_miss_then_hit():
    ms = MemorySystem()
    assert ms.vector_lines([0x8000], write=False) == 1  # cold miss
    assert ms.vector_lines([0x8000], write=False) == 0
    assert ms.dram.line_reads == 1


def test_vector_write_allocates():
    ms = MemorySystem()
    assert ms.vector_lines([0x9000], write=True) == 1
    assert ms.vector_lines([0x9000], write=False) == 0


def one_line_l2_system():
    """A 1-set, 1-way L2: every new line evicts the previous one."""
    return MemorySystem(MemorySystemConfig(l2=CacheConfig("L2", 64, 64, 1)))


def test_dirty_l2_eviction_is_charged_to_dram():
    ms = one_line_l2_system()
    assert ms.vector_lines([0x0], write=True) == 1
    assert ms.vector_lines([0x40], write=False) == 1  # evicts the dirty line
    assert ms.l2.stats.writebacks == 1
    assert ms.dram.line_writes == 1
    assert ms.dram.accesses == 3


def test_reset_stats():
    ms = MemorySystem()
    ms.vector_lines([0x100], False)
    ms.reset_stats()
    assert ms.l2.stats.accesses == 0
    assert ms.dram.accesses == 0


def test_dram_config_validates_at_construction():
    import pytest

    from repro.memory.dram import DramConfig

    with pytest.raises(ValueError):
        DramConfig(latency=0)
    with pytest.raises(ValueError):
        DramConfig(line_transfer=0)


def test_memory_system_config_validates_members():
    import pytest

    from repro.memory.hierarchy import MemorySystemConfig

    with pytest.raises(TypeError):
        MemorySystemConfig(l2="1MB")
    with pytest.raises(TypeError):
        MemorySystemConfig(dram={"latency": 80})
