"""Composed memory system and DRAM model."""

from repro.memory.cache import CacheConfig
from repro.memory.dram import Dram, DramConfig
from repro.memory.hierarchy import MemorySystem, MemorySystemConfig


def test_table2_defaults():
    ms = MemorySystem()
    assert ms.config.l1i.size_bytes == 32 * 1024
    assert ms.config.l1d.size_bytes == 32 * 1024
    assert ms.config.l2.size_bytes == 1024 * 1024
    assert ms.config.l1d.latency == 4
    assert ms.config.l2.latency == 12
    assert ms.config.l2.line_bytes == 64  # 512-bit lines
    assert ms.vector_first_latency == 12


def test_dram_counters_and_latency():
    dram = Dram(DramConfig(latency=80, line_transfer=4))
    assert dram.read_line() == 84
    assert dram.write_line() == 4
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


def test_scalar_l2_miss_charges_writeback_but_not_time():
    ms = one_line_l2_system()
    ms.vector_lines([0x0], write=True)
    cold = (ms.config.l1d.latency + ms.config.l2.latency
            + ms.config.dram.latency + ms.config.dram.line_transfer)
    assert ms.scalar_read(0x40) == cold  # evicts the dirty line
    assert ms.dram.line_writes == 1
    ms.vector_lines([0x80], write=True)  # evicts the clean line
    assert ms.dram.line_writes == 1
    ms.fetch(0xC0)
    assert ms.dram.line_writes == 2


def test_scalar_read_latencies_stack():
    ms = MemorySystem()
    cold = ms.scalar_read(0x4000)
    warm = ms.scalar_read(0x4000)
    assert cold > ms.config.l1d.latency + ms.config.l2.latency
    assert warm == ms.config.l1d.latency


def test_fetch_uses_l1i():
    ms = MemorySystem()
    ms.fetch(0x100)
    warm = ms.fetch(0x100)
    assert warm == ms.config.l1i.latency
    assert ms.l1i.stats.accesses == 2
    assert ms.l1d.stats.accesses == 0


def test_l1_and_vector_share_l2():
    ms = MemorySystem()
    ms.scalar_read(0x7000)  # brings the line into L2 as well
    assert ms.vector_lines([0x7000], write=False) == 0


def test_reset_stats():
    ms = MemorySystem()
    ms.vector_lines([0x100], False)
    ms.scalar_read(0x200)
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

    with pytest.raises(ValueError):
        MemorySystemConfig(vector_interface_bytes=0)
    with pytest.raises(TypeError):
        MemorySystemConfig(l2="1MB")
    with pytest.raises(TypeError):
        MemorySystemConfig(dram={"latency": 80})
