"""Simulator facade and statistics plumbing."""

import numpy as np
import pytest

from repro import Simulator, ava_config, native_config
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import MemorySystemConfig
from repro.sim.scenario import Scenario
from repro.sim.stats import SimStats
from tests.conftest import axpy_body, compile_kernel


def test_warm_caches_eliminates_cold_misses():
    config = native_config(1)
    n = 512
    program = compile_kernel(axpy_body(), config, n, {"x": n, "y": n})

    cold = Simulator(config, program)
    cold_stats = cold.run().stats

    warm = Simulator(config, program)
    touched = warm.warm_caches()
    warm_stats = warm.run().stats

    assert touched == 2 * n * 8 // 64
    assert warm_stats.dram_accesses < cold_stats.dram_accesses
    assert warm_stats.cycles < cold_stats.cycles


def test_dram_accesses_include_l2_writebacks():
    """axpy's stores dirty lines that a one-line L2 must write back."""
    config = native_config(1)
    program = compile_kernel(axpy_body(), config, 64, {"x": 64, "y": 64})
    one_line_l2 = MemorySystemConfig(l2=CacheConfig("L2", 64, 64, 1))
    sim = Simulator(Scenario(config, memory=one_line_l2), program)
    stats = sim.run().stats
    memsys = sim.pipeline.memsys
    assert memsys.dram.line_writes == memsys.l2.stats.writebacks > 0
    assert stats.dram_accesses == (memsys.dram.line_reads
                                   + memsys.dram.line_writes)


def test_result_buffers_only_in_functional_mode():
    config = native_config(1)
    program = compile_kernel(axpy_body(), config, 64, {"x": 64, "y": 64})
    timing = Simulator(config, program).run()
    assert timing.data == {}
    func = Simulator(config, program, functional=True)
    func.set_data("x", np.zeros(64))
    func.set_data("y", np.zeros(64))
    assert set(func.run().data) == {"x", "y"}


def test_stats_provenance():
    config = ava_config(2)
    program = compile_kernel(axpy_body(), config, 64, {"x": 64, "y": 64},
                             name="axpy-test")
    stats = Simulator(config, program).run().stats
    assert stats.config_name == "AVA X2"
    assert stats.program_name == "axpy-test"
    assert "AVA X2" in stats.summary()


def test_stats_derived_quantities():
    s = SimStats(cycles=1000, arith_insts=10, vloads=20, vstores=10,
                 swap_loads=5, swap_stores=5, spill_loads=0, spill_stores=0,
                 arith_busy_cycles=100, mem_busy_cycles=800)
    assert s.memory_insts == 40
    assert s.vector_insts == 50
    assert s.memory_fraction == pytest.approx(0.8)
    assert s.swap_insts == 10
    assert s.seconds == pytest.approx(1e-6)
    assert s.mem_utilisation == pytest.approx(0.8)


def test_l2_and_dram_stats_harvested():
    config = native_config(1)
    n = 512
    program = compile_kernel(axpy_body(), config, n, {"x": n, "y": n})
    stats = Simulator(config, program).run().stats
    assert stats.l2_reads > 0
    assert stats.l2_misses > 0  # cold run
    assert stats.dram_accesses > 0
