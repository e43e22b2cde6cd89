"""Integration: the paper's key result shapes on reduced problem sizes.

These are fast cross-checks of rows in the claims table (``repro
claims``), which runs the full 14-configuration panels; each uses a
handful of simulations.
"""

import pytest

from repro import Simulator, ava_config, native_config, rg_config
from repro.workloads import get_workload


def run(name, config):
    workload = get_workload(name)
    sim = Simulator(config, workload.compile(config).program)
    sim.warm_caches()
    return sim.run().stats


def test_axpy_2x_headline():
    base = run("axpy", native_config(1))
    ava8 = run("axpy", ava_config(8))
    speedup = base.cycles / ava8.cycles
    assert 1.8 <= speedup <= 2.4  # paper: 2.03X
    assert ava8.swap_insts == 0


def test_ava_equals_native_when_pressure_fits():
    """AVA X2's 32 physical registers cover every app's live set."""
    for name in ("axpy", "blackscholes", "somier"):
        native = run(name, native_config(2))
        ava = run(name, ava_config(2))
        assert ava.cycles == native.cycles, name
        assert ava.swap_insts == 0


def test_rg_lmul8_frl_pressure():
    """§II: LMUL=8 leaves 4 free register groups -> rename stalls."""
    rg = run("axpy", rg_config(8))
    native = run("axpy", native_config(8))
    assert rg.rename_frl_stalls >= native.rename_frl_stalls


def test_lavamd_rg_collapse_vs_ava():
    rg = run("lavamd", rg_config(8))
    ava = run("lavamd", ava_config(8))
    base = run("lavamd", native_config(1))
    assert base.cycles / rg.cycles < 0.7  # paper: 0.48X slowdown
    assert ava.cycles < rg.cycles  # AVA degrades far less


def test_spill_code_runs_at_mvl_lavamd():
    """The RG-LMUL8 pathology: spills at VL=128 vs arithmetic at VL=48."""
    stats = run("lavamd", rg_config(8))
    assert stats.spill_insts > 0
    assert stats.memory_fraction > 0.3  # paper: 43%


def test_blackscholes_ava_swaps_track_rg_spills():
    ava = run("blackscholes", ava_config(8))
    rg = run("blackscholes", rg_config(8))
    assert 0 < ava.swap_insts <= 1.2 * rg.spill_insts
    assert ava.cycles < rg.cycles


def test_somier_memory_bound_character():
    stats = run("somier", native_config(1))
    assert stats.memory_fraction == pytest.approx(0.44, abs=0.06)
    # The memory unit carries a comparable load to the arithmetic unit —
    # "memory bound" in the paper shows up as the ~46% memory mix and the
    # L2-leakage-dominated energy, which the energy test below covers.
    assert stats.mem_busy_cycles > 0.6 * stats.arith_busy_cycles


def test_somier_l2_leakage_dominates_energy():
    from repro.power.mcpat import McPatModel

    cfg = native_config(1)
    report = McPatModel().energy(cfg, run("somier", cfg))
    assert report.l2_leakage > 0.4 * report.total


def test_energy_shape_axpy_saving():
    from repro.power.mcpat import McPatModel

    model = McPatModel()
    base_cfg, ava_cfg = native_config(1), ava_config(8)
    base = model.energy(base_cfg, run("axpy", base_cfg)).total
    ava = model.energy(ava_cfg, run("axpy", ava_cfg)).total
    saving = 1 - ava / base
    assert 0.25 <= saving <= 0.50  # paper: 37%
