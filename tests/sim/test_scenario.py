"""The scenario layer: axis registries, the frozen bundle, its JSON form."""

from dataclasses import replace

import pytest

from repro.core.config import (
    ava_config,
    get_machine,
    machine_names,
    native_config,
    register_machine,
    rg_config,
)
from repro.memory.hierarchy import MemorySystemConfig
from repro.memory.presets import (
    get_memory_system,
    memory_system_names,
    register_memory_system,
)
from repro.power.mcpat import McPatModel
from repro.sim.scenario import CellPolicy, Scenario, build_scenario
from repro.sim.simulator import Simulator
from repro.core.swap import VictimPolicy
from repro.vpu.params import (
    DEFAULT_TIMING,
    get_timing,
    register_timing,
    timing_names,
)
from repro.workloads import get_workload


# ---------------------------------------------------------------------------
# axis registries
# ---------------------------------------------------------------------------
def test_machine_registry_covers_the_paper_matrix():
    names = machine_names()
    for scale in (1, 2, 3, 4, 8):
        assert f"native-x{scale}" in names
        assert f"ava-x{scale}" in names
    for lmul in (1, 2, 4, 8):
        assert f"rg-lmul{lmul}" in names
    assert get_machine("native-x8") == native_config(8)
    assert get_machine("ava-x8") == ava_config(8)
    assert get_machine("rg-lmul4") == rg_config(4)
    assert get_machine("baseline") == native_config(1)


def test_machine_registry_rejects_unknown_and_collisions(registries):
    with pytest.raises(KeyError):
        get_machine("cray-1")
    with pytest.raises(ValueError):
        register_machine("native-x8", lambda: native_config(1))
    # Plugin flow: register, resolve, clean up.
    register_machine("test-tiny", lambda: native_config(1))
    assert get_machine("test-tiny") == native_config(1)
    registries()
    with pytest.raises(KeyError):
        get_machine("test-tiny")


def test_memory_presets(registries):
    assert "table2" in memory_system_names()
    table2 = get_memory_system("table2")
    assert table2 == MemorySystemConfig()
    assert get_memory_system("slow-dram").dram.latency == \
        2 * table2.dram.latency
    assert get_memory_system("half-l2").l2.size_bytes == \
        table2.l2.size_bytes // 2
    assert get_memory_system("slow-l2").l2.latency == 2 * table2.l2.latency
    with pytest.raises(KeyError):
        get_memory_system("hbm3")
    with pytest.raises(ValueError):
        register_memory_system("table2", MemorySystemConfig)
    register_memory_system("test-mem", MemorySystemConfig)
    assert get_memory_system("test-mem") == MemorySystemConfig()
    registries()
    with pytest.raises(KeyError):
        get_memory_system("test-mem")


def test_timing_presets(registries):
    assert "default" in timing_names()
    assert get_timing("default") == DEFAULT_TIMING
    assert get_timing("single-swap").preissue_swap_budget == 1
    assert get_timing("wide-swap").preissue_swap_budget == 4
    assert get_timing("deep-queues").arith_queue_depth == 64
    with pytest.raises(KeyError):
        get_timing("overclocked")
    with pytest.raises(ValueError):
        register_timing("default", lambda: DEFAULT_TIMING)
    register_timing("test-timing", lambda: DEFAULT_TIMING)
    assert get_timing("test-timing") == DEFAULT_TIMING
    registries()
    with pytest.raises(KeyError):
        get_timing("test-timing")


# ---------------------------------------------------------------------------
# the Scenario bundle
# ---------------------------------------------------------------------------
def test_default_scenario_is_the_paper_platform():
    scenario = build_scenario("ava-x8")
    assert scenario.machine == ava_config(8)
    assert scenario.timing == DEFAULT_TIMING
    assert scenario.memory == MemorySystemConfig()
    assert scenario.policy == CellPolicy()


def test_build_scenario_resolves_preset_names():
    scenario = build_scenario("ava-x4", memory="slow-dram",
                              timing="single-swap",
                              policy=CellPolicy(
                                  victim_policy=VictimPolicy.FIFO))
    assert scenario.machine.name == "AVA X4"
    assert scenario.memory.dram.latency == 160
    assert scenario.timing.preissue_swap_budget == 1
    assert scenario.policy.victim_policy is VictimPolicy.FIFO


def test_build_scenario_accepts_policy_names_and_rejects_junk():
    assert build_scenario("ava-x8", policy="fifo").policy == \
        CellPolicy(victim_policy=VictimPolicy.FIFO)
    with pytest.raises(ValueError):
        build_scenario("ava-x8", policy="mru")  # not a VictimPolicy
    with pytest.raises(TypeError):
        build_scenario("ava-x8", timing=12)  # wrong-typed axis
    with pytest.raises(TypeError):
        build_scenario("ava-x8", memory={"l2": {"latency": 6}})


def test_scenario_is_frozen_and_hashable():
    a = build_scenario("ava-x8", memory="slow-dram")
    b = build_scenario("ava-x8", memory="slow-dram")
    assert a == b and hash(a) == hash(b)
    assert a != build_scenario("ava-x8", memory="table2")
    with pytest.raises(AttributeError):
        a.machine = native_config(1)


def _leaves(data: dict) -> int:
    return sum(_leaves(v) if isinstance(v, dict) else 1
               for v in data.values())


def test_scenario_serialises_only_the_knobs_a_model_reads():
    data = Scenario(native_config(1)).to_dict()
    assert _leaves(data) == 28
    assert set(data["memory"]) == {"l2", "dram"}
    assert "lanes" not in data["timing"] and "lmul" not in data["machine"]


# ---------------------------------------------------------------------------
# the stack consumes scenarios end-to-end
# ---------------------------------------------------------------------------
def test_simulator_accepts_a_scenario():
    scenario = build_scenario("ava-x8", memory="slow-dram")
    program = get_workload("axpy").compile(scenario.machine).program
    result = Simulator(scenario, program).run()
    default = Simulator(scenario.machine, program).run()
    assert result.stats.cycles > 0
    # The slow-dram axis must actually reach the timing model.
    assert result.stats.cycles != default.stats.cycles


def test_bare_config_equals_the_default_scenario():
    """A bare MachineConfig means ``Scenario(machine=config)``: the paper
    defaults for every other axis, byte-identical statistics."""
    config = ava_config(8)
    program = get_workload("blackscholes").compile(config).program
    via_scenario = Simulator(build_scenario(config), program).run()
    via_config = Simulator(config, program).run()
    assert via_scenario.stats.to_dict() == via_config.stats.to_dict()


def test_machine_lanes_drive_both_timing_and_area():
    """One lane count: halving it slows the arithmetic unit and halves
    the FPU area the power model prices."""
    eight = ava_config(8)
    four = replace(eight, lanes=4)
    program = get_workload("axpy").compile(eight).program
    slow = Simulator(four, program).run().stats
    fast = Simulator(eight, program).run().stats
    assert slow.arith_busy_cycles > fast.arith_busy_cycles
    model = McPatModel()
    assert model.area(four).fpus == model.area(eight).fpus / 2
