"""Workload characterisation: the paper-reported properties of each app.

:data:`TARGETS` pins, for every Table-IV application, the live register
pressure, the first spilling LMUL configuration, and the instruction mix;
these tests keep the kernels honest against those calibration targets.
"""

import pytest

from repro import native_config, rg_config
from repro.compiler.trace import body_pressure
from repro.workloads import (ALL_WORKLOAD_NAMES, EXTENDED_WORKLOAD_NAMES,
                             WORKLOAD_NAMES, all_workloads, get_workload)

#: (pressure band, first LMUL that spills or None, memory-fraction band)
TARGETS = {
    "axpy": ((2, 4), None, (0.70, 0.80)),
    "blackscholes": ((17, 24), 2, (0.05, 0.20)),
    "lavamd": ((9, 16), 4, (0.05, 0.15)),
    "particlefilter": ((9, 16), 4, (0.15, 0.30)),
    "somier": ((5, 8), 8, (0.38, 0.52)),
    "swaptions": ((17, 24), 2, (0.08, 0.18)),
}


def test_registry_matches_table4():
    assert WORKLOAD_NAMES == ["axpy", "blackscholes", "lavamd",
                              "particlefilter", "somier", "swaptions"]
    assert [w.name for w in all_workloads()] == WORKLOAD_NAMES


def test_unknown_workload_rejected():
    with pytest.raises(KeyError):
        get_workload("doom")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_live_pressure_band(name):
    lo, hi = TARGETS[name][0]
    pressure = body_pressure(get_workload(name).body)
    assert lo <= pressure <= hi, f"{name}: pressure {pressure}"


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_spill_threshold_matches_paper(name):
    """The paper reports which LMUL configuration first spills per app."""
    first_spill = TARGETS[name][1]
    workload = get_workload(name)
    for lmul in (2, 4, 8):
        alloc = workload.compile(rg_config(lmul)).allocation
        spills = alloc.spill_loads + alloc.spill_stores
        if first_spill is None or lmul < first_spill:
            assert spills == 0, f"{name} spills at LMUL{lmul}"
        else:
            assert spills > 0, f"{name} clean at LMUL{lmul}"


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_instruction_mix_band(name):
    lo, hi = TARGETS[name][2]
    stats = get_workload(name).compile(native_config(1)).program.stats()
    assert lo <= stats.memory_fraction <= hi


def test_lavamd_fixed_avl():
    """LavaMD2 always runs 48-element vectors (§V)."""
    lavamd = get_workload("lavamd")
    assert lavamd.fixed_avl == 48
    assert lavamd.effective_vl(16) == 16
    assert lavamd.effective_vl(64) == 48
    assert lavamd.effective_vl(128) == 48


def test_vla_workloads_track_mvl():
    axpy = get_workload("axpy")
    assert axpy.effective_vl(128) == 128


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_compile_produces_valid_programs(name):
    workload = get_workload(name)
    for cfg in (native_config(1), rg_config(8)):
        compiled = workload.compile(cfg)
        compiled.program.validate(cfg.n_logical)
        assert compiled.program.meta["iterations"] >= 1


def test_blackscholes_register_usage_near_paper():
    """Paper: the compiler uses 23 logical registers for Blackscholes."""
    alloc = get_workload("blackscholes").compile(native_config(1)).allocation
    assert 17 <= alloc.registers_used <= 26


# ---------------------------------------------------------------------------
# the extended RiVEC-style kernels
# ---------------------------------------------------------------------------
#: Same shape as TARGETS: (pressure band, first spilling LMUL, memory band).
#: These kernels have no paper row; the bands pin the *designed* character
#: of each (spmv is the indexed-memory stressor, streamcluster the second
#: high-pressure application) so refactors cannot silently flatten them.
EXTENDED_TARGETS = {
    "jacobi2d": ((5, 8), 8, (0.45, 0.60)),
    "pathfinder": ((4, 7), 8, (0.55, 0.70)),
    "spmv": ((3, 6), None, (0.70, 0.82)),
    "streamcluster": ((12, 18), 4, (0.12, 0.30)),
}


def test_extended_registry_order():
    assert EXTENDED_WORKLOAD_NAMES == ["jacobi2d", "pathfinder", "spmv",
                                       "streamcluster"]
    assert ALL_WORKLOAD_NAMES == WORKLOAD_NAMES + EXTENDED_WORKLOAD_NAMES


@pytest.mark.parametrize("name", EXTENDED_WORKLOAD_NAMES)
def test_extended_live_pressure_band(name):
    lo, hi = EXTENDED_TARGETS[name][0]
    pressure = body_pressure(get_workload(name).body)
    assert lo <= pressure <= hi, f"{name}: pressure {pressure}"


@pytest.mark.parametrize("name", EXTENDED_WORKLOAD_NAMES)
def test_extended_spill_threshold(name):
    first_spill = EXTENDED_TARGETS[name][1]
    workload = get_workload(name)
    for lmul in (2, 4, 8):
        alloc = workload.compile(rg_config(lmul)).allocation
        spills = alloc.spill_loads + alloc.spill_stores
        if first_spill is None or lmul < first_spill:
            assert spills == 0, f"{name} spills at LMUL{lmul}"
        else:
            assert spills > 0, f"{name} clean at LMUL{lmul}"


@pytest.mark.parametrize("name", EXTENDED_WORKLOAD_NAMES)
def test_extended_instruction_mix_band(name):
    lo, hi = EXTENDED_TARGETS[name][2]
    stats = get_workload(name).compile(native_config(1)).program.stats()
    assert lo <= stats.memory_fraction <= hi


def test_spmv_exercises_the_indexed_memory_path():
    """The ELL kernel must be dominated by gathers, not unit-stride loads."""
    from repro.isa.opcodes import Op

    program = get_workload("spmv").compile(native_config(1)).program
    gathers = sum(1 for i in program.insts if i.op is Op.VLXE)
    unit_loads = sum(1 for i in program.insts if i.op is Op.VLE)
    assert gathers > 0 and gathers == unit_loads // 2


def test_extended_workloads_are_vector_length_agnostic():
    for name in EXTENDED_WORKLOAD_NAMES:
        workload = get_workload(name)
        assert workload.fixed_avl is None
        assert workload.effective_vl(128) == 128


def test_compile_never_calls_init_data():
    """Buffers come from the kernel: compiling allocates no data arrays."""
    workload = get_workload("somier")
    calls = 0
    original = workload.init_data

    def counting(rng):
        nonlocal calls
        calls += 1
        return original(rng)

    workload.init_data = counting  # type: ignore[method-assign]
    workload.compile_fingerprint()
    workload.compile(native_config(1))
    workload.compile(rg_config(4))
    assert calls == 0
    # Resizing the instance (the equivalence suite does this) resizes
    # every buffer.
    workload.n_elements = 128
    assert set(workload.buffers.values()) == {128}
