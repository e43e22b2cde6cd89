"""Shared fixtures: small kernels, programs and machine configurations."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    KernelBuilder,
    Program,
    StripSchedule,
    allocate,
    ava_config,
    native_config,
    unroll_kernel,
)
from repro.core.config import MachineConfig


def trace_ops(insts) -> list:
    """Ready-built instructions in the allocator's light trace form."""
    return [(i, i.dst, i.srcs, i.vl, i.mem) for i in insts]


def compile_kernel(body, config: MachineConfig, n_elements: int,
                   buffers: dict, name: str = "test") -> Program:
    """Strip-mine + allocate a kernel body for a configuration."""
    schedule = StripSchedule.for_elements(n_elements, config.mvl)
    trace = unroll_kernel(body, schedule, config.mvl)
    allocation = allocate(trace, config.n_logical, config.mvl)
    return Program(name=name, insts=allocation.insts, buffers=dict(buffers),
                   spill_slots=allocation.spill_slots, mvl=config.mvl)


def axpy_body(alpha: float = 2.0):
    kb = KernelBuilder()
    x = kb.load("x")
    y = kb.load("y")
    kb.store(kb.fmadd_vf(alpha, x, y), "y")
    return kb.build()


def high_pressure_body(n_consts: int = 18):
    """A kernel whose hoisted constants exceed small P-VRF configurations."""
    kb = KernelBuilder()
    consts = [kb.const(1.0 + 0.1 * i) for i in range(n_consts)]
    x = kb.load("x")
    acc = kb.fmadd_vf(1.0, x, consts[0])
    for c in consts[1:]:
        acc = kb.fmadd(acc, c, x)
    kb.store(acc, "out")
    return kb.build()


@pytest.fixture
def baseline():
    return native_config(1)


@pytest.fixture
def ava_x8():
    return ava_config(8)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def registries():
    """Snapshot the workload, machine, timing, memory and lint-rule
    registries, and restore them when the test ends: a name a test
    registers is gone again afterwards.  Yields the restore function, so a
    test can also restore early and check the lookup fails."""
    import repro.analysis  # noqa: F401  (registers the builtin rules)
    import repro.workloads  # noqa: F401  (registers the builtin suite)
    from repro.analysis import registry as rules
    from repro.core import config
    from repro.memory import presets
    from repro.vpu import params
    from repro.workloads import registry as workloads

    tables = (workloads._REGISTRY, config._MACHINE_REGISTRY._factories,
              params._TIMING_REGISTRY._factories,
              presets._MEMORY_REGISTRY._factories, rules._RULES)
    saved = [dict(table) for table in tables]

    def restore():
        for table, snapshot in zip(tables, saved):
            table.clear()
            table.update(snapshot)

    yield restore
    restore()
