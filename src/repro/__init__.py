"""repro — a behavioural reproduction of AVA, the Adaptable Vector
Architecture from "Adaptable Register File Organization for Vector
Processors" (HPCA 2022).

Public API quick reference::

    from repro import (
        KernelBuilder, StripSchedule, unroll_kernel, allocate,   # build code
        ava_config, native_config, rg_config,                     # machines
        Simulator,                                                # run
    )

See the README's "Architecture" section for the package layers, and
``python -m repro claims`` for the paper-versus-measured record of every
table and figure.

Every public name resolves on first access (PEP 562), so ``import repro``
loads neither numpy nor the simulator until a caller asks for them.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Public name -> the module that defines it.
_EXPORTS = {
    "MachineConfig": "repro.core.config",
    "MachineMode": "repro.core.config",
    "ava_config": "repro.core.config",
    "baseline_config": "repro.core.config",
    "native_config": "repro.core.config",
    "rg_config": "repro.core.config",
    "get_machine": "repro.core.config",
    "machine_names": "repro.core.config",
    "register_machine": "repro.core.config",
    "pvrf_registers": "repro.core.config",
    "table1_rows": "repro.core.config",
    "CellPolicy": "repro.sim.scenario",
    "Scenario": "repro.sim.scenario",
    "build_scenario": "repro.sim.scenario",
    "AllocationResult": "repro.compiler.allocator",
    "StripSchedule": "repro.compiler.trace",
    "allocate": "repro.compiler.allocator",
    "unroll_kernel": "repro.compiler.trace",
    "Instruction": "repro.isa.instructions",
    "KernelBuilder": "repro.isa.builder",
    "Program": "repro.isa.program",
    "SimResult": "repro.sim.simulator",
    "Simulator": "repro.sim.simulator",
    "SimStats": "repro.sim.stats",
    "TimingParams": "repro.vpu.params",
    "__version__": "repro._version",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
