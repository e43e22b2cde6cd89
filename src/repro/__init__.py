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
"""

from repro.core.config import (
    MachineConfig,
    MachineMode,
    ava_config,
    baseline_config,
    get_machine,
    machine_names,
    native_config,
    pvrf_registers,
    register_machine,
    rg_config,
    table1_rows,
)
from repro.compiler import AllocationResult, StripSchedule, allocate, unroll_kernel
from repro.isa import Instruction, KernelBuilder, Program
from repro.sim import CellPolicy, Scenario, SimResult, Simulator, SimStats, build_scenario
from repro.vpu import TimingParams
from repro._version import __version__

__all__ = [
    "MachineConfig",
    "MachineMode",
    "ava_config",
    "baseline_config",
    "native_config",
    "rg_config",
    "get_machine",
    "machine_names",
    "register_machine",
    "pvrf_registers",
    "table1_rows",
    "CellPolicy",
    "Scenario",
    "build_scenario",
    "AllocationResult",
    "StripSchedule",
    "allocate",
    "unroll_kernel",
    "Instruction",
    "KernelBuilder",
    "Program",
    "SimResult",
    "Simulator",
    "SimStats",
    "TimingParams",
    "__version__",
]
