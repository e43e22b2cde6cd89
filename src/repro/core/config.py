"""Machine configurations: Tables I, II and III of the paper.

Three machine families share one pipeline model:

* **NATIVE Xn** — a VPU designed for MVL = 16·n elements: 64 physical
  registers at the native width (VRF grows from 8 KB at X1 to 64 KB at X8),
  single-level renaming, no M-VRF.
* **AVA Xn** — the paper's proposal: always an 8 KB P-VRF; reconfiguring the
  MVL to 16·n shrinks the number of physical registers per Table I
  (64 → 8), with the remaining VVRs living in the M-VRF and moved by the
  hardware Swap Mechanism.  All 32 architectural and 64 virtual registers
  are preserved at every MVL.
* **RG-LMULn** — the RISC-V Register Grouping alternative: grouping divides
  both the architectural registers (32/LMUL) and the physical registers
  (64/LMUL); spill code comes from the compiler.

The element is a 64-bit word throughout, so MVL=16 means a 1024-bit register.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, List

from repro.isa.registers import ELEMENT_BYTES, NUM_LOGICAL_VREGS
from repro.registry import PresetRegistry

#: Baseline MVL (elements) of the short-vector design.
BASE_MVL = 16
#: Total VVRs / renamed registers of the baseline design.
BASE_RENAMED_REGS = 64
#: P-VRF capacity in 64-bit elements: 8 KB = 1024 elements (Table I's basis).
PVRF_ELEMENTS = (8 * 1024) // ELEMENT_BYTES
#: Table III's NATIVE/AVA scaling factors.
SCALE_FACTORS = (1, 2, 3, 4, 8)
#: Legal LMUL values of the RISC-V vector extension.
LMUL_VALUES = (1, 2, 4, 8)


class MachineMode(enum.Enum):
    NATIVE = "native"
    AVA = "ava"
    RG = "rg"


def pvrf_registers(mvl: int) -> int:
    """Table I: physical registers that fit the 8 KB P-VRF at a given MVL.

    >>> [pvrf_registers(m) for m in (16, 32, 48, 64, 80, 96, 112, 128)]
    [64, 32, 21, 16, 12, 10, 9, 8]
    """
    if mvl <= 0:
        raise ValueError("mvl must be positive")
    regs = PVRF_ELEMENTS // mvl
    if regs < 1:
        raise ValueError(f"MVL {mvl} does not fit the 8 KB P-VRF")
    return min(regs, BASE_RENAMED_REGS)


@dataclass(frozen=True)
class MachineConfig:
    """One row of the Tables II/III configuration matrix."""

    name: str
    mode: MachineMode
    mvl: int
    n_logical: int
    n_vvr: int
    n_physical: int
    #: Vector lanes; each contributes one 64-bit element per beat (Table II).
    lanes: int = 8

    def __post_init__(self) -> None:
        for count in ("mvl", "n_logical", "n_vvr", "n_physical", "lanes"):
            if getattr(self, count) < 1:
                raise ValueError(f"{count} must be at least 1")
        if self.n_physical > self.n_vvr:
            raise ValueError("physical registers cannot exceed VVRs")
        if self.n_logical > self.n_vvr:
            raise ValueError("need at least as many VVRs as logical registers")
        if self.mvl % self.lanes:
            raise ValueError("MVL must be a multiple of the lane count")

    @property
    def two_level(self) -> bool:
        """True when an M-VRF backs the P-VRF (fewer P-regs than VVRs)."""
        return self.n_physical < self.n_vvr

    @property
    def vrf_bytes(self) -> int:
        """Bytes the physical registers hold at this MVL."""
        return self.n_physical * self.mvl * ELEMENT_BYTES

    @property
    def pvrf_bytes(self) -> int:
        """Physical VRF SRAM the machine builds.

        NATIVE builds the register file its registers need (8–64 KB); AVA
        and RG reconfigure the baseline 8 KB P-VRF whatever their MVL.
        """
        if self.mode is MachineMode.NATIVE:
            return self.vrf_bytes
        return PVRF_ELEMENTS * ELEMENT_BYTES

    @property
    def mvrf_bytes(self) -> int:
        """Memory reserved for the M-VRF (zero for single-level machines)."""
        if not self.two_level:
            return 0
        return (self.n_vvr - self.n_physical) * self.mvl * ELEMENT_BYTES

    @property
    def vector_bits(self) -> int:
        return self.mvl * ELEMENT_BYTES * 8

    def describe(self) -> str:
        return (f"{self.name}: MVL={self.mvl} ({self.vector_bits}-bit), "
                f"{self.n_logical} logical / {self.n_vvr} virtual / "
                f"{self.n_physical} physical regs, "
                f"VRF {self.vrf_bytes // 1024} KB"
                + (f", M-VRF {self.mvrf_bytes // 1024} KB" if self.two_level
                   else ""))


def native_config(scale: int) -> MachineConfig:
    """NATIVE Xn (Table II): native hardware for MVL = 16·scale."""
    if scale not in SCALE_FACTORS:
        raise ValueError(f"scale must be one of {SCALE_FACTORS}")
    mvl = BASE_MVL * scale
    return MachineConfig(
        name=f"NATIVE X{scale}",
        mode=MachineMode.NATIVE,
        mvl=mvl,
        n_logical=NUM_LOGICAL_VREGS,
        n_vvr=BASE_RENAMED_REGS,
        n_physical=BASE_RENAMED_REGS,
    )


def ava_config(scale: int) -> MachineConfig:
    """AVA Xn (Table III): the 8 KB P-VRF reconfigured for MVL = 16·scale."""
    if scale not in SCALE_FACTORS:
        raise ValueError(f"scale must be one of {SCALE_FACTORS}")
    mvl = BASE_MVL * scale
    return MachineConfig(
        name=f"AVA X{scale}",
        mode=MachineMode.AVA,
        mvl=mvl,
        n_logical=NUM_LOGICAL_VREGS,
        n_vvr=BASE_RENAMED_REGS,
        n_physical=pvrf_registers(mvl),
    )


def rg_config(lmul: int) -> MachineConfig:
    """RG-LMULn (Table III): Register Grouping over the baseline hardware."""
    if lmul not in LMUL_VALUES:
        raise ValueError(f"lmul must be one of {LMUL_VALUES}")
    return MachineConfig(
        name=f"RG-LMUL{lmul}",
        mode=MachineMode.RG,
        mvl=BASE_MVL * lmul,
        n_logical=NUM_LOGICAL_VREGS // lmul,
        n_vvr=BASE_RENAMED_REGS // lmul,
        n_physical=BASE_RENAMED_REGS // lmul,
    )


def baseline_config() -> MachineConfig:
    """The paper's baseline: NATIVE X1 == AVA X1 == RG-LMUL1 hardware."""
    return native_config(1)


def with_physical_registers(config: MachineConfig,
                            n_physical: int) -> MachineConfig:
    """Ablation hook: override the P-reg count of an AVA configuration."""
    return replace(config, n_physical=n_physical,
                   name=f"{config.name} ({n_physical}-preg)")


def table1_rows() -> list[tuple[int, int]]:
    """Table I as (P-regs, MVL) pairs, in the paper's column order."""
    return [(pvrf_registers(mvl), mvl)
            for mvl in (16, 32, 48, 64, 80, 96, 112, 128)]


# ---------------------------------------------------------------------------
# machine registry: named presets for the scenario layer's machine axis
# ---------------------------------------------------------------------------
# Factories (not instances) keep the registry cheap to import and
# guarantee every lookup returns a fresh frozen MachineConfig, mirroring
# how the workload registry instantiates per lookup.
_MACHINE_REGISTRY: PresetRegistry[MachineConfig] = \
    PresetRegistry("machine preset")


def register_machine(name: str,
                     factory: Callable[[], MachineConfig]) -> None:
    """Add a named machine preset (the ``register_workload`` pattern).

    Re-registering the same factory under its name is a no-op; claiming a
    name another factory already holds raises ``ValueError`` so plugins
    cannot silently shadow the paper's configuration matrix.
    """
    _MACHINE_REGISTRY.register(name, factory)


def get_machine(name: str) -> MachineConfig:
    """Instantiate a machine preset by its registered name."""
    return _MACHINE_REGISTRY.get(name)


def machine_names() -> List[str]:
    """Every registered machine-preset name, sorted."""
    return _MACHINE_REGISTRY.names()


def _register_builtin_machines() -> None:
    """The Tables II/III matrix under canonical kebab-case names."""
    for scale in SCALE_FACTORS:
        register_machine(f"native-x{scale}",
                         lambda s=scale: native_config(s))
        register_machine(f"ava-x{scale}", lambda s=scale: ava_config(s))
    for lmul in LMUL_VALUES:
        register_machine(f"rg-lmul{lmul}", lambda l=lmul: rg_config(l))
    register_machine("baseline", baseline_config)


_register_builtin_machines()
