"""McPAT-lite: per-configuration area and per-run energy reports.

Reproduces the two McPAT products the paper uses:

* **Figure 4** — component areas per configuration plus performance/mm²
  (average speedup divided by *VPU* area, matching the paper's right axis);
* **Figure 3, column 4** — per-application energy split into the main
  contributors the paper reports: L2 dynamic/leakage, VRF dynamic/leakage
  (AVA's bookkeeping energy is folded into the VRF bars, as the paper
  describes), and FPU dynamic/leakage.

The SRAM and technology models load when a :class:`McPatModel` is built
or used, so reading a cached :class:`EnergyReport` never imports them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Optional

from repro.core.config import MachineMode
from repro.sim.stats import VPU_HZ

if TYPE_CHECKING:
    from repro.core.config import MachineConfig
    from repro.power.technology import Technology
    from repro.sim.stats import SimStats


@dataclass(frozen=True)
class AreaReport:
    """Component areas (mm²) of one machine configuration."""

    config_name: str
    vrf: float
    fpus: float
    ava_structs: float
    core: float
    l1i: float
    l1d: float
    l2: float

    @property
    def vpu(self) -> float:
        """The vector processing unit (what the paper's 53% claim covers)."""
        return self.vrf + self.fpus + self.ava_structs

    @property
    def total(self) -> float:
        return self.vpu + self.core + self.l1i + self.l1d + self.l2

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("VPU VRF", self.vrf),
            ("VPU FPUs", self.fpus),
            ("AVA structures", self.ava_structs),
            ("Core pipeline", self.core),
            ("L1-I", self.l1i),
            ("L1-D", self.l1d),
            ("L2 cache", self.l2),
        ]


@dataclass(frozen=True)
class EnergyReport:
    """Energy (nJ) of one simulation run, split like Fig. 3 column 4."""

    config_name: str
    program_name: str
    l2_dynamic: float
    l2_leakage: float
    vrf_dynamic: float
    vrf_leakage: float
    fpu_dynamic: float
    fpu_leakage: float
    dram_dynamic: float
    seconds: float

    @property
    def total(self) -> float:
        return (self.l2_dynamic + self.l2_leakage + self.vrf_dynamic
                + self.vrf_leakage + self.fpu_dynamic + self.fpu_leakage)

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("L2 dynamic", self.l2_dynamic),
            ("L2 leakage", self.l2_leakage),
            ("VRF dynamic", self.vrf_dynamic),
            ("VRF leakage", self.vrf_leakage),
            ("FPU dynamic", self.fpu_dynamic),
            ("FPU leakage", self.fpu_leakage),
        ]

    # -- serialisation ---------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe mapping (floats round-trip exactly through json)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "EnergyReport":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown EnergyReport fields: {sorted(unknown)}")
        return cls(**data)


class McPatModel:
    """Area/energy model over machine configurations and run statistics."""

    def __init__(self, tech: Optional[Technology] = None) -> None:
        if tech is None:
            from repro.power.technology import TECH_22NM
            tech = TECH_22NM
        self.tech = tech

    # ---- area (Fig. 4) -------------------------------------------------------
    def area(self, config: MachineConfig) -> AreaReport:
        from repro.power.sram import sram_area_mm2

        tech = self.tech
        has_ava = config.mode is MachineMode.AVA
        return AreaReport(
            config_name=config.name,
            vrf=sram_area_mm2(config.pvrf_bytes, ports=tech.vrf_ports,
                              tech=tech),
            fpus=tech.fpu_mm2_per_lane * config.lanes,
            ava_structs=tech.ava_structs_mm2 if has_ava else 0.0,
            core=tech.core_mm2,
            l1i=tech.l1i_mm2,
            l1d=tech.l1d_mm2,
            l2=tech.l2_mm2,
        )

    # ---- energy (Fig. 3 column 4) ----------------------------------------------
    def energy(self, config: MachineConfig, stats: SimStats) -> EnergyReport:
        from repro.power.sram import sram_access_energy_pj, sram_leakage_mw

        tech = self.tech
        seconds = stats.cycles / VPU_HZ
        pvrf_bytes = config.pvrf_bytes

        l2_dyn = (stats.l2_reads + stats.l2_writes) * tech.l2_pj_per_access
        dram_dyn = stats.dram_accesses * tech.dram_pj_per_access
        vrf_access_pj = sram_access_energy_pj(pvrf_bytes, tech=tech)
        vrf_elements = (stats.vrf_reads + stats.vrf_writes
                        + stats.mvrf_reads + stats.mvrf_writes)
        vrf_dyn = vrf_elements * vrf_access_pj
        fpu_dyn = stats.fpu_element_ops * tech.fpu_pj_per_op

        if config.mode is MachineMode.AVA:
            # The paper folds the (0.4%-scale) AVA bookkeeping energy into
            # the VRF dynamic bars; do the same.
            vrf_dyn += (vrf_dyn + fpu_dyn) * tech.ava_dynamic_fraction

        l2_leak = tech.l2_leak_mw * 1e-3 * seconds * 1e9  # mW·s -> nJ
        vrf_leak = (sram_leakage_mw(pvrf_bytes, ports=tech.vrf_ports,
                                    tech=tech)
                    * 1e-3 * seconds * 1e9)
        if config.mode is MachineMode.AVA:
            vrf_leak += tech.ava_structs_leak_mw * 1e-3 * seconds * 1e9
        fpu_leak = (tech.fpu_leak_mw_per_lane * config.lanes
                    * 1e-3 * seconds * 1e9)

        return EnergyReport(
            config_name=config.name,
            program_name=stats.program_name,
            l2_dynamic=l2_dyn * 1e-3,  # pJ -> nJ
            l2_leakage=l2_leak,
            vrf_dynamic=vrf_dyn * 1e-3,
            vrf_leakage=vrf_leak,
            fpu_dynamic=fpu_dyn * 1e-3,
            fpu_leakage=fpu_leak,
            dram_dynamic=dram_dyn * 1e-3,
            seconds=seconds,
        )
