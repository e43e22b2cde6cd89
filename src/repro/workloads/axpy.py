"""Axpy: y = a*x + y (HPC / BLAS).

The paper's ideal case: two logical vector registers, no spills or swaps in
any configuration, 75% vector memory instructions, and the headline 2X
speedup when reconfiguring AVA X1 to AVA X8 (Fig. 3-a).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.isa.builder import KernelBody, KernelBuilder
from repro.workloads.base import Workload
from repro.workloads.registry import register_workload

if TYPE_CHECKING:
    import numpy as np

#: The BLAS alpha used throughout (arbitrary, nonzero).
ALPHA = 2.5


@register_workload
class Axpy(Workload):
    name = "axpy"
    domain = "HPC"
    model = "BLAS"
    n_elements = 4096
    loop_alu_insts = 4  # two address bumps, trip count, vsetvl input

    def build_kernel(self) -> KernelBody:
        kb = KernelBuilder()
        x = kb.load("x")
        y = kb.load("y")
        kb.store(kb.fmadd_vf(ALPHA, x, y), "y")
        return kb.build()

    def init_data(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        return {
            "x": rng.standard_normal(self.n_elements),
            "y": rng.standard_normal(self.n_elements),
        }

    def reference(self, data: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        return {"y": ALPHA * data["x"] + data["y"]}
