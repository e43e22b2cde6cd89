"""Somier: spring-mass physics simulation (Physics Simulation / DLA).

The paper's memory-bound application (~46% of vector instructions are
memory operations; the L2's leakage dominates its energy, Fig. 3-e4).  The
register footprint is small, so spill/swap traffic only appears at the
extreme configurations (RG-LMUL8 / AVA X8).

Each strip advances one Jacobi step of a 1-D spring-mass chain: the force on
node i comes from its two neighbours (unit-stride loads at element offsets
±1), damped by the velocity; new velocity and position are written to
separate output arrays to keep strips independent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.isa.builder import KernelBody, KernelBuilder
from repro.workloads.base import Workload
from repro.workloads.registry import register_workload

if TYPE_CHECKING:
    import numpy as np

#: Spring stiffness, damping, node mass reciprocal, timestep.
STIFFNESS = 4.0
DAMPING = 0.2
INV_MASS = 0.8
DT = 0.01


@register_workload
class Somier(Workload):
    name = "somier"
    domain = "Physics Simulation"
    model = "Dense Linear Algebra"
    n_elements = 4096
    loop_alu_insts = 8  # four streamed arrays, three stores, trip count

    def build_kernel(self) -> KernelBody:
        kb = KernelBuilder()
        left = kb.load("pos", offset=-1)
        centre = kb.load("pos")
        right = kb.load("pos", offset=1)
        vel = kb.load("vel")
        # Hooke's law over both neighbours, then damping.
        stretch = left + right - (centre * 2.0)
        force = stretch * STIFFNESS - vel * DAMPING
        acc = force * INV_MASS
        new_vel = kb.fmadd_vf(DT, acc, vel)
        new_pos = kb.fmadd_vf(DT, new_vel, centre)
        kb.store(force, "force")
        kb.store(new_vel, "outv")
        kb.store(new_pos, "outp")
        return kb.build()

    def init_data(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        import numpy as np
        n = self.n_elements
        return {
            "pos": rng.uniform(-0.1, 0.1, n) + np.arange(n) * 0.0,
            "vel": rng.uniform(-0.05, 0.05, n),
            "force": np.zeros(n),
            "outv": np.zeros(n),
            "outp": np.zeros(n),
        }

    def reference(self, data: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        import numpy as np
        pos = data["pos"]
        vel = data["vel"]
        # The vector loads clamp at the array ends (the kernel's boundary
        # handling), so mirror that here.
        idx = np.arange(len(pos))
        left = pos[np.clip(idx - 1, 0, len(pos) - 1)]
        right = pos[np.clip(idx + 1, 0, len(pos) - 1)]
        stretch = left + right - 2.0 * pos
        force = stretch * STIFFNESS - vel * DAMPING
        acc = force * INV_MASS
        new_vel = DT * acc + vel
        new_pos = DT * new_vel + pos
        return {"force": force, "outv": new_vel, "outp": new_pos}
