"""LavaMD2: N-body particle interactions within boxes (Molecular Dynamics).

The paper's medium-vector application: the box size fixes the Application
Vector Length at **48 elements**, so configurations with MVL > 48 leave part
of every register unused, MVL-wide spill/swap code becomes disproportionally
expensive (the RG-LMUL8 collapse, Fig. 3-c), and the best configuration is
AVA X3 — MVL=48 with 21 physical registers — which the paper highlights as
AVA selecting the optimal point.

Each strip computes the interaction of one home particle (a test charge at
the home-box centre) with the 48 particles of one neighbour box, using the
LavaMD potential ``v = exp(-a2·r²)`` and accumulating force components.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.isa.builder import KernelBody, KernelBuilder
from repro.workloads.base import Workload
from repro.workloads.registry import register_workload
from repro.workloads.mathlib import BuilderMath, NumpyMath, poly_exp

if TYPE_CHECKING:
    import numpy as np

#: Particles per box: the fixed Application Vector Length (§V).
BOX_SIZE = 48
#: Number of (home particle, neighbour box) interactions simulated.
N_INTERACTIONS = 48
#: Potential stiffness (the paper's alpha² analogue).
A2 = 0.5
#: Home test-particle position and charge.
HOME = (0.5, 0.5, 0.5)
HOME_CHARGE = 1.2


def _interaction(m, xj, yj, zj, qj, c_a2, c_hx, c_hy, c_hz, c_qh):
    """Force of the neighbour particles on the home test charge.

    The LavaMD potential: an attractive Gaussian shell plus a short-range
    repulsive shell at twice the stiffness, evaluated with open-coded
    exponentials like the hand-vectorised kernel.
    """
    dx = c_hx - xj
    dy = c_hy - yj
    dz = c_hz - zj
    r2 = dx * dx + dy * dy + dz * dz
    u2 = r2 * c_a2
    vij = poly_exp(m, 0.0 - u2)
    # Repulsive shell: exp(-2 a2 r²), sharing the distance computation.
    wij = poly_exp(m, u2 * -2.0)
    shell = vij - wij * 0.5
    fs = shell * 2.0 * c_qh * qj
    fx = fs * dx
    fy = fs * dy
    fz = fs * dz
    # Potential energy contribution alongside the force components.
    e = shell * qj
    fxy = fx * fx + fy * fy
    fmag2 = fxy + fz * fz
    ftot = fmag2 * 0.5 + (fx + fy + fz)
    return ftot + e * 0.1


@register_workload
class LavaMD(Workload):
    name = "lavamd"
    domain = "Molecular Dynamics"
    model = "N-Body"
    n_elements = BOX_SIZE * N_INTERACTIONS
    fixed_avl = BOX_SIZE
    loop_alu_insts = 6  # box pointers, neighbour index, trip count

    def build_kernel(self) -> KernelBody:
        kb = KernelBuilder()
        m = BuilderMath(kb)
        c_a2 = kb.const(A2)
        c_hx = kb.const(HOME[0])
        c_hy = kb.const(HOME[1])
        c_hz = kb.const(HOME[2])
        c_qh = kb.const(HOME_CHARGE)
        xj = kb.load("px")
        yj = kb.load("py")
        zj = kb.load("pz")
        qj = kb.load("charge")
        f = _interaction(m, xj, yj, zj, qj, c_a2, c_hx, c_hy, c_hz, c_qh)
        kb.store(f, "force")
        return kb.build()

    def init_data(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        import numpy as np
        n = self.n_elements
        return {
            "px": rng.uniform(0.0, 1.0, n),
            "py": rng.uniform(0.0, 1.0, n),
            "pz": rng.uniform(0.0, 1.0, n),
            "charge": rng.uniform(0.5, 1.5, n),
            "force": np.zeros(n),
        }

    def reference(self, data: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        m = NumpyMath()
        f = _interaction(m, data["px"], data["py"], data["pz"],
                         data["charge"], A2, HOME[0], HOME[1], HOME[2],
                         HOME_CHARGE)
        return {"force": f}
