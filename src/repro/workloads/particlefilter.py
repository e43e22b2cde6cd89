"""ParticleFilter: sequential Monte Carlo tracking (Medical Imaging).

Structured-grids model with a moderate register footprint (the paper reports
13 logical registers; spill/swap traffic appears only at LMUL≥4 / AVA X4 and
is negligible — 0.15% of memory operations for the largest configuration).

Each strip advances one generation of particles: an embedded integer LCG
(exercising the bitwise vector ops) produces the motion noise, a polynomial
Gaussian evaluates the measurement likelihood, weights are updated, and a
gather (indexed load) models the resampling table lookup.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.isa.builder import KernelBody, KernelBuilder
from repro.workloads.base import Workload
from repro.workloads.registry import register_workload
from repro.workloads.mathlib import BuilderMath, NumpyMath, poly_exp

if TYPE_CHECKING:
    import numpy as np

#: ZX81-style LCG constants: products stay exact in float64.
LCG_A = 75
LCG_C = 74
LCG_MASK = 0xFFFF
#: Observation the likelihood is evaluated against.
OBSERVED = 0.0
#: Gaussian likelihood width.
INV_2SIGMA2 = 0.125


@register_workload
class ParticleFilter(Workload):
    name = "particlefilter"
    domain = "Medical Imaging"
    model = "Structured Grids"
    n_elements = 4096
    loop_alu_insts = 6

    def build_kernel(self) -> KernelBody:
        kb = KernelBuilder()
        m = BuilderMath(kb)
        c_s = kb.const(INV_2SIGMA2)
        c_e24 = kb.const(1.0 / 24.0)
        c_e6 = kb.const(1.0 / 6.0)
        c_u = kb.const(1.0 / (LCG_MASK + 1))
        x = kb.load("posx")
        w = kb.load("weight")
        seed = kb.load("seed")
        # LCG step -> uniform noise in [0, 1).
        s1 = kb.band(kb.add(kb.mul(seed, float(LCG_A)), float(LCG_C)),
                     LCG_MASK)
        u = s1 * c_u
        # Motion model: x' = x + 1 + 2(u - 0.5).
        x1 = x + (u * 2.0 - 1.0 + 1.0)
        # Likelihood: N(x' - observed; sigma).
        err = x1 - OBSERVED
        like = poly_exp(m, 0.0 - err * err * c_s, c_e24, c_e6)
        w1 = w * like
        # Resampling table lookup: gather the ancestor position.
        idx = kb.band(s1, self.n_elements - 1)
        ancestor = kb.gather("posx", idx)
        x2 = (x1 + ancestor) * 0.5
        kb.store(x2, "outx")
        kb.store(w1, "outw")
        kb.store(s1, "seed")
        return kb.build()

    def init_data(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        import numpy as np
        n = self.n_elements
        return {
            "posx": rng.uniform(-1.0, 1.0, n),
            "weight": np.full(n, 1.0 / n),
            "seed": rng.integers(0, LCG_MASK, n).astype(np.float64),
            "outx": np.zeros(n),
            "outw": np.zeros(n),
        }

    def reference(self, data: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        import numpy as np
        m = NumpyMath()
        x = data["posx"]
        w = data["weight"]
        seed = data["seed"].astype(np.int64)
        s1 = (seed * LCG_A + LCG_C) & LCG_MASK
        u = s1.astype(np.float64) * (1.0 / (LCG_MASK + 1))
        x1 = x + (u * 2.0 - 1.0 + 1.0)
        err = x1 - OBSERVED
        like = poly_exp(m, 0.0 - err * err * INV_2SIGMA2)
        w1 = w * like
        idx = (s1 & (self.n_elements - 1)).astype(np.int64)
        ancestor = x[idx]
        x2 = (x1 + ancestor) * 0.5
        return {"outx": x2, "outw": w1,
                "seed": s1.astype(np.float64)}
