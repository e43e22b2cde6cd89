"""Swaptions: HJM-framework swaption pricing (Financial Analysis).

The paper's widest-footprint application: 24 logical vector registers, so
Register Grouping spills from LMUL=2 and AVA starts swapping at X3 (21
physical registers).  Memory operations are only ~12% of the baseline mix.

Each strip prices one batch of paths: the forward rate is evolved through
four inline HJM timesteps (drift + vol·shock per step, with per-step hoisted
coefficients), then the payoff is discounted and max'd against zero.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.isa.builder import KernelBody, KernelBuilder
from repro.workloads.base import Workload
from repro.workloads.registry import register_workload
from repro.workloads.mathlib import BuilderMath, NumpyMath, poly_exp_small

if TYPE_CHECKING:
    import numpy as np

#: Per-timestep drift and volatility-scale coefficients (hoisted).
DRIFTS = (0.0012, 0.0010, 0.0009)
VOL_SCALES = (0.11, 0.10, 0.09)
#: Sqrt of the timestep, strike rate, discount exponent scale.
SQRT_DT = 0.5
STRIKE = 0.045
DISCOUNT_SCALE = -0.25
#: Shock decorrelation factor between timesteps.
DECORR = 0.7071


def _simulate(m, f0, vol, shock, dfactor, c):
    """Evolve the forward rate and return (payoff, discounted price).

    ``c`` maps coefficient names to hoisted registers (kernel) or floats
    (oracle).
    """
    f = f0
    for k in range(len(DRIFTS)):
        sigma = vol * c[f"vol{k}"]
        dw = shock * c["sqrt_dt"]
        # df = drift·dt + sigma·dW − ½σ²·dt (convexity correction).
        df = c[f"drift{k}"] + sigma * dw - sigma * sigma * 0.5 * (SQRT_DT ** 2)
        f = f + df
        shock = shock * c["decorr"]
    disc = poly_exp_small(m, f * c["dscale"])  # e^{-f·scale}
    payoff = m.vmax(f - c["strike"], 0.0)
    return payoff, payoff * disc * dfactor


#: Invariant coefficient table (hoisted in the kernel).
def invariant_table() -> dict:
    table = {"sqrt_dt": SQRT_DT, "strike": STRIKE, "dscale": DISCOUNT_SCALE,
             "decorr": DECORR}
    for k in range(len(DRIFTS)):
        table[f"drift{k}"] = DRIFTS[k]
        table[f"vol{k}"] = VOL_SCALES[k]
    return table


@register_workload
class Swaptions(Workload):
    name = "swaptions"
    domain = "Financial Analysis"
    model = "MapReduce"
    n_elements = 2048
    loop_alu_insts = 6

    def build_kernel(self) -> KernelBody:
        kb = KernelBuilder()
        m = BuilderMath(kb)
        c = {name: kb.const(value)
             for name, value in invariant_table().items()}
        f0 = kb.load("fwd")
        vol = kb.load("vol")
        shock = kb.load("shock")
        dfactor = kb.load("dfactor")
        payoff, price = _simulate(m, f0, vol, shock, dfactor, c)
        kb.store(payoff, "payoff")
        kb.store(price, "price")
        return kb.build()

    def init_data(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        import numpy as np
        n = self.n_elements
        return {
            "fwd": rng.uniform(0.02, 0.08, n),
            "vol": rng.uniform(0.5, 1.5, n),
            "shock": rng.standard_normal(n),
            "dfactor": rng.uniform(0.95, 1.0, n),
            "payoff": np.zeros(n),
            "price": np.zeros(n),
        }

    def reference(self, data: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        m = NumpyMath()
        payoff, price = _simulate(m, data["fwd"], data["vol"], data["shock"],
                                  data["dfactor"], invariant_table())
        return {"payoff": payoff, "price": price}
