"""Blackscholes: European option pricing (Financial Analysis / DLA).

The paper's high-pressure application: the hand-vectorised kernel uses 23
logical vector registers, so Register Grouping spills from LMUL=2 onward
while AVA X2 (32 physical registers) stays swap-free — the paper's key
scheduling argument ("AVA performs the scheduling based on the available
physical registers, which are always double compared to LMUL", §V).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.isa.builder import KernelBody, KernelBuilder
from repro.workloads.base import Workload
from repro.workloads.registry import register_workload
from repro.workloads.mathlib import (
    CND_A,
    CND_B,
    BuilderMath,
    NumpyMath,
    cnd,
    poly_exp,
    poly_ln,
)

if TYPE_CHECKING:
    import numpy as np

#: Risk-free rate (constant in the RiVEC kernel too).
RISK_FREE = 0.02


def _price(m, S, K, T, v, c):
    """Shared pricing formula; returns (call, put).

    ``c`` is the invariant-coefficient table (hoisted registers in the
    kernel, plain floats in the oracle).  Every operand combination uses
    only DSL-expressible operations so the same code runs on vector
    instructions and on the numpy oracle.
    """
    ln_sk = poly_ln(m, S * m.recip(K), c["ln7"], c["ln5"], c["ln3"])
    sqrt_t = m.sqrt(T)
    v_sqrt_t = v * sqrt_t
    v2_half = v * v * c["half"]
    drift = (v2_half + RISK_FREE) * T
    d1 = (ln_sk + drift) * m.recip(v_sqrt_t)
    d2 = d1 - v_sqrt_t
    n1 = cnd(m, d1, c["cnd_a"], c["cnd_b"], c["t27"], c["t9"])
    n2 = cnd(m, d2, c["cnd_a"], c["cnd_b"], c["t27"], c["t9"])
    disc = poly_exp(m, T * c["neg_r"], c["e24"], c["e6"])  # e^{-rT}
    k_disc = K * disc
    call = S * n1 - k_disc * n2
    put = k_disc * (1.0 - n2) - S * (1.0 - n1)
    return call, put


#: Invariant coefficients the hand-vectorised kernel hoists out of the loop.
INVARIANTS = {
    "cnd_a": CND_A,
    "cnd_b": CND_B,
    "neg_r": -RISK_FREE,
    "half": 0.5,
    "ln7": 1.0 / 7.0,
    "ln5": 1.0 / 5.0,
    "ln3": 1.0 / 3.0,
    "t27": 27.0,
    "t9": 9.0,
    "e24": 1.0 / 24.0,
    "e6": 1.0 / 6.0,
}


@register_workload
class Blackscholes(Workload):
    name = "blackscholes"
    domain = "Financial Analysis"
    model = "Dense Linear Algebra"
    n_elements = 2048
    loop_alu_insts = 6  # five streamed buffers plus trip count

    def build_kernel(self) -> KernelBody:
        kb = KernelBuilder()
        m = BuilderMath(kb)
        # Hoisted loop invariants, as the hand-vectorised kernel does: the
        # eleven coefficients plus four streamed inputs are what drive this
        # application's 20+ register footprint.
        c = {name: kb.const(value) for name, value in INVARIANTS.items()}
        S = kb.load("spot")
        K = kb.load("strike")
        T = kb.load("expiry")
        v = kb.load("vol")
        call, put = _price(m, S, K, T, v, c)
        kb.store(call, "call")
        kb.store(put, "put")
        return kb.build()

    def init_data(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        import numpy as np
        n = self.n_elements
        return {
            "spot": rng.uniform(80.0, 120.0, n),
            "strike": rng.uniform(75.0, 125.0, n),
            "expiry": rng.uniform(0.25, 2.0, n),
            "vol": rng.uniform(0.10, 0.40, n),
            "call": np.zeros(n),
            "put": np.zeros(n),
        }

    def reference(self, data: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        m = NumpyMath()
        call, put = _price(m, data["spot"], data["strike"], data["expiry"],
                           data["vol"], dict(INVARIANTS))
        return {"call": call, "put": put}
