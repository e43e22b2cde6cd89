"""Shared math kernels: polynomial ln / exp / CND usable on two backends.

The RiVEC kernels are hand-vectorised RISC-V code, so transcendental
functions are open-coded as polynomial / rational approximations over basic
vector ops.  To keep the functional tests exact, every approximation here is
written once against a generic operand type and evaluated on **both**
backends:

* :class:`BuilderMath` — operands are :class:`repro.isa.builder.VirtualReg`;
  every operation emits a vector instruction;
* :class:`NumpyMath` — operands are numpy arrays; the reference oracle runs
  the *same approximation*, so kernel-vs-oracle comparison is exact to
  floating-point associativity (``allclose`` with tight tolerances).
"""

from __future__ import annotations

from repro.isa.builder import KernelBuilder


class BuilderMath:
    """Vector-instruction backend for the shared formulas."""

    def __init__(self, kb: KernelBuilder) -> None:
        self.kb = kb

    def sqrt(self, a):
        return self.kb.sqrt(a)

    def recip(self, a):
        return self.kb.recip(a)

    def const(self, value: float):
        """Hoist a broadcast constant (occupies a register for the loop)."""
        return self.kb.const(value)

    def vmax(self, a, scalar: float):
        return self.kb.vmax(a, scalar)


class NumpyMath:
    """Numpy backend; mirrors the vector semantics exactly."""

    def sqrt(self, a):
        import numpy as np
        return np.sqrt(np.abs(a))

    def recip(self, a):
        import numpy as np
        out = np.zeros_like(a)
        nz = a != 0
        out[nz] = 1.0 / a[nz]
        return out

    def const(self, value: float):
        return value

    def vmax(self, a, scalar: float):
        import numpy as np
        return np.maximum(a, scalar)


def poly_ln(m, q, c7=1.0 / 7.0, c5=1.0 / 5.0, c3=1.0 / 3.0):
    """ln(q) via the artanh series, accurate for q in roughly [0.5, 2].

    ln(q) = 2 artanh(z) with z = (q-1)/(q+1); four series terms.  The series
    coefficients may be passed as hoisted registers.
    """
    z = (q - 1.0) * m.recip(q + 1.0)
    z2 = z * z
    # 2*(z + z^3/3 + z^5/5 + z^7/7), Horner in z^2.
    acc = z2 * c7 + c5
    acc = acc * z2 + c3
    acc = acc * z2 + 1.0
    return 2.0 * z * acc


def poly_exp_small(m, x, c24=1.0 / 24.0, c6=1.0 / 6.0):
    """exp(x) for small |x| (≤ ~0.5): four-term Taylor polynomial."""
    acc = x * c24 + c6
    acc = acc * x + 0.5
    acc = acc * x + 1.0
    return acc * x + 1.0


def poly_exp(m, x, c24=1.0 / 24.0, c6=1.0 / 6.0):
    """exp(x) for |x| up to ~6: scale by 1/8, polynomial, cube-square back."""
    u = x * 0.125
    e = poly_exp_small(m, u, c24, c6)
    e = e * e
    e = e * e
    return e * e


def rational_tanh(m, y, c27=27.0, c9=9.0):
    """tanh(y) ≈ y(27 + y²) / (27 + 9y²), the classic Padé(3,2) form."""
    y2 = y * y
    num = y * (y2 + c27)
    den = y2 * c9 + c27
    return num * m.recip(den)


def cnd(m, d, c_a, c_b, c27=27.0, c9=9.0):
    """Cumulative normal distribution via a tanh sigmoid approximation.

    CND(d) ≈ 0.5 (1 + tanh(a·d(1 + b·d²))) with a=0.7988, b=0.044715 —
    the Page approximation the hand-vectorised kernels favour.  The
    coefficients may be hoisted loop-invariant registers.
    """
    d2 = d * d
    y = (d2 * c_b + 1.0) * d * c_a
    t = rational_tanh(m, y, c27, c9)
    return (t + 1.0) * 0.5


#: The CND coefficients (hoisted by callers).
CND_A = 0.7988
CND_B = 0.044715
