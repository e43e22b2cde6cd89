"""Functional semantics of the arithmetic opcodes (numpy evaluators).

Only the functional execution mode reads data values, so only a
functional pipeline (when it is built) and the golden model import this
module; compiling, keying and simulating a timing-only cell need just
the timing records in :mod:`repro.isa.opcodes`.

Integer/bitwise opcodes operate on the 64-bit integer reinterpretation of the
register contents, which is how the ParticleFilter kernel implements its
linear congruential generator.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.isa.opcodes import Op

Evaluator = Callable[[Sequence[np.ndarray], Optional[float]], np.ndarray]


def _as_int(a: np.ndarray) -> np.ndarray:
    return a.astype(np.int64)


def _as_f64(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float64)


def _safe_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    nz = b != 0
    out[nz] = a[nz] / b[nz]
    out[~nz] = 0.0
    return out


#: The evaluator of every arithmetic opcode that reads vector sources, keyed
#: by the opcode's string value (``Op.__hash__`` runs in Python; a ``str``
#: caches its hash).
_EVALUATORS: dict[str, Evaluator] = {op.value: fn for op, fn in {
    Op.VADD: lambda s, f: s[0] + s[1],
    Op.VSUB: lambda s, f: s[0] - s[1],
    Op.VMUL: lambda s, f: s[0] * s[1],
    Op.VDIV: lambda s, f: _safe_div(s[0], s[1]),
    Op.VSQRT: lambda s, f: np.sqrt(np.abs(s[0])),
    Op.VFMADD: lambda s, f: s[0] * s[1] + s[2],
    Op.VFMADD_VF: lambda s, f: f * s[0] + s[1],
    Op.VADD_VF: lambda s, f: s[0] + f,
    Op.VSUB_VF: lambda s, f: s[0] - f,
    Op.VRSUB_VF: lambda s, f: f - s[0],
    Op.VMUL_VF: lambda s, f: s[0] * f,
    Op.VDIV_VF: lambda s, f: s[0] / f if f else np.zeros_like(s[0]),
    Op.VMAX: lambda s, f: np.maximum(s[0], s[1]),
    Op.VMIN: lambda s, f: np.minimum(s[0], s[1]),
    Op.VMAX_VF: lambda s, f: np.maximum(s[0], f),
    Op.VMIN_VF: lambda s, f: np.minimum(s[0], f),
    Op.VABS: lambda s, f: np.abs(s[0]),
    Op.VNEG: lambda s, f: -s[0],
    Op.VRECIP: lambda s, f: _safe_div(np.ones_like(s[0]), s[0]),
    Op.VRSQRT: lambda s, f: _safe_div(np.ones_like(s[0]),
                                      np.sqrt(np.abs(s[0]))),
    Op.VAND: lambda s, f: _as_f64(_as_int(s[0]) & _as_int(s[1])),
    Op.VOR: lambda s, f: _as_f64(_as_int(s[0]) | _as_int(s[1])),
    Op.VXOR: lambda s, f: _as_f64(_as_int(s[0]) ^ _as_int(s[1])),
    Op.VAND_VI: lambda s, f: _as_f64(_as_int(s[0]) & int(f)),
    Op.VSLL_VI: lambda s, f: _as_f64(_as_int(s[0]) << int(f)),
    Op.VSRL_VI: lambda s, f: _as_f64(_as_int(s[0]) >> int(f)),
    Op.VMFLT: lambda s, f: (s[0] < s[1]).astype(np.float64),
    Op.VMFLE: lambda s, f: (s[0] <= s[1]).astype(np.float64),
    Op.VMFEQ: lambda s, f: (s[0] == s[1]).astype(np.float64),
    Op.VMERGE: lambda s, f: np.where(s[0] != 0.0, s[1], s[2]),
    Op.VREDSUM: lambda s, f: np.full_like(s[0], s[0].sum()),
    Op.VREDMAX: lambda s, f: np.full_like(s[0], s[0].max()),
    Op.VREDMIN: lambda s, f: np.full_like(s[0], s[0].min()),
    Op.VMV: lambda s, f: s[0].copy(),
}.items()}


def evaluate_arith(op: Op, srcs: Sequence[np.ndarray],
                   scalar: Optional[float], vl: int) -> np.ndarray:
    """Functionally evaluate an arithmetic opcode over ``vl`` elements.

    ``srcs`` are float64 arrays of at least ``vl`` elements (register
    contents); each is clipped to ``vl``.  The zero-source generator
    opcodes (``vfmv``, ``vid``) are handled here because their result
    depends only on ``vl`` and the scalar operand.
    """
    evaluator = _EVALUATORS.get(op._value_)
    if evaluator is not None:
        clipped = []  # a plain loop: a comprehension costs a frame on 3.11
        for s in srcs:
            clipped.append(s[:vl])
        return evaluator(clipped, scalar)
    if op is Op.VFMV_VF:
        return np.full(vl, float(scalar), dtype=np.float64)
    if op is Op.VID:
        return np.arange(vl, dtype=np.float64)
    raise ValueError(f"{op} is not an arithmetic opcode")
