"""Vector opcodes and their timing classes.

Each opcode carries an :class:`OpInfo` record describing

* its kind (arithmetic, memory load/store, scalar overhead),
* the number of vector source operands it reads,
* whether it consumes a scalar operand (``.vf`` forms, immediates),
* its pipeline latency in VPU cycles (cycles until the first result element
  is available for chaining), and
* its throughput cost as ``beats_per_element`` — 1.0 for fully pipelined
  units, >1 for iterative units such as divide and square root.

The numpy evaluators behind the functional execution mode live in
:mod:`repro.isa.semantics`, so compiling and keying never import numpy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OpKind(enum.Enum):
    """Coarse instruction class, used for queue steering and statistics."""

    ARITH = "arith"
    MEM_LOAD = "load"
    MEM_STORE = "store"
    SCALAR = "scalar"


class Op(enum.Enum):
    """The vector instruction subset used by the RiVEC-style kernels."""

    # Arithmetic (.vv forms unless noted).
    VADD = "vadd"
    VSUB = "vsub"
    VMUL = "vmul"
    VDIV = "vdiv"
    VSQRT = "vsqrt"
    VFMADD = "vfmadd"  # dst = s0 * s1 + s2
    VFMADD_VF = "vfmadd.vf"  # dst = scalar * s0 + s1  (axpy's vfmacc)
    VADD_VF = "vadd.vf"  # dst = s0 + scalar
    VSUB_VF = "vsub.vf"  # dst = s0 - scalar
    VRSUB_VF = "vrsub.vf"  # dst = scalar - s0
    VMUL_VF = "vmul.vf"  # dst = s0 * scalar
    VDIV_VF = "vdiv.vf"  # dst = s0 / scalar
    VMAX = "vmax"
    VMIN = "vmin"
    VMAX_VF = "vmax.vf"
    VMIN_VF = "vmin.vf"
    VABS = "vabs"
    VNEG = "vneg"
    VRECIP = "vrecip"  # fast reciprocal estimate (exact here)
    VRSQRT = "vrsqrt"  # fast reciprocal square root (exact here)
    VAND = "vand"
    VOR = "vor"
    VXOR = "vxor"
    VAND_VI = "vand.vi"  # bitwise and with integer immediate
    VSLL_VI = "vsll.vi"
    VSRL_VI = "vsrl.vi"
    VMFLT = "vmflt"  # mask: s0 < s1
    VMFLE = "vmfle"
    VMFEQ = "vmfeq"
    VMERGE = "vmerge"  # dst = s0 ? s1 : s2 (mask in s0)
    VREDSUM = "vredsum"  # reduction, result broadcast to all elements
    VREDMAX = "vredmax"
    VREDMIN = "vredmin"
    VMV = "vmv"  # register copy
    VFMV_VF = "vfmv.vf"  # broadcast scalar
    VID = "vid"  # dst[i] = i

    # Memory.
    VLE = "vle"  # unit-stride load
    VSE = "vse"  # unit-stride store
    VLSE = "vlse"  # strided load
    VSSE = "vsse"  # strided store
    VLXE = "vlxe"  # indexed (gather) load, index vector in s0
    VSXE = "vsxe"  # indexed (scatter) store, data s0, index vector in s1

    # Scalar-core overhead marker (loop control, vsetvl, address bumps).
    SCALAR_BLOCK = "scalar"


@dataclass(frozen=True)
class OpInfo:
    """Static properties of one opcode.

    ``is_memory`` / ``is_arith`` are plain attributes precomputed at
    construction (one OpInfo exists per opcode, but the flags are read for
    every instruction the compiler builds and the simulator probes).
    """

    kind: OpKind
    n_srcs: int
    uses_scalar: bool
    latency: int
    beats_per_element: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "is_memory",
            self.kind in (OpKind.MEM_LOAD, OpKind.MEM_STORE))
        object.__setattr__(self, "is_arith", self.kind is OpKind.ARITH)


def _arith(n_srcs: int, latency: int, *, scalar: bool = False,
           beats: float = 1.0) -> OpInfo:
    return OpInfo(OpKind.ARITH, n_srcs, scalar, latency, beats)


#: Pipeline latency of the simple FP ops (add-class) in VPU cycles.
LAT_SIMPLE = 4
#: Pipeline latency of the FP multiplier.
LAT_MUL = 5
#: Pipeline latency of the fused multiply-add pipeline.
LAT_FMA = 6
#: Latency / per-element throughput of the iterative divide / sqrt unit.
LAT_DIV = 12
BEATS_DIV = 4.0
#: Latency of the reciprocal-estimate fast path.
LAT_RECIP = 8
BEATS_RECIP = 2.0
#: Latency of tree reductions.
LAT_RED = 8


OPCODE_INFO: dict[Op, OpInfo] = {
    Op.VADD: _arith(2, LAT_SIMPLE),
    Op.VSUB: _arith(2, LAT_SIMPLE),
    Op.VMUL: _arith(2, LAT_MUL),
    Op.VDIV: _arith(2, LAT_DIV, beats=BEATS_DIV),
    Op.VSQRT: _arith(1, LAT_DIV, beats=BEATS_DIV),
    Op.VFMADD: _arith(3, LAT_FMA),
    Op.VFMADD_VF: _arith(2, LAT_FMA, scalar=True),
    Op.VADD_VF: _arith(1, LAT_SIMPLE, scalar=True),
    Op.VSUB_VF: _arith(1, LAT_SIMPLE, scalar=True),
    Op.VRSUB_VF: _arith(1, LAT_SIMPLE, scalar=True),
    Op.VMUL_VF: _arith(1, LAT_MUL, scalar=True),
    Op.VDIV_VF: _arith(1, LAT_DIV, scalar=True, beats=BEATS_DIV),
    Op.VMAX: _arith(2, LAT_SIMPLE),
    Op.VMIN: _arith(2, LAT_SIMPLE),
    Op.VMAX_VF: _arith(1, LAT_SIMPLE, scalar=True),
    Op.VMIN_VF: _arith(1, LAT_SIMPLE, scalar=True),
    Op.VABS: _arith(1, LAT_SIMPLE),
    Op.VNEG: _arith(1, LAT_SIMPLE),
    Op.VRECIP: _arith(1, LAT_RECIP, beats=BEATS_RECIP),
    Op.VRSQRT: _arith(1, LAT_RECIP, beats=BEATS_RECIP),
    Op.VAND: _arith(2, LAT_SIMPLE),
    Op.VOR: _arith(2, LAT_SIMPLE),
    Op.VXOR: _arith(2, LAT_SIMPLE),
    Op.VAND_VI: _arith(1, LAT_SIMPLE, scalar=True),
    Op.VSLL_VI: _arith(1, LAT_SIMPLE, scalar=True),
    Op.VSRL_VI: _arith(1, LAT_SIMPLE, scalar=True),
    Op.VMFLT: _arith(2, LAT_SIMPLE),
    Op.VMFLE: _arith(2, LAT_SIMPLE),
    Op.VMFEQ: _arith(2, LAT_SIMPLE),
    Op.VMERGE: _arith(3, LAT_SIMPLE),
    Op.VREDSUM: _arith(1, LAT_RED),
    Op.VREDMAX: _arith(1, LAT_RED),
    Op.VREDMIN: _arith(1, LAT_RED),
    Op.VMV: _arith(1, LAT_SIMPLE),
    Op.VFMV_VF: _arith(0, LAT_SIMPLE, scalar=True),
    Op.VID: _arith(0, LAT_SIMPLE),
    # Memory latency is supplied by the memory hierarchy at simulation time;
    # the `latency` recorded here is only the address-generation overhead.
    Op.VLE: OpInfo(OpKind.MEM_LOAD, 0, False, 0, 1.0),
    Op.VSE: OpInfo(OpKind.MEM_STORE, 1, False, 0, 1.0),
    Op.VLSE: OpInfo(OpKind.MEM_LOAD, 0, False, 0, 1.0),
    Op.VSSE: OpInfo(OpKind.MEM_STORE, 1, False, 0, 1.0),
    Op.VLXE: OpInfo(OpKind.MEM_LOAD, 1, False, 0, 1.0),
    Op.VSXE: OpInfo(OpKind.MEM_STORE, 2, False, 0, 1.0),
    Op.SCALAR_BLOCK: OpInfo(OpKind.SCALAR, 0, True, 0, 0.0),
}

