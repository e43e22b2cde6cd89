"""Kernel-builder DSL: hand-vectorised kernels in virtual registers.

The RiVEC applications are hand-vectorised with RISC-V intrinsics; this
builder plays the same role for the reproduction.  A kernel *body* describes
one strip-mine iteration in SSA-style **virtual registers** (unbounded ids).
The compiler package later allocates these onto the architectural registers
available to a configuration (32 for NATIVE/AVA, 32/LMUL for Register
Grouping), inserting MVL-wide spill code where pressure exceeds supply.

:class:`VirtualReg` supports arithmetic operators so kernels read like the
maths they implement::

    kb = KernelBuilder()
    x = kb.load("x")
    y = kb.load("y")
    kb.store(kb.fmadd_vf(a, x, y), "y")     # y = a*x + y
    body = kb.build()

Instructions are emitted with placeholder ``vl=1``; the workload emitter
(:mod:`repro.workloads.base`) stamps the real per-strip vector length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Op
from repro.isa.operands import MemOperand, data_ref

Number = Union[int, float]


@dataclass(frozen=True)
class VirtualReg:
    """A virtual vector register produced by :class:`KernelBuilder`."""

    vid: int
    builder: "KernelBuilder" = field(repr=False, compare=False, hash=False)

    # -- operator sugar -----------------------------------------------------
    def __add__(self, other: "VirtualReg | Number") -> "VirtualReg":
        return self.builder.add(self, other)

    def __radd__(self, other: Number) -> "VirtualReg":
        return self.builder.add(self, other)

    def __sub__(self, other: "VirtualReg | Number") -> "VirtualReg":
        return self.builder.sub(self, other)

    def __rsub__(self, other: Number) -> "VirtualReg":
        return self.builder.rsub(other, self)

    def __mul__(self, other: "VirtualReg | Number") -> "VirtualReg":
        return self.builder.mul(self, other)

    def __rmul__(self, other: Number) -> "VirtualReg":
        return self.builder.mul(self, other)

    def __truediv__(self, other: "VirtualReg | Number") -> "VirtualReg":
        return self.builder.div(self, other)

    def __neg__(self) -> "VirtualReg":
        return self.builder.neg(self)


@dataclass
class KernelBody:
    """One strip-mine iteration of a kernel, in virtual registers.

    Attributes:
        insts: the body instructions in program order (``vl`` placeholder 1).
        n_vregs: number of distinct virtual registers defined.
        invariants: loop-invariant virtual registers (broadcast constants)
            defined by the preamble prefix of ``insts``; they stay live across
            every iteration and therefore contribute register pressure for
            the whole program, exactly like hoisted constants in the real
            hand-vectorised kernels.
        n_preamble: how many leading instructions of ``insts`` are preamble.
    """

    insts: List[Instruction]
    n_vregs: int
    invariants: List[int]
    n_preamble: int


class KernelBuilder:
    """Incrementally builds a :class:`KernelBody`."""

    def __init__(self) -> None:
        self._insts: List[Instruction] = []
        self._next_vid = 0
        self._invariants: List[int] = []
        self._preamble_done = False

    # -- register management ------------------------------------------------
    def _fresh(self) -> VirtualReg:
        reg = VirtualReg(self._next_vid, self)
        self._next_vid += 1
        return reg

    def _vid(self, value: "VirtualReg") -> int:
        if not isinstance(value, VirtualReg):
            raise TypeError(f"expected VirtualReg, got {type(value).__name__}")
        if value.builder is not self:
            raise ValueError("virtual register belongs to another builder")
        return value.vid

    def _emit(self, op: Op, srcs: tuple, scalar: Optional[float] = None,
              mem: Optional[MemOperand] = None,
              has_dst: bool = True) -> Optional[VirtualReg]:
        dst = self._fresh() if has_dst else None
        self._insts.append(Instruction(
            op=op,
            dst=None if dst is None else dst.vid,
            srcs=tuple(self._vid(s) for s in srcs),
            scalar=scalar,
            vl=1,
            mem=mem,
        ))
        return dst

    # -- preamble (loop-invariant constants) ---------------------------------
    def const(self, value: float) -> VirtualReg:
        """Broadcast a scalar constant into a loop-invariant register.

        Must be called before any loop-body instruction; hoisted constants
        occupy an architectural register for the entire kernel, which is how
        high-pressure kernels such as Blackscholes reach 20+ live registers.
        """
        if self._preamble_done:
            raise RuntimeError("const() must precede loop-body instructions")
        reg = self._emit(Op.VFMV_VF, (), scalar=float(value))
        assert reg is not None
        self._invariants.append(reg.vid)
        return reg

    def _body(self) -> None:
        self._preamble_done = True

    # -- memory ---------------------------------------------------------------
    def load(self, buffer: str, offset: int = 0, stride: int = 1) -> VirtualReg:
        """Unit-stride (or strided) vector load from an application buffer."""
        self._body()
        op = Op.VLE if stride == 1 else Op.VLSE
        reg = self._emit(op, (), mem=data_ref(buffer, offset, stride))
        assert reg is not None
        return reg

    def store(self, value: VirtualReg, buffer: str, offset: int = 0,
              stride: int = 1) -> None:
        self._body()
        op = Op.VSE if stride == 1 else Op.VSSE
        self._emit(op, (value,), mem=data_ref(buffer, offset, stride),
                   has_dst=False)

    def gather(self, buffer: str, index: VirtualReg) -> VirtualReg:
        """Indexed (gather) load; element addresses come from ``index``."""
        self._body()
        reg = self._emit(Op.VLXE, (index,),
                         mem=data_ref(buffer, 0, 1, indexed=True))
        assert reg is not None
        return reg

    def scatter(self, value: VirtualReg, buffer: str,
                index: VirtualReg) -> None:
        self._body()
        self._emit(Op.VSXE, (value, index),
                   mem=data_ref(buffer, 0, 1, indexed=True), has_dst=False)

    # -- arithmetic -----------------------------------------------------------
    def add(self, a: VirtualReg, b: "VirtualReg | Number") -> VirtualReg:
        self._body()
        if isinstance(b, VirtualReg):
            return self._emit(Op.VADD, (a, b))  # type: ignore[return-value]
        return self._emit(Op.VADD_VF, (a,), scalar=float(b))  # type: ignore

    def sub(self, a: VirtualReg, b: "VirtualReg | Number") -> VirtualReg:
        self._body()
        if isinstance(b, VirtualReg):
            return self._emit(Op.VSUB, (a, b))  # type: ignore[return-value]
        return self._emit(Op.VSUB_VF, (a,), scalar=float(b))  # type: ignore

    def rsub(self, a: Number, b: VirtualReg) -> VirtualReg:
        """scalar - vector."""
        self._body()
        return self._emit(Op.VRSUB_VF, (b,), scalar=float(a))  # type: ignore

    def mul(self, a: VirtualReg, b: "VirtualReg | Number") -> VirtualReg:
        self._body()
        if isinstance(b, VirtualReg):
            return self._emit(Op.VMUL, (a, b))  # type: ignore[return-value]
        return self._emit(Op.VMUL_VF, (a,), scalar=float(b))  # type: ignore

    def div(self, a: VirtualReg, b: "VirtualReg | Number") -> VirtualReg:
        self._body()
        if isinstance(b, VirtualReg):
            return self._emit(Op.VDIV, (a, b))  # type: ignore[return-value]
        return self._emit(Op.VDIV_VF, (a,), scalar=float(b))  # type: ignore

    def fmadd(self, a: VirtualReg, b: VirtualReg,
              c: VirtualReg) -> VirtualReg:
        """dst = a*b + c."""
        self._body()
        return self._emit(Op.VFMADD, (a, b, c))  # type: ignore[return-value]

    def fmadd_vf(self, scalar: Number, a: VirtualReg,
                 b: VirtualReg) -> VirtualReg:
        """dst = scalar*a + b (the classic axpy ``vfmacc.vf``)."""
        self._body()
        return self._emit(Op.VFMADD_VF, (a, b),
                          scalar=float(scalar))  # type: ignore[return-value]

    def sqrt(self, a: VirtualReg) -> VirtualReg:
        self._body()
        return self._emit(Op.VSQRT, (a,))  # type: ignore[return-value]

    def recip(self, a: VirtualReg) -> VirtualReg:
        self._body()
        return self._emit(Op.VRECIP, (a,))  # type: ignore[return-value]

    def rsqrt(self, a: VirtualReg) -> VirtualReg:
        self._body()
        return self._emit(Op.VRSQRT, (a,))  # type: ignore[return-value]

    def neg(self, a: VirtualReg) -> VirtualReg:
        self._body()
        return self._emit(Op.VNEG, (a,))  # type: ignore[return-value]

    def abs(self, a: VirtualReg) -> VirtualReg:
        self._body()
        return self._emit(Op.VABS, (a,))  # type: ignore[return-value]

    def vmax(self, a: VirtualReg, b: "VirtualReg | Number") -> VirtualReg:
        self._body()
        if isinstance(b, VirtualReg):
            return self._emit(Op.VMAX, (a, b))  # type: ignore[return-value]
        return self._emit(Op.VMAX_VF, (a,), scalar=float(b))  # type: ignore

    def vmin(self, a: VirtualReg, b: "VirtualReg | Number") -> VirtualReg:
        self._body()
        if isinstance(b, VirtualReg):
            return self._emit(Op.VMIN, (a, b))  # type: ignore[return-value]
        return self._emit(Op.VMIN_VF, (a,), scalar=float(b))  # type: ignore

    def band(self, a: VirtualReg, b: "VirtualReg | int") -> VirtualReg:
        self._body()
        if isinstance(b, VirtualReg):
            return self._emit(Op.VAND, (a, b))  # type: ignore[return-value]
        return self._emit(Op.VAND_VI, (a,), scalar=float(b))  # type: ignore

    def bxor(self, a: VirtualReg, b: VirtualReg) -> VirtualReg:
        self._body()
        return self._emit(Op.VXOR, (a, b))  # type: ignore[return-value]

    def srl(self, a: VirtualReg, shift: int) -> VirtualReg:
        self._body()
        return self._emit(Op.VSRL_VI, (a,), scalar=float(shift))  # type: ignore

    def sll(self, a: VirtualReg, shift: int) -> VirtualReg:
        self._body()
        return self._emit(Op.VSLL_VI, (a,), scalar=float(shift))  # type: ignore

    def lt(self, a: VirtualReg, b: VirtualReg) -> VirtualReg:
        self._body()
        return self._emit(Op.VMFLT, (a, b))  # type: ignore[return-value]

    def le(self, a: VirtualReg, b: VirtualReg) -> VirtualReg:
        self._body()
        return self._emit(Op.VMFLE, (a, b))  # type: ignore[return-value]

    def merge(self, mask: VirtualReg, if_true: VirtualReg,
              if_false: VirtualReg) -> VirtualReg:
        self._body()
        return self._emit(Op.VMERGE, (mask, if_true, if_false))  # type: ignore

    def redsum(self, a: VirtualReg) -> VirtualReg:
        self._body()
        return self._emit(Op.VREDSUM, (a,))  # type: ignore[return-value]

    def broadcast(self, value: Number) -> VirtualReg:
        """Broadcast inside the loop body (not hoisted, unlike :meth:`const`)."""
        self._body()
        return self._emit(Op.VFMV_VF, (), scalar=float(value))  # type: ignore

    def iota(self) -> VirtualReg:
        """dst[i] = i."""
        self._body()
        return self._emit(Op.VID, ())  # type: ignore[return-value]

    def copy(self, a: VirtualReg) -> VirtualReg:
        self._body()
        return self._emit(Op.VMV, (a,))  # type: ignore[return-value]

    # -- finalisation ---------------------------------------------------------
    def build(self) -> KernelBody:
        if not self._insts:
            raise ValueError("cannot build an empty kernel body")
        n_preamble = len(self._invariants)
        return KernelBody(
            insts=list(self._insts),
            n_vregs=self._next_vid,
            invariants=list(self._invariants),
            n_preamble=n_preamble,
        )
