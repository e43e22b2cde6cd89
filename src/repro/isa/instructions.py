"""Instruction objects shared by the compiler and the simulator.

An :class:`Instruction` is immutable once built; pipeline state (rename
mappings, issue/commit timestamps) lives in the simulator's per-instruction
micro-op wrapper, never here, so the same program object can be replayed
across many configurations.

The ``dst``/``srcs`` register fields are plain integers whose namespace
depends on the processing stage:

* straight out of :class:`repro.isa.builder.KernelBuilder` they are *virtual*
  registers (unbounded),
* after :func:`repro.compiler.allocator.allocate` they are *architectural*
  registers (0..31, or 0..32/LMUL-1 under Register Grouping),
* the simulator renames them again onto VVRs and physical registers.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

from repro.isa.opcodes import OPCODE_INFO, Op, OpInfo, OpKind
from repro.isa.operands import MemOperand


class Tag(enum.Enum):
    """Provenance of a memory instruction, for Figure-3's breakdown."""

    NORMAL = "normal"
    SPILL = "spill"  # compiler-inserted (Register Grouping)
    SWAP = "swap"  # hardware-inserted by AVA's Swap Mechanism


_seq_counter = itertools.count()

#: The six derived slot values per opcode, in declaration order, keyed by
#: the opcode's string value (``Op.__hash__`` runs in Python; a ``str``
#: caches its hash).
_DERIVED_BY_OP = {
    op.value: (info, info.is_memory, info.kind is OpKind.MEM_LOAD,
               info.kind is OpKind.MEM_STORE, info.is_arith,
               info.kind is OpKind.SCALAR)
    for op, info in OPCODE_INFO.items()}


@dataclass(frozen=True, slots=True)
class Instruction:
    """One vector (or scalar-overhead) instruction.

    Attributes:
        op: opcode.
        dst: destination register, or ``None`` for stores / scalar blocks.
        srcs: source vector registers, in opcode order.
        scalar: scalar operand (``.vf`` forms, immediates); for
            ``SCALAR_BLOCK`` it holds the scalar-core cycle cost of the block.
        vl: vector length this instruction executes with.
        mem: memory operand for loads/stores.
        tag: NORMAL / SPILL / SWAP provenance.
        uid: globally unique id, assigned at construction.
    """

    op: Op
    dst: Optional[int] = None
    srcs: Tuple[int, ...] = ()
    scalar: Optional[float] = None
    vl: int = 0
    mem: Optional[MemOperand] = None
    tag: Tag = Tag.NORMAL
    uid: int = field(default_factory=lambda: next(_seq_counter))

    # Pure functions of ``op``, stored in slots of their own (out of
    # repr/eq/hash) because the simulator probes them on every evaluated
    # cycle; deriving them from the opcode table each time dominated the
    # per-cycle cost before they were cached here.
    info: OpInfo = field(init=False, repr=False, compare=False)
    is_memory: bool = field(init=False, repr=False, compare=False)
    is_load: bool = field(init=False, repr=False, compare=False)
    is_store: bool = field(init=False, repr=False, compare=False)
    is_arith: bool = field(init=False, repr=False, compare=False)
    is_scalar: bool = field(init=False, repr=False, compare=False)

    def __reduce__(self) -> tuple:
        """Pickle the eight declared fields only: ``OpInfo`` carries
        evaluator lambdas (unpicklable), and the derived slots are pure
        functions of ``op`` anyway.  (``__reduce__`` rather than
        ``__getstate__``: CPython 3.10's slotted frozen dataclasses
        overwrite the latter.)"""
        return (_build, (self.op, self.dst, self.srcs, self.scalar, self.vl,
                         self.mem, self.tag, self.uid))

    def __post_init__(self) -> None:
        info = _fill_derived(self, self.op)
        if self.tag is not Tag.NORMAL and not info.is_memory:
            raise ValueError(f"{self.op.value} cannot be tagged "
                             f"{self.tag.value}: only memory instructions")
        if info.kind is OpKind.SCALAR:
            if self.dst is not None or self.srcs or self.mem is not None:
                raise ValueError(f"{self.op.value} carries no registers "
                                 f"or memory operand")
            cost = self.scalar
            if cost is None or not 0 <= cost < math.inf:
                raise ValueError(f"{self.op.value} needs a finite, "
                                 f"non-negative cost, got {cost}")
            return
        if len(self.srcs) != info.n_srcs:
            raise ValueError(
                f"{self.op.value} expects {info.n_srcs} vector sources, "
                f"got {len(self.srcs)}")
        if info.uses_scalar and self.scalar is None:
            raise ValueError(f"{self.op.value} requires a scalar operand")
        if not info.uses_scalar and self.scalar is not None:
            raise ValueError(f"{self.op.value} takes no scalar operand")
        if info.is_memory and self.mem is None:
            raise ValueError(f"{self.op.value} requires a memory operand")
        if not info.is_memory and self.mem is not None:
            raise ValueError(f"{self.op.value} takes no memory operand")
        if info.kind is OpKind.MEM_STORE and self.dst is not None:
            raise ValueError("stores have no destination register")
        if (info.kind in (OpKind.ARITH, OpKind.MEM_LOAD)
                and self.dst is None):
            raise ValueError(f"{self.op.value} requires a destination")
        if self.vl <= 0:
            raise ValueError("vector instructions need vl >= 1")

    @property
    def registers(self) -> Tuple[int, ...]:
        """All register operands (sources plus destination if present)."""
        if self.dst is None:
            return self.srcs
        return self.srcs + (self.dst,)

    def with_operands(self, dst: Optional[int], srcs: Tuple[int, ...],
                      vl: int, mem: Optional[MemOperand]) -> "Instruction":
        """Low-level copy with pre-mapped operands.

        Rewriting operands cannot change the instruction's shape (operand
        counts, opcode kind, dst presence), so the copy is built directly
        instead of re-running ``__init__`` validation — this is the
        compiler's hottest loop: the allocator builds every compiled
        instruction this way, once, from a kernel-body instruction.
        """
        if vl <= 0:
            raise ValueError("vector instructions need vl >= 1")
        return _build(self.op, dst, srcs, self.scalar, vl, mem, self.tag,
                      next(_seq_counter))

    def to_dict(self) -> dict:
        """Exact JSON form for the trace store.

        Defaulted fields are elided (keeps axpy-class traces a third the
        size); ``uid`` is deliberately dropped — it is an in-process
        construction counter, and a loaded trace gets fresh ones.  Scalars
        survive JSON exactly: ``json.dump`` emits the shortest round-trip
        repr of a double.
        """
        d: dict = {"op": self.op.value, "vl": self.vl}
        if self.dst is not None:
            d["dst"] = self.dst
        if self.srcs:
            d["srcs"] = list(self.srcs)
        if self.scalar is not None:
            d["scalar"] = self.scalar
        if self.mem is not None:
            d["mem"] = self.mem.to_dict()
        if self.tag is not Tag.NORMAL:
            d["tag"] = self.tag.value
        return d

    @classmethod
    def from_dict(cls, data: dict,
                  shared: Optional[Dict[Tuple[int, ...], Tuple[int, ...]]]
                  = None) -> "Instruction":
        """Rebuild from :meth:`to_dict` output, trusted (no re-validation).

        Traces only reach here through the store's schema gate and
        content-addressed key, so the shape checks ``__post_init__`` runs
        on freshly built instructions are skipped — loading a stored trace
        must stay much cheaper than recompiling it.  Genuinely mangled
        payloads still fail loudly here (bad opcode/tag names raise) and
        the store turns that into a miss.  ``shared`` maps ``srcs`` values
        to one tuple object, so a program's equal source tuples are stored
        once.
        """
        mem = data.get("mem")
        tag = data.get("tag")
        srcs = tuple(data.get("srcs", ()))
        if shared is not None:
            srcs = shared.setdefault(srcs, srcs)
        # Member-map lookups instead of enum __call__: this runs once per
        # instruction per trace replay; bad names still raise (KeyError).
        return _build(
            Op._value2member_map_[data["op"]], data.get("dst"), srcs,
            data.get("scalar"), data["vl"],
            None if mem is None else MemOperand.from_dict(mem),
            Tag.NORMAL if tag is None else Tag._value2member_map_[tag],
            next(_seq_counter))

    def describe(self) -> str:
        parts = [self.op.value]
        if self.dst is not None:
            parts.append(f"d{self.dst}")
        parts.extend(f"s{s}" for s in self.srcs)
        if self.scalar is not None:
            parts.append(f"f={self.scalar:g}")
        if self.mem is not None:
            parts.append(self.mem.describe())
        parts.append(f"vl={self.vl}")
        if self.tag is not Tag.NORMAL:
            parts.append(self.tag.value.upper())
        return " ".join(parts)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


# Each slot's descriptor setter, bound once, in field declaration order.
_new = object.__new__
(_set_op, _set_dst, _set_srcs, _set_scalar, _set_vl, _set_mem, _set_tag,
 _set_uid, _set_info, _set_is_memory, _set_is_load, _set_is_store,
 _set_is_arith, _set_is_scalar) = [
    getattr(Instruction, f.name).__set__ for f in fields(Instruction)]


def _fill_derived(inst: Instruction, op: Op) -> OpInfo:
    info, is_memory, is_load, is_store, is_arith, is_scalar = \
        _DERIVED_BY_OP[op._value_]
    _set_info(inst, info)
    _set_is_memory(inst, is_memory)
    _set_is_load(inst, is_load)
    _set_is_store(inst, is_store)
    _set_is_arith(inst, is_arith)
    _set_is_scalar(inst, is_scalar)
    return info


def _build(op: Op, dst: Optional[int], srcs: Tuple[int, ...],
           scalar: Optional[float], vl: int, mem: Optional[MemOperand],
           tag: Tag, uid: int) -> Instruction:
    """An instruction with its slots filled directly, unvalidated: operand
    rewrites, trusted trace loads and unpickling.  The bound slot setters
    bypass the frozen ``__setattr__`` at about half the cost of
    ``object.__setattr__``."""
    inst = _new(Instruction)
    _set_op(inst, op)
    _set_dst(inst, dst)
    _set_srcs(inst, srcs)
    _set_scalar(inst, scalar)
    _set_vl(inst, vl)
    _set_mem(inst, mem)
    _set_tag(inst, tag)
    _set_uid(inst, uid)
    _fill_derived(inst, op)
    return inst


def fingerprint_line(inst: Instruction) -> str:
    """One canonical line per instruction for content hashing.

    Shared by the engine's program fingerprint and the workload's
    kernel-body fingerprint.  Uids are excluded — two builds of the same
    kernel fingerprint identically.  Scalar operands go through
    ``float.hex()`` (exact), not the 6-significant-digit display form, so
    kernels differing only in a constant never collide.
    """
    scalar = None if inst.scalar is None else float(inst.scalar).hex()
    mem = inst.mem and (inst.mem.space.value, inst.mem.buffer,
                        inst.mem.base_elem, inst.mem.stride,
                        inst.mem.indexed)
    return (f"{inst.op.value}|d={inst.dst}|s={inst.srcs}|f={scalar}"
            f"|vl={inst.vl}|mem={mem}|tag={inst.tag.value}\n")


def scalar_block(cycles: float) -> Instruction:
    """Build a scalar-overhead marker costing ``cycles`` scalar-core cycles.

    The paper's scalar core runs at 2 GHz while the VPU runs at 1 GHz, so the
    simulator halves this cost when converting to VPU cycles.
    """
    return Instruction(op=Op.SCALAR_BLOCK, scalar=float(cycles))
