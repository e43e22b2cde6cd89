"""Instruction objects shared by the compiler and the simulator.

An :class:`Instruction` is immutable once built; pipeline state (rename
mappings, issue/commit timestamps) lives in the simulator's per-instruction
micro-op wrapper, never here, so the same program object can be replayed
across many configurations.

The ``dst``/``srcs`` register fields are plain integers whose namespace
depends on the processing stage:

* straight out of :class:`repro.isa.builder.KernelBuilder` they are *virtual*
  registers (unbounded),
* after :func:`repro.compiler.allocate` they are *architectural* registers
  (0..31, or 0..32/LMUL-1 under Register Grouping),
* the simulator renames them again onto VVRs and physical registers.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.isa.opcodes import Op, OpInfo, OpKind, op_info
from repro.isa.operands import MemOperand


class Tag(enum.Enum):
    """Provenance of a memory instruction, for Figure-3's breakdown."""

    NORMAL = "normal"
    SPILL = "spill"  # compiler-inserted (Register Grouping)
    SWAP = "swap"  # hardware-inserted by AVA's Swap Mechanism


_seq_counter = itertools.count()

#: Shared per-opcode derived-attribute dicts (see ``_fill_derived``).
_DERIVED_BY_OP: dict = {}


@dataclass(frozen=True)
class Instruction:  # lint: slots-exempt(derived-attribute cache installs via __dict__.update)
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

    # ``info`` and the ``is_*`` kind flags are plain instance attributes
    # precomputed in ``__post_init__`` (not dataclass fields, so they stay
    # out of repr/eq/hash).  The simulator probes them on every evaluated
    # cycle; deriving them from the opcode table each time dominated the
    # per-cycle cost before they were cached here.

    _DERIVED = ("info", "is_memory", "is_load", "is_store", "is_arith",
                "is_scalar")

    def _fill_derived(self) -> OpInfo:
        # Direct __dict__ fill: these are not dataclass fields, and the
        # frozen-dataclass __setattr__ guard must be bypassed anyway.  The
        # per-opcode dict is built once and shared — instruction
        # construction (compile *and* trace replay) is hot enough that
        # re-deriving six flags per instance showed up in profiles.
        derived = _DERIVED_BY_OP.get(self.op)
        if derived is None:
            info = op_info(self.op)
            kind = info.kind
            derived = _DERIVED_BY_OP[self.op] = dict(
                info=info,
                is_memory=info.is_memory,
                is_load=kind is OpKind.MEM_LOAD,
                is_store=kind is OpKind.MEM_STORE,
                is_arith=info.is_arith,
                is_scalar=kind is OpKind.SCALAR,
            )
        self.__dict__.update(derived)
        return derived["info"]

    def __getstate__(self) -> dict:
        """Exclude the derived attributes: ``OpInfo`` carries evaluator
        lambdas (unpicklable), and the attributes are pure functions of
        ``op`` anyway."""
        return {k: v for k, v in self.__dict__.items()
                if k not in self._DERIVED}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._fill_derived()

    def __post_init__(self) -> None:
        info = self._fill_derived()
        kind = info.kind
        if kind is OpKind.SCALAR:
            return
        if len(self.srcs) != info.n_srcs:
            raise ValueError(
                f"{self.op.value} expects {info.n_srcs} vector sources, "
                f"got {len(self.srcs)}")
        if info.uses_scalar and self.scalar is None:
            raise ValueError(f"{self.op.value} requires a scalar operand")
        if info.is_memory and self.mem is None:
            raise ValueError(f"{self.op.value} requires a memory operand")
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
        compiler's hottest loop (one copy per instruction per strip-mine
        iteration).  :meth:`remap` layers the mapping-dict form on top.
        """
        if vl <= 0:
            raise ValueError("vector instructions need vl >= 1")
        clone = object.__new__(Instruction)
        # .copy() keeps the dict key-sharing: 288 B, not 464 B, per copy,
        # and about half the copy time.
        d = self.__dict__.copy()
        d["dst"] = dst
        d["srcs"] = srcs
        d["vl"] = vl
        d["mem"] = mem
        d["uid"] = next(_seq_counter)
        object.__setattr__(clone, "__dict__", d)
        return clone

    def remap(self, mapping: dict[int, int],
              mem: Optional[MemOperand] = None,
              vl: Optional[int] = None) -> "Instruction":
        """Return a copy with registers rewritten through ``mapping``.

        Used by the register allocator (virtual -> architectural) and by the
        strip-mining trace emitter (rebasing memory operands per iteration).
        """
        return self.with_operands(
            dst=None if self.dst is None else mapping[self.dst],
            srcs=tuple(mapping[s] for s in self.srcs),
            vl=self.vl if vl is None else vl,
            mem=self.mem if mem is None else mem)

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
    def from_dict(cls, data: dict) -> "Instruction":
        """Rebuild from :meth:`to_dict` output, trusted (no re-validation).

        Traces only reach here through the store's schema gate and
        content-addressed key, so the shape checks ``__post_init__`` runs
        on freshly built instructions are skipped — loading a stored trace
        must stay much cheaper than recompiling it.  Genuinely mangled
        payloads still fail loudly here (bad opcode/tag names raise) and
        the store turns that into a miss.
        """
        mem = data.get("mem")
        tag = data.get("tag")
        inst = object.__new__(cls)
        # Member-map lookups instead of enum __call__: this runs once per
        # instruction per trace replay; bad names still raise (KeyError).
        # The unshared dict ``update`` builds is deliberate here: attribute
        # loads from a key-sharing dict miss CPython's hinted fast path;
        # on CPython 3.11 a replayed, simulation-bound sweep ran ~5% slower
        # with one.
        inst.__dict__.update(
            op=Op._value2member_map_[data["op"]],
            dst=data.get("dst"),
            srcs=tuple(data.get("srcs", ())),
            scalar=data.get("scalar"),
            vl=data["vl"],
            mem=None if mem is None else MemOperand.from_dict(mem),
            tag=Tag.NORMAL if tag is None else Tag._value2member_map_[tag],
            uid=next(_seq_counter),
        )
        inst._fill_derived()
        return inst

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


def fingerprint_line(inst: Instruction) -> str:
    """One canonical line per instruction for content hashing.

    Shared by the result cache's program fingerprint and the trace store's
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
    if cycles < 0:
        raise ValueError("scalar block cost must be non-negative")
    return Instruction(op=Op.SCALAR_BLOCK, scalar=float(cycles))
