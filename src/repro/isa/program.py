"""Program container: an ordered vector-instruction trace plus its data.

A :class:`Program` is what a workload hands the simulator: the strip-mined,
register-allocated instruction sequence (including any compiler spill code),
the set of application data buffers it touches, and the number of spill slots
the compiler reserved.  Programs are configuration-specific — the same kernel
compiled for MVL=16/LMUL=1 and for MVL=128/LMUL=8 yields different programs —
but they are immutable and reusable across simulator instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from repro.isa.instructions import Instruction, Tag
from repro.isa.opcodes import Op


@dataclass(frozen=True)
class ProgramStats:
    """Static instruction-mix statistics (Fig. 3, columns 1 and 2)."""

    vector_arith: int = 0
    vector_load: int = 0
    vector_store: int = 0
    spill_load: int = 0
    spill_store: int = 0
    scalar_blocks: int = 0

    @property
    def vector_memory(self) -> int:
        return (self.vector_load + self.vector_store
                + self.spill_load + self.spill_store)

    @property
    def vector_total(self) -> int:
        return self.vector_arith + self.vector_memory

    @property
    def memory_fraction(self) -> float:
        total = self.vector_total
        return self.vector_memory / total if total else 0.0


@dataclass
class Program:
    """An executable vector program.

    Attributes:
        name: human-readable identifier (workload + configuration).
        insts: the full instruction trace, in program order.
        buffers: application data arrays, name -> element count.
        spill_slots: number of MVL-wide compiler spill slots reserved.
        mvl: the Maximum Vector Length the program was compiled for.
        logical_regs: how many architectural registers the binary uses
            (the paper reports this per application, e.g. 23 for
            Blackscholes).
        meta: free-form annotations (iteration count, kernel parameters).
    """

    name: str
    insts: List[Instruction] = field(default_factory=list)
    buffers: Dict[str, int] = field(default_factory=dict)
    spill_slots: int = 0
    mvl: int = 16
    logical_regs: int = 0
    meta: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.insts)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.insts)

    def append(self, inst: Instruction) -> None:
        self.insts.append(inst)

    def extend(self, insts: List[Instruction]) -> None:
        self.insts.extend(insts)

    @property
    def vector_insts(self) -> List[Instruction]:
        return [i for i in self.insts if not i.is_scalar]

    def stats(self) -> ProgramStats:
        """Count the static instruction mix by category."""
        arith = load = store = spill_l = spill_s = scalar = 0
        for inst in self.insts:
            if inst.is_scalar:
                scalar += 1
            elif inst.is_arith:
                arith += 1
            elif inst.is_load:
                if inst.tag is Tag.SPILL:
                    spill_l += 1
                else:
                    load += 1
            elif inst.is_store:
                if inst.tag is Tag.SPILL:
                    spill_s += 1
                else:
                    store += 1
        return ProgramStats(arith, load, store, spill_l, spill_s, scalar)

    def registers_used(self) -> set[int]:
        """The set of architectural registers the trace references."""
        # Scalar blocks carry no registers (no sources, no destination).
        used = {src for inst in self.insts for src in inst.srcs}
        used.update([inst.dst for inst in self.insts
                     if inst.dst is not None])
        return used

    def validate(self, n_logical: int) -> None:
        """Check every register id is a legal architectural register."""
        used = self.registers_used()
        bad = [r for r in used if not 0 <= r < n_logical]
        if bad:
            raise ValueError(
                f"program {self.name!r} uses registers outside "
                f"[0, {n_logical}): {sorted(bad)[:8]}")

    def to_dict(self) -> dict:
        """Exact JSON form for the trace store (buffers/meta hold only
        JSON-native scalars, instructions serialize losslessly)."""
        return {
            "name": self.name,
            "insts": [inst.to_dict() for inst in self.insts],
            "buffers": dict(self.buffers),
            "spill_slots": self.spill_slots,
            "mvl": self.mvl,
            "logical_regs": self.logical_regs,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Program":
        """Rebuild from :meth:`to_dict` output, trusted.

        Deliberately does NOT re-run :meth:`validate`: traces only reach
        here through the store's schema gate and content-addressed key, and
        replaying a stored trace must stay much cheaper than recompiling.
        """
        shared: dict = {}
        return cls(
            name=data["name"],
            insts=[Instruction.from_dict(d, shared) for d in data["insts"]],
            buffers=dict(data["buffers"]),
            spill_slots=data["spill_slots"],
            mvl=data["mvl"],
            logical_regs=data["logical_regs"],
            meta=dict(data["meta"]),
        )

    def describe(self, limit: int = 20) -> str:
        """Human-readable dump of the first ``limit`` instructions."""
        lines = [f"program {self.name}: {len(self.insts)} instructions, "
                 f"mvl={self.mvl}, spill_slots={self.spill_slots}"]
        for inst in self.insts[:limit]:
            lines.append("  " + inst.describe())
        if len(self.insts) > limit:
            lines.append(f"  ... {len(self.insts) - limit} more")
        return "\n".join(lines)
