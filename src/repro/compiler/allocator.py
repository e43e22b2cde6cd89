"""Furthest-next-use (Belady/MIN) register allocation with spill insertion.

Models the compiler stage the paper leans on for its Register Grouping
comparison: given K architectural registers, values whose live ranges exceed
supply are spilled to memory and reloaded before use.  Two properties of the
paper's toolchain are preserved faithfully:

* **Spill code is MVL-wide.**  "At compilation time, the compiler is not
  aware of the Application Vector Length... the spill code includes
  load/store of vector registers with the MVL" (§II.A).  Spill loads/stores
  are emitted with ``vl = MVL`` regardless of the strip's actual VL — this is
  exactly what makes RG-LMUL8 collapse on LavaMD2 (Fig. 3-c).
* **Spill instructions are tagged** (:class:`repro.isa.instructions.Tag`)
  so Figure 3's memory-instruction breakdown can separate Spill-Load /
  Spill-Store from application VLoad / VStore.

The eviction policy is furthest-next-use, which is optimal for straight-line
code and deterministic, making test expectations stable.  SSA input (one
definition per virtual register) means a spilled value never needs re-storing
once its slot holds it.

One backward pass records, per position, each source's next read and the
defined value's first read; the forward pass keeps every live value's next
read in a dict updated as instructions retire, so each Belady query is O(1).
The forward pass also yields the diagnostics: MAXLIVE is the peak of a live
counter bumped at each definition and dropped at each release, and
``registers_used`` is the set of registers ever handed out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.compiler.trace import TraceOp
from repro.isa.instructions import Instruction, Tag
from repro.isa.opcodes import Op
from repro.isa.operands import spill_ref

#: Sentinel "never read again" position (beyond any trace index).
INFINITY = 1 << 60


@dataclass
class AllocationResult:
    """Output of :func:`allocate`.

    Attributes:
        insts: the rewritten trace (architectural registers + spill code).
        n_regs: register supply the trace was allocated for.
        spill_loads: number of Spill-Load instructions inserted.
        spill_stores: number of Spill-Store instructions inserted.
        spill_slots: distinct spill slots reserved (each MVL elements).
        max_pressure: MAXLIVE of the input trace (diagnostic).
        registers_used: how many architectural registers were actually
            touched — the paper reports this per application (e.g. 23 for
            Blackscholes).
    """

    insts: List[Instruction]
    n_regs: int
    spill_loads: int = 0
    spill_stores: int = 0
    spill_slots: int = 0
    max_pressure: int = 0
    registers_used: int = 0

    def to_dict(self) -> dict:
        """Scalar fields only: ``insts`` is the program's trace, stored
        once by :class:`repro.compiler.store.TraceStore`, not duplicated."""
        return {"n_regs": self.n_regs, "spill_loads": self.spill_loads,
                "spill_stores": self.spill_stores,
                "spill_slots": self.spill_slots,
                "max_pressure": self.max_pressure,
                "registers_used": self.registers_used}

    @classmethod
    def from_dict(cls, data: dict,
                  insts: List[Instruction]) -> "AllocationResult":
        return cls(insts=insts, n_regs=data["n_regs"],
                   spill_loads=data["spill_loads"],
                   spill_stores=data["spill_stores"],
                   spill_slots=data["spill_slots"],
                   max_pressure=data["max_pressure"],
                   registers_used=data["registers_used"])


def allocate(trace: Sequence[TraceOp], n_regs: int,
             mvl: int) -> AllocationResult:
    """Allocate an SSA virtual-register trace onto ``n_regs`` registers.

    Args:
        trace: straight-line SSA trace from the strip-mine unroller, in its
            light operand-tuple form; each output instruction is built
            once, with its architectural registers.
        n_regs: architectural register supply (32 for LMUL=1, 32/LMUL
            under Register Grouping).
        mvl: the configuration's maximum vector length; spill code is
            emitted with this VL.

    Returns:
        An :class:`AllocationResult` whose ``insts`` never reference a
        register id >= ``n_regs``.
    """
    if n_regs < 2:
        raise ValueError("allocator needs at least 2 architectural registers")

    # Backward pass: for each position, the next read of every source
    # after it and the first read of the value it defines.
    src_next: List[Tuple[int, ...]] = [()] * len(trace)
    dst_next: List[int] = [INFINITY] * len(trace)
    later: Dict[int, int] = {}
    # (Scalar blocks carry no registers.)
    for pos in range(len(trace) - 1, -1, -1):
        _inst, dst, srcs, _vl, _mem = trace[pos]
        if dst is not None:
            dst_next[pos] = later.get(dst, INFINITY)
        if srcs:
            src_next[pos] = tuple([later.get(src, INFINITY) for src in srcs])
            for src in srcs:
                later[src] = pos

    # Forward pass.  ``next_use`` holds each value's next read as of the
    # instruction being allocated, so a Belady query is one dict lookup.
    next_use: Dict[int, int] = {}
    free = list(range(n_regs - 1, -1, -1))
    reg_of: Dict[int, int] = {}  # vreg -> arch reg
    slot_of: Dict[int, int] = {}  # vreg -> spill slot (a valid copy: SSA)
    used: Set[int] = set()
    # One tuple object per distinct ``srcs`` value: a program holds few
    # (lavamd at MVL=16: under a hundred values over ~8k instructions).
    shared: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    out: List[Instruction] = []
    spill_loads = spill_stores = 0
    live = peak = 0

    def evict(pinned: Tuple[int, ...]) -> int:
        """Free one register by spilling the value read furthest in the
        future."""
        nonlocal spill_stores
        best_vreg = -1
        best_dist = -1
        for vreg in reg_of:
            if vreg in pinned:
                continue
            dist = next_use[vreg]
            if dist > best_dist:
                best_dist = dist
                best_vreg = vreg
        if best_vreg < 0:
            raise RuntimeError(
                f"cannot evict: all {n_regs} registers pinned by one "
                f"instruction (register supply too small for the ISA)")
        reg = reg_of.pop(best_vreg)
        if best_dist != INFINITY and best_vreg not in slot_of:
            # Value is still needed and has no slot copy: store it.
            slot_of[best_vreg] = len(slot_of)
            spilled = (reg,)
            out.append(Instruction(
                op=Op.VSE, srcs=shared.setdefault(spilled, spilled), vl=mvl,
                mem=spill_ref(slot_of[best_vreg]), tag=Tag.SPILL))
            spill_stores += 1
        return reg

    for pos, (inst, dst, srcs, vl, mem) in enumerate(trace):
        if inst.is_scalar:
            out.append(inst)  # built by the unroller, register-free
            continue

        # Reload any source currently living only in its spill slot.
        for src in srcs:
            if src in reg_of:
                continue
            if src not in slot_of:
                raise ValueError(
                    f"use of register {src} before definition at trace "
                    f"position {pos}")
            reg = free.pop() if free else evict(srcs)
            used.add(reg)
            out.append(Instruction(
                op=Op.VLE, dst=reg, vl=mvl,
                mem=spill_ref(slot_of[src]), tag=Tag.SPILL))
            spill_loads += 1
            reg_of[src] = reg

        dst_reg: Optional[int] = None
        if dst is not None:
            if dst in reg_of or dst in slot_of:
                raise ValueError(
                    f"trace is not SSA: register {dst} redefined at "
                    f"position {pos}")
            dst_reg = free.pop() if free else evict(srcs)
            used.add(dst_reg)
            reg_of[dst] = dst_reg
            next_use[dst] = dst_next[pos]
            live += 1
            if live > peak:
                peak = live

        arch_srcs = tuple([reg_of[src] for src in srcs])
        out.append(inst.with_operands(
            dst_reg, shared.setdefault(arch_srcs, arch_srcs), vl, mem))

        # Sources (and write-once dead destinations) past their last use
        # release their registers immediately, like a compiler's live-range
        # end — pressure tracks MAXLIVE exactly.
        # sorted, not bare set iteration: dedupe then release in register
        # order, so the free-list order downstream is a property of the
        # program, not of the interpreter's set layout.  A single source
        # needs neither.
        nexts = src_next[pos]
        for src, nxt in zip(srcs, nexts):
            next_use[src] = nxt
        if INFINITY in nexts:
            for src in sorted(set(srcs)) if len(srcs) > 1 else srcs:
                if next_use[src] == INFINITY:
                    free.append(reg_of.pop(src))
                    live -= 1
        if dst is not None and next_use[dst] == INFINITY:
            free.append(reg_of.pop(dst))
            live -= 1

    return AllocationResult(
        insts=out,
        n_regs=n_regs,
        spill_loads=spill_loads,
        spill_stores=spill_stores,
        spill_slots=len(slot_of),
        max_pressure=peak,
        registers_used=len(used),
    )
