"""Property-based tests: the register allocator on random SSA traces."""

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Set

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.allocator import AllocationResult, allocate
from repro.compiler.liveness import max_pressure
from repro.isa.instructions import Instruction, Tag
from repro.isa.opcodes import Op
from repro.isa.operands import data_ref, spill_ref
from tests.conftest import trace_ops


@st.composite
def ssa_traces(draw):
    """Random straight-line SSA traces: loads, adds (some reading one value
    twice), stores, and definitions that are never read."""
    n_ops = draw(st.integers(min_value=1, max_value=40))
    trace = []
    defined = []
    vid = 0
    for _ in range(n_ops):
        choice = draw(st.integers(0, 4 if len(defined) >= 2 else 0))
        if choice == 0 or len(defined) < 2:
            trace.append(Instruction(op=Op.VLE, dst=vid, vl=8,
                                     mem=data_ref("x")))
            defined.append(vid)
        elif choice == 1:
            a = draw(st.sampled_from(defined))
            b = draw(st.sampled_from(defined))
            trace.append(Instruction(op=Op.VADD, dst=vid, srcs=(a, b), vl=8))
            defined.append(vid)
        elif choice == 2:
            a = draw(st.sampled_from(defined))
            trace.append(Instruction(op=Op.VADD, dst=vid, srcs=(a, a), vl=8))
            defined.append(vid)
        elif choice == 3:
            # Never read: not added to ``defined``.
            trace.append(Instruction(op=Op.VLE, dst=vid, vl=8,
                                     mem=data_ref("x")))
        else:
            a = draw(st.sampled_from(defined))
            trace.append(Instruction(op=Op.VSE, srcs=(a,), vl=8,
                                     mem=data_ref("x")))
            continue
        vid += 1
    return trace


@given(trace=ssa_traces(), n_regs=st.integers(min_value=4, max_value=32))
@settings(max_examples=80, deadline=None)
def test_allocation_respects_register_supply(trace, n_regs):
    result = allocate(trace_ops(trace), n_regs=n_regs, mvl=16)
    for inst in result.insts:
        for reg in inst.registers:
            assert 0 <= reg < n_regs


@given(trace=ssa_traces(), n_regs=st.integers(min_value=4, max_value=32))
@settings(max_examples=80, deadline=None)
def test_spill_free_iff_pressure_fits(trace, n_regs):
    result = allocate(trace_ops(trace), n_regs=n_regs, mvl=16)
    spill_free = result.spill_loads + result.spill_stores == 0
    if max_pressure(trace_ops(trace)) <= n_regs:
        assert spill_free
    # (The converse — spills imply pressure > supply — holds for Belady on
    # straight-line code:)
    if not spill_free:
        assert max_pressure(trace_ops(trace)) > n_regs


@given(trace=ssa_traces(), n_regs=st.integers(min_value=4, max_value=16))
@settings(max_examples=60, deadline=None)
def test_original_instructions_preserved_in_order(trace, n_regs):
    result = allocate(trace_ops(trace), n_regs=n_regs, mvl=16)
    kept = [i.op for i in result.insts if i.tag is Tag.NORMAL]
    assert kept == [i.op for i in trace]


@given(trace=ssa_traces(), n_regs=st.integers(min_value=4, max_value=16))
@settings(max_examples=60, deadline=None)
def test_dataflow_preserved_through_spills(trace, n_regs):
    """Replaying the allocated trace reproduces the virtual dataflow.

    We interpret both traces symbolically: values are the uid of the
    instruction that produced them; spill slots must transport the same
    value the virtual registers carried.
    """
    result = allocate(trace_ops(trace), n_regs=n_regs, mvl=16)

    # Virtual execution: virtual reg -> producing instruction index.
    virt_values = {}
    store_values = []
    for idx, inst in enumerate(trace):
        if inst.dst is not None:
            virt_values[inst.dst] = idx
        if inst.is_store and inst.tag is Tag.NORMAL:
            store_values.append(virt_values[inst.srcs[0]])

    # Physical execution with spill slots.
    regs = {}
    slots = {}
    phys_stores = []
    normal_idx = 0
    for inst in result.insts:
        if inst.tag is Tag.SPILL:
            if inst.is_store:
                slots[inst.mem.buffer] = regs[inst.srcs[0]]
            else:
                regs[inst.dst] = slots[inst.mem.buffer]
            continue
        src_vals = [regs[s] for s in inst.srcs]
        if inst.is_store:
            phys_stores.append(src_vals[0])
        if inst.dst is not None:
            regs[inst.dst] = normal_idx
        normal_idx += 1

    assert phys_stores == store_values


# ---------------------------------------------------------------------------
# differential check against the previous allocator
# ---------------------------------------------------------------------------
# The oracle below is the allocator as it stood before next use moved into
# per-position arrays and pressure into the allocation pass: a cursor-walking
# next-use table and a separate liveness pass.  The production allocator
# must reproduce it instruction for instruction.
ORACLE_INFINITY = 1 << 60


@dataclass
class NextUse:
    """Per-register use positions, consumed in trace order by a cursor."""

    _positions: Dict[int, List[int]]
    _cursor: Dict[int, int]

    @classmethod
    def analyse(cls, trace) -> "NextUse":
        positions: Dict[int, List[int]] = defaultdict(list)
        for idx, inst in enumerate(trace):
            if inst.is_scalar:
                continue
            for src in inst.srcs:
                positions[src].append(idx)
        return cls(dict(positions), defaultdict(int))

    def peek(self, reg: int, pos: int) -> int:
        """First use of ``reg`` at trace index >= ``pos``."""
        uses = self._positions.get(reg)
        if not uses:
            return ORACLE_INFINITY
        cur = self._cursor[reg]
        while cur < len(uses) and uses[cur] < pos:
            cur += 1
        self._cursor[reg] = cur
        return uses[cur] if cur < len(uses) else ORACLE_INFINITY


@dataclass
class _AllocState:
    free: List[int]
    reg_of: Dict[int, int] = field(default_factory=dict)
    slot_of: Dict[int, int] = field(default_factory=dict)
    stored: Set[int] = field(default_factory=set)
    next_slot: int = 0


def oracle_allocate(trace, n_regs: int, mvl: int) -> AllocationResult:
    if n_regs < 2:
        raise ValueError("allocator needs at least 2 architectural registers")
    next_use = NextUse.analyse(trace)
    state = _AllocState(free=list(range(n_regs - 1, -1, -1)))
    out: List[Instruction] = []
    spill_loads = spill_stores = 0
    used_regs: Set[int] = set()

    def slot_for(vreg: int) -> int:
        if vreg not in state.slot_of:
            state.slot_of[vreg] = state.next_slot
            state.next_slot += 1
        return state.slot_of[vreg]

    def evict_one(pos: int, pinned: Set[int]) -> int:
        nonlocal spill_stores
        best_vreg = -1
        best_dist = -1
        for vreg in state.reg_of:
            if vreg in pinned:
                continue
            dist = next_use.peek(vreg, pos)
            if dist > best_dist:
                best_dist = dist
                best_vreg = vreg
        if best_vreg < 0:
            raise RuntimeError("cannot evict: all registers pinned")
        reg = state.reg_of.pop(best_vreg)
        if best_dist != ORACLE_INFINITY and best_vreg not in state.stored:
            out.append(Instruction(
                op=Op.VSE, srcs=(reg,), vl=mvl,
                mem=spill_ref(slot_for(best_vreg)), tag=Tag.SPILL))
            state.stored.add(best_vreg)
            spill_stores += 1
        return reg

    def take_reg(pos: int, pinned: Set[int]) -> int:
        if state.free:
            return state.free.pop()
        return evict_one(pos, pinned)

    def release_if_dead(vreg: int, pos: int) -> None:
        if (vreg in state.reg_of
                and next_use.peek(vreg, pos) == ORACLE_INFINITY):
            state.free.append(state.reg_of.pop(vreg))

    for pos, inst in enumerate(trace):
        if inst.is_scalar:
            out.append(inst)
            continue
        pinned: Set[int] = set(inst.srcs)
        for src in inst.srcs:
            if src in state.reg_of:
                continue
            if src not in state.stored:
                raise ValueError(f"use of register {src} before definition")
            reg = take_reg(pos, pinned)
            out.append(Instruction(
                op=Op.VLE, dst=reg, vl=mvl,
                mem=spill_ref(state.slot_of[src]), tag=Tag.SPILL))
            spill_loads += 1
            state.reg_of[src] = reg
        mapping = {src: state.reg_of[src] for src in inst.srcs}
        if inst.dst is not None:
            if inst.dst in state.reg_of or inst.dst in state.stored:
                raise ValueError(f"trace is not SSA: {inst.dst} redefined")
            dst_reg = take_reg(pos + 1, pinned)
            mapping[inst.dst] = dst_reg
            state.reg_of[inst.dst] = dst_reg
        out.append(inst.with_operands(
            None if inst.dst is None else mapping[inst.dst],
            tuple(mapping[src] for src in inst.srcs), inst.vl, inst.mem))
        used_regs.update(mapping.values())
        for src in sorted(set(inst.srcs)):
            release_if_dead(src, pos + 1)
        if inst.dst is not None:
            release_if_dead(inst.dst, pos + 1)

    return AllocationResult(
        insts=out, n_regs=n_regs, spill_loads=spill_loads,
        spill_stores=spill_stores, spill_slots=state.next_slot,
        max_pressure=max_pressure(trace_ops(trace)),
        registers_used=len(used_regs))


def _shape(insts):
    return [(i.op, i.dst, i.srcs, i.vl, i.mem, i.tag) for i in insts]


@given(trace=ssa_traces(), n_regs=st.integers(min_value=3, max_value=16),
       mvl=st.sampled_from([8, 64]),
       undefined_read=st.one_of(st.none(), st.integers(0, 40)))
@settings(max_examples=200, deadline=None)
def test_allocator_matches_oracle(trace, n_regs, mvl, undefined_read):
    """Same instructions, same summary, same failures as the oracle; the
    pressure and register count taken from the pass match their
    definitions."""
    if undefined_read is not None:
        # A read of a register no instruction defines, somewhere in the
        # trace: both allocators must reject it the same way.
        trace = list(trace)
        trace.insert(undefined_read % (len(trace) + 1),
                     Instruction(op=Op.VSE, srcs=(1000,), vl=8,
                                 mem=data_ref("x")))
    try:
        expected = oracle_allocate(trace, n_regs, mvl)
    except (ValueError, RuntimeError) as exc:
        with pytest.raises(type(exc)):
            allocate(trace_ops(trace), n_regs, mvl)
        return
    result = allocate(trace_ops(trace), n_regs, mvl)
    assert _shape(result.insts) == _shape(expected.insts)
    assert result.to_dict() == expected.to_dict()
    assert result.max_pressure == max_pressure(trace_ops(trace))
    assert result.registers_used == len(
        {reg for inst in result.insts for reg in inst.registers})
