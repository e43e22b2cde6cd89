"""Strip-mine unrolling: kernel bodies -> SSA traces of light operand tuples.

Vector-length-agnostic kernels process ``n_elements`` in strips of at most
the effective MVL (Application Vector Length for fixed-VL kernels such as
LavaMD2).  The unroller:

* emits the preamble (hoisted broadcast constants) once, MVL-wide,
* replays the loop body once per strip with fresh SSA ids for body
  temporaries (invariants keep their ids, staying live program-wide),
* rebases data-memory operands to each strip's starting element,
* stamps each instruction with the strip's vector length,
* inserts a scalar-overhead block per iteration modelling ``vsetvl``,
  address bumps and the loop branch on the 2 GHz dual-issue scalar core.

It builds no instruction copies: each trace entry is a :data:`TraceOp`
tuple pointing at its kernel-body instruction, and the register allocator
builds every final instruction once, with its architectural registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.isa.builder import KernelBody
from repro.isa.instructions import Instruction, scalar_block
from repro.isa.operands import AddressSpace, MemOperand


@dataclass(frozen=True)
class Strip:
    """One strip-mine iteration: ``vl`` elements starting at ``start``."""

    start: int
    vl: int


@dataclass
class StripSchedule:
    """The sequence of strips a kernel executes.

    ``scalar_cycles`` is the scalar-core cycle cost charged once per strip
    (loop control); the paper's scalar core is dual-issue at 2 GHz, twice the
    VPU clock, so the simulator halves this figure in VPU cycles.
    """

    strips: List[Strip]
    scalar_cycles: float = 6.0

    @classmethod
    def for_elements(cls, n_elements: int, vl_max: int,
                     scalar_cycles: float = 6.0) -> "StripSchedule":
        """Cover ``n_elements`` in strips of at most ``vl_max`` elements."""
        if n_elements <= 0:
            raise ValueError("n_elements must be positive")
        if vl_max <= 0:
            raise ValueError("vl_max must be positive")
        strips = []
        start = 0
        while start < n_elements:
            vl = min(vl_max, n_elements - start)
            strips.append(Strip(start, vl))
            start += vl
        return cls(strips, scalar_cycles)

    @property
    def n_iterations(self) -> int:
        return len(self.strips)


#: One unrolled instruction, in the light form the allocator consumes: the
#: plain tuple ``(inst, dst, srcs, vl, mem)``.  ``inst`` is the kernel-body
#: instruction (or the strip's scalar block) and supplies the opcode,
#: scalar operand and tag; the rest are this copy's operands, in virtual
#: registers.  The allocator builds each final
#: :class:`~repro.isa.instructions.Instruction` once, from these.  (A
#: plain tuple, not a ``NamedTuple``: CPython specialises unpacking only
#: for exact tuples, and a trace holds one per dynamic instruction.)
TraceOp = Tuple[Instruction, Optional[int], Tuple[int, ...], int,
                Optional[MemOperand]]


def unroll_kernel(body: KernelBody, schedule: StripSchedule,
                  mvl: int) -> List[TraceOp]:
    """Unroll ``body`` over ``schedule`` into a straight-line SSA trace."""
    n_pre = body.n_preamble
    n_body_regs = body.n_vregs - n_pre
    out: List[TraceOp] = [(inst, inst.dst, inst.srcs, mvl, inst.mem)
                          for inst in body.insts[:n_pre]]
    # Loop-body temporaries (id >= n_preamble) move by the per-iteration
    # offset, preamble registers (loop invariants) keep their ids; only
    # data-memory operands move with the strip.
    templates = [(inst, inst.dst is not None and inst.dst >= n_pre,
                  inst.srcs,
                  inst.mem is not None and inst.mem.space is AddressSpace.DATA)
                 for inst in body.insts[n_pre:]]
    for it, strip in enumerate(schedule.strips):
        block = scalar_block(schedule.scalar_cycles)
        out.append((block, None, (), block.vl, None))
        offset = it * n_body_regs
        start = strip.start
        vl = strip.vl
        for inst, dst_shifts, srcs, data_mem in templates:
            mem = inst.mem
            if data_mem:
                mem = mem.with_base(start * mem.stride + mem.base_elem)
            if srcs:
                srcs = tuple([s + offset if s >= n_pre else s for s in srcs])
            out.append((inst, inst.dst + offset if dst_shifts else inst.dst,
                        srcs, vl, mem))
    return out


def body_pressure(body: KernelBody, mvl: int = 16) -> int:
    """MAXLIVE of a kernel body over a two-iteration steady state.

    Two iterations expose cross-iteration pressure from loop invariants; the
    result is what decides which LMUL / AVA configurations spill or swap.
    """
    from repro.compiler.liveness import max_pressure

    schedule = StripSchedule.for_elements(2 * mvl, mvl)
    return max_pressure(unroll_kernel(body, schedule, mvl))
