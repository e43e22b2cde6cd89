"""Live pressure over straight-line vector traces: the reference MAXLIVE.

Traces arriving here are SSA: every virtual register has exactly one
definition (the strip-mine unroller renames loop-body temporaries per
iteration), so a register's live range is [definition, last use] with no
holes.  :func:`repro.compiler.allocator.allocate` derives the same MAXLIVE
from its own pass (a live counter bumped at each definition and dropped at
each release); this standalone measure is what kernel characterisation
(:func:`repro.compiler.trace.body_pressure`) and the allocator's tests check
against.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

from repro.compiler.trace import TraceOp


def live_pressure(trace: Sequence[TraceOp]) -> List[int]:
    """Number of simultaneously-live registers before each instruction.

    A register is live from its definition until its last use.  The returned
    list has one entry per trace position; ``max(live_pressure(t))`` is the
    MAXLIVE bound that decides whether a configuration with K architectural
    registers can run the trace spill-free.

    Raises:
        ValueError: a register is read before its definition (or never
            defined): the trace is not one the unroller produces.
    """
    last_use: Dict[int, int] = {}
    defined_at: Dict[int, int] = {}
    # (Scalar blocks carry no registers.)
    for idx, (_inst, dst, srcs, _vl, _mem) in enumerate(trace):
        for src in srcs:
            if src not in defined_at:
                raise ValueError(
                    f"register {src} is used before its definition at "
                    f"trace position {idx}")
            last_use[src] = idx
        if dst is not None:
            defined_at[dst] = idx
            # A value that is never read still occupies its register for the
            # defining instruction itself.
            last_use.setdefault(dst, idx)

    events: Dict[int, int] = defaultdict(int)
    for reg, def_idx in defined_at.items():
        events[def_idx] += 1
        events[last_use[reg] + 1] -= 1

    pressure: List[int] = []
    live = 0
    for idx in range(len(trace)):
        live += events.get(idx, 0)
        pressure.append(live)
    return pressure


def max_pressure(trace: Sequence[TraceOp]) -> int:
    """Convenience wrapper: the MAXLIVE of a trace (0 for empty traces)."""
    if not trace:
        return 0
    return max(live_pressure(trace))
