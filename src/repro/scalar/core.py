"""Dual-issue in-order scalar-core cost model.

The paper's scalar core (Table II) is a 64-bit dual-issue in-order RISC-V
pipeline at 2 GHz.  For the vector kernels evaluated, its only first-order
contribution to runtime is the per-iteration loop control: ``vsetvl``,
address bumps for each streamed buffer, the trip-count decrement and the
back edge.  This module converts that instruction shape into scalar cycles,
assuming IPC 2 for independent ALU work, one cycle per taken branch, and an
L1-hit latency for scalar loads (cold misses are second-order for the
strip-mine loops and are ignored).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LoopOverhead:
    """The scalar loop-control shape of one strip-mine iteration."""

    alu_insts: int = 4  # address bumps, trip-count update, vsetvl result use
    has_vsetvl: bool = True
    loads: int = 0  # scalar loads (e.g. parameter refetch)
    taken_branch: bool = True


@dataclass(frozen=True)
class ScalarCoreModel:
    """Cycle-cost model for the 2 GHz dual-issue in-order scalar core."""

    issue_width: int = 2
    branch_cycles: int = 1
    vsetvl_cycles: int = 1
    l1_load_latency: int = 4

    def loop_cycles(self, overhead: LoopOverhead) -> float:
        """Scalar cycles one loop iteration's control code costs."""
        alu = math.ceil(overhead.alu_insts / self.issue_width)
        cycles = float(alu)
        if overhead.has_vsetvl:
            cycles += self.vsetvl_cycles
        if overhead.taken_branch:
            cycles += self.branch_cycles
        # Dual issue hides some load latency; charge half of it beyond the
        # first cycle, a standard in-order approximation.
        cycles += overhead.loads * (1 + (self.l1_load_latency - 1) / 2)
        return cycles


#: Default model used by the workloads.
DEFAULT_SCALAR_MODEL = ScalarCoreModel()


def loop_scalar_cycles(alu_insts: int = 4, loads: int = 0) -> float:
    """Convenience wrapper: scalar cycles for a typical strip-mine loop."""
    return DEFAULT_SCALAR_MODEL.loop_cycles(
        LoopOverhead(alu_insts=alu_insts, loads=loads))
