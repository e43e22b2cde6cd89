"""Architectural golden model: in-order functional execution.

Executes a program instruction by instruction against an architectural
register file (no renaming, no timing).  Used as the differential oracle for
the pipeline's functional mode: the pipeline must produce exactly the values
the golden model produces, for every destination write and every output
buffer, regardless of how the two-level VRF shuffled data around.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.config import MachineConfig
from repro.isa.instructions import Instruction
from repro.isa.semantics import evaluate_arith
from repro.isa.program import Program
from repro.sim.layout import MemoryLayout


class GoldenExecutor:
    """In-order architectural interpreter."""

    def __init__(self, config: MachineConfig, program: Program) -> None:
        self.config = config
        self.program = program
        self.layout = MemoryLayout(program, config, functional=True)
        self._regs: Dict[int, np.ndarray] = {}
        #: instruction uid -> destination value written (for differential
        #: debugging against the pipeline).
        self.writes: Dict[int, np.ndarray] = {}

    def set_data(self, name: str, values: np.ndarray) -> None:
        self.layout.set_data(name, values)

    def _read(self, reg: int, vl: int) -> np.ndarray:
        buf = self._regs.get(reg)
        if buf is None:
            return np.zeros(vl, dtype=np.float64)
        out = np.zeros(vl, dtype=np.float64)
        n = min(vl, len(buf))
        out[:n] = buf[:n]
        return out

    def _write(self, reg: int, value: np.ndarray, vl: int) -> None:
        buf = self._regs.get(reg)
        if buf is None or len(buf) < self.config.mvl:
            buf = np.zeros(self.config.mvl, dtype=np.float64)
            self._regs[reg] = buf
        buf[:vl] = value[:vl]

    def execute(self, inst: Instruction) -> Optional[np.ndarray]:
        """Execute one instruction; returns the destination value if any."""
        if inst.is_scalar:
            return None
        vl = inst.vl
        if inst.is_arith:
            srcs = [self._read(s, vl) for s in inst.srcs]
            result = evaluate_arith(inst.op, srcs, inst.scalar, vl)
            assert inst.dst is not None
            self._write(inst.dst, result, vl)
            self.writes[inst.uid] = result.copy()
            return result
        mem = inst.mem
        assert mem is not None
        if inst.is_load:
            index = self._read(inst.srcs[0], vl) if mem.indexed else None
            value = self.layout.load(mem, vl, index)
            assert inst.dst is not None
            self._write(inst.dst, value, vl)
            self.writes[inst.uid] = value.copy()
            return value
        data = self._read(inst.srcs[0], vl)
        index = self._read(inst.srcs[1], vl) if mem.indexed else None
        self.layout.store(mem, vl, data, index)
        return None

    def run(self) -> Dict[str, np.ndarray]:
        """Execute the whole program; returns the final data buffers."""
        for inst in self.program.insts:
            self.execute(inst)
        return {name: self.layout.get_data(name)
                for name in self.program.buffers}
