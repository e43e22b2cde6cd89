"""Workload abstraction: kernel + data + oracle, compiled per configuration.

A :class:`Workload` owns

* a kernel body (built once, in virtual registers),
* its strip-mining shape — total elements, optional fixed Application
  Vector Length (LavaMD2 uses 48 regardless of MVL, §V), scalar loop cost,
* data initialisation and a pure-numpy reference oracle used by the
  functional tests.

:meth:`Workload.compile` lowers the kernel for one machine configuration:
strips of ``min(MVL, fixed_avl)`` elements, register allocation onto the
configuration's architectural register count (32/LMUL under Register
Grouping — where the compiler inserts MVL-wide spill code), producing an
immutable :class:`repro.isa.program.Program`.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.compiler.allocator import AllocationResult, allocate
from repro.compiler.signature import CompileSignature
from repro.compiler.trace import StripSchedule, unroll_kernel
from repro.core.config import MachineConfig
from repro.isa.builder import KernelBody
from repro.isa.instructions import fingerprint_line
from repro.isa.operands import AddressSpace
from repro.isa.program import Program

if TYPE_CHECKING:
    import numpy as np


@dataclass
class CompiledWorkload:
    """A program plus its compilation record.

    ``signature`` rather than a full machine config: compilation reads only
    the (mvl, n_logical) pair, so one compiled workload serves every config
    sharing that signature (NATIVE X4 and AVA X4 replay the same object).
    """

    program: Program
    allocation: AllocationResult
    signature: CompileSignature


class Workload(ABC):
    """One RiVEC application."""

    #: Table IV fields.
    name: str = ""
    domain: str = ""
    model: str = ""

    #: Scaled problem size in elements (strip-mined over the MVL).
    n_elements: int = 4096
    #: Fixed Application Vector Length, or None for vector-length-agnostic.
    fixed_avl: Optional[int] = None
    #: Scalar ALU instructions in the loop control (fed to the scalar model).
    loop_alu_insts: int = 4

    def __init__(self) -> None:
        self._body: Optional[KernelBody] = None

    # -- kernel ---------------------------------------------------------------
    @abstractmethod
    def build_kernel(self) -> KernelBody:
        """Construct the kernel body (called once, cached)."""

    @property
    def body(self) -> KernelBody:
        if self._body is None:
            self._body = self.build_kernel()
        return self._body

    # -- data / oracle -----------------------------------------------------------
    @abstractmethod
    def init_data(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        """The arrays of :attr:`buffers` — exactly those names, lengths and
        order — holding the inputs and output placeholders."""

    @abstractmethod
    def reference(self, data: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Pure-numpy oracle: expected contents of the output buffers."""

    @property
    def buffers(self) -> Dict[str, int]:
        """Buffer name -> element count: the DATA buffers the kernel body
        references, in first-reference order, each ``n_elements`` long.

        The memory layout places buffers in this order, and both the
        compile fingerprint and every compiled :class:`Program` read it, so
        compiling never needs the data.  Override it only for another
        layout order or other sizes.
        """
        return dict.fromkeys(
            (inst.mem.buffer for inst in self.body.insts
             if inst.mem is not None and inst.mem.space is AddressSpace.DATA),
            self.n_elements)

    # -- strip mining -----------------------------------------------------------
    def effective_vl(self, mvl: int) -> int:
        """The vector length one strip executes with on a given machine."""
        if self.fixed_avl is None:
            return mvl
        return min(mvl, self.fixed_avl)

    def schedule(self, config: Union[MachineConfig, CompileSignature]
                 ) -> StripSchedule:
        from repro.scalar.core import loop_scalar_cycles

        vl = self.effective_vl(config.mvl)
        return StripSchedule.for_elements(
            self.n_elements, vl,
            scalar_cycles=loop_scalar_cycles(self.loop_alu_insts))

    # -- compilation ------------------------------------------------------------
    def compile_fingerprint(self) -> str:
        """Content hash of everything :meth:`compile` reads from *this side*.

        Kernel body (exact, uids excluded), strip-mining shape and buffer
        layout; together with a :class:`CompileSignature` this pins the
        compiled program completely, so it is the workload half of the
        cell key's compile inputs.  Two instances producing the same
        fingerprint compile byte-identical programs.
        """
        body = self.body
        parts = [f"{self.name}|n={self.n_elements}|avl={self.fixed_avl}"
                 f"|alu={self.loop_alu_insts}|pre={body.n_preamble}"
                 f"|vregs={body.n_vregs}\n"]
        for name, n_elems in sorted(self.buffers.items()):
            parts.append(f"buf {name}:{n_elems}\n")
        parts.extend(fingerprint_line(inst) for inst in body.insts)
        return hashlib.sha256("".join(parts).encode()).hexdigest()

    def compile(self, target: Union[MachineConfig, CompileSignature]
                ) -> CompiledWorkload:
        """Lower the kernel for a machine config or its compile signature.

        Only the signature — (mvl, n_logical) — shapes the output; passing
        a full config is a convenience that extracts it first.  Under
        Register Grouping the reduced ``n_logical`` is what makes the
        allocator spill.
        """
        signature = (target if isinstance(target, CompileSignature)
                     else CompileSignature.from_config(target))
        schedule = self.schedule(signature)
        trace = unroll_kernel(self.body, schedule, signature.mvl)
        allocation = allocate(trace, signature.n_logical, signature.mvl)
        program = Program(
            name=f"{self.name}@{signature.label}",
            insts=allocation.insts,
            buffers=self.buffers,
            spill_slots=allocation.spill_slots,
            mvl=signature.mvl,
            logical_regs=allocation.registers_used,
            meta={
                "workload": self.name,
                "iterations": schedule.n_iterations,
                "effective_vl": self.effective_vl(signature.mvl),
                "max_pressure": allocation.max_pressure,
            },
        )
        program.validate(signature.n_logical)
        return CompiledWorkload(program=program, allocation=allocation,
                                signature=signature)

    def describe(self) -> str:
        return (f"{self.name} ({self.domain}, {self.model}): "
                f"{self.n_elements} elements"
                + (f", fixed AVL={self.fixed_avl}" if self.fixed_avl else ""))
