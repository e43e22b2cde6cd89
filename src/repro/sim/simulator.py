"""User-facing simulator API.

Wraps :class:`repro.vpu.pipeline.VectorPipeline` with data initialisation and
a result object, so the common flow is three lines::

    sim = Simulator(ava_config(8), program, functional=True)
    sim.set_data("x", x_values)
    result = sim.run()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from repro.core.config import MachineConfig
from repro.isa.program import Program
from repro.sim.scenario import Scenario
from repro.sim.stats import SimStats
from repro.vpu.pipeline import VectorPipeline

if TYPE_CHECKING:
    import numpy as np


@dataclass
class SimResult:
    """Statistics plus (in functional mode) the final data buffers."""

    stats: SimStats
    data: Dict[str, np.ndarray]

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    def buffer(self, name: str) -> np.ndarray:
        return self.data[name]


class Simulator:
    """One (scenario, program) simulation.

    The first argument is a :class:`~repro.sim.scenario.Scenario` bundling
    machine, timing, memory system and policy, or a bare
    :class:`MachineConfig`, which means ``Scenario(machine=config)`` (paper
    defaults for every other machine axis).  ``sanitize`` is debug
    instrumentation, not a machine axis.
    """

    def __init__(self, config: "MachineConfig | Scenario", program: Program,
                 functional: bool = False, sanitize: bool = False) -> None:
        self.program = program
        self.functional = functional
        self.pipeline = VectorPipeline(config, program, functional=functional,
                                       sanitize=sanitize)
        self.config = self.pipeline.config

    # No engine path calls this; it stays because perfbench's ledger hooks it.
    @classmethod
    def from_trace(cls, config: "MachineConfig | Scenario", trace: dict,
                   functional: bool = False,
                   sanitize: bool = False) -> "Simulator":
        """Replay entry for stored compiled traces.

        ``trace`` is a :class:`repro.compiler.store.TraceStore` payload;
        the program is rebuilt via :meth:`Program.from_dict`, which skips
        ``Program.validate`` — the store's schema gate and content-
        addressed key are the trust boundary for schema-matched traces,
        and replaying must stay much cheaper than recompiling.
        """
        return cls(config, Program.from_dict(trace["program"]),
                   functional=functional, sanitize=sanitize)

    def set_data(self, name: str, values: np.ndarray) -> None:
        """Initialise an application buffer (functional mode only)."""
        self.pipeline.layout.set_data(name, values)

    def warm_caches(self) -> int:
        """Pre-touch every application data line into the L2.

        Models the steady-state region the paper measures (the RiVEC kernels
        iterate over their data many times, so compulsory misses are
        negligible in the reported statistics).  Returns the number of lines
        touched.
        """
        from repro.isa.operands import AddressSpace, MemOperand
        from repro.isa.registers import ELEMENT_BYTES

        touched = 0
        for name, n_elems in self.program.buffers.items():
            base = self.pipeline.layout.base_addr(
                MemOperand(AddressSpace.DATA, name))
            lines = range(base, base + n_elems * ELEMENT_BYTES, 64)
            self.pipeline.memsys.l2.access_lines(lines)
            touched += len(lines)
        self.pipeline.memsys.reset_stats()
        return touched

    def run(self, max_cycles: int = 200_000_000) -> SimResult:
        stats = self.pipeline.run(max_cycles=max_cycles)
        data: Dict[str, np.ndarray] = {}
        if self.functional:
            data = {name: self.pipeline.layout.get_data(name)
                    for name in self.program.buffers}
        return SimResult(stats=stats, data=data)
