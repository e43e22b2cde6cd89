"""Jacobi2D: 5-point stencil relaxation (HPC / Structured Grids).

One Jacobi sweep over a row-major 2-D grid, vectorised along the flattened
element index exactly like the hand-vectorised RiVEC stencils: the north and
south neighbours are unit-stride loads at element offsets ±row_len, east and
west at ±1.  Out-of-range neighbour loads clamp at the array ends (the
vector unit's boundary behaviour, see :mod:`repro.sim.layout`), and the
numpy oracle mirrors that clamp element by element, so the kernel is
vector-length-agnostic: outputs are identical on every MVL.

Five loads and one store against five adds/multiplies make this the most
memory-bound kernel of the suite after axpy — a direct stressor for the
swap machinery's load/store port contention.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.isa.builder import KernelBody, KernelBuilder
from repro.workloads.base import Workload
from repro.workloads.registry import register_workload

if TYPE_CHECKING:
    import numpy as np

#: Jacobi relaxation weight: the plain 5-point average.
WEIGHT = 0.2


@register_workload
class Jacobi2D(Workload):
    name = "jacobi2d"
    domain = "HPC"
    model = "Structured Grids"
    n_elements = 4096  # a 64 x 64 grid, flattened row-major
    #: Row length of the flattened grid (north/south neighbour stride).
    row_len = 64
    loop_alu_insts = 6  # two address bumps, row bookkeeping, trip count

    def build_kernel(self) -> KernelBody:
        kb = KernelBuilder()
        north = kb.load("grid", offset=-self.row_len)
        west = kb.load("grid", offset=-1)
        centre = kb.load("grid")
        east = kb.load("grid", offset=1)
        south = kb.load("grid", offset=self.row_len)
        total = north + west + centre + east + south
        kb.store(total * WEIGHT, "out")
        return kb.build()

    def init_data(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        import numpy as np
        return {
            "grid": rng.uniform(0.0, 100.0, self.n_elements),
            "out": np.zeros(self.n_elements),
        }

    def reference(self, data: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        import numpy as np
        grid = data["grid"]
        idx = np.arange(len(grid))

        def neighbour(offset: int) -> np.ndarray:
            # Vector loads clamp at the array ends; mirror that exactly.
            return grid[np.clip(idx + offset, 0, len(grid) - 1)]

        total = (neighbour(-self.row_len) + neighbour(-1) + grid
                 + neighbour(1) + neighbour(self.row_len))
        return {"out": total * WEIGHT}
