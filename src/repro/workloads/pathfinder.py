"""Pathfinder: dynamic-programming row sweep (Grid Traversal).

One row of Rodinia/RiVEC pathfinder's bottom-up dynamic program: the cost of
reaching each cell is its own weight plus the cheapest of the three
neighbouring cells in the previously solved row,

    dst[i] = wall[i] + min(src[i-1], src[i], src[i+1]).

The neighbour loads are unit-stride at element offsets ±1 and clamp at the
row ends (the vector unit's boundary behaviour), which is also how the real
kernel handles the first and last column.  Reading from ``src`` and writing
to ``out`` keeps every strip independent, so the kernel is
vector-length-agnostic and the numpy oracle is exact on every MVL.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.isa.builder import KernelBody, KernelBuilder
from repro.workloads.base import Workload
from repro.workloads.registry import register_workload

if TYPE_CHECKING:
    import numpy as np


@register_workload
class Pathfinder(Workload):
    name = "pathfinder"
    domain = "Grid Traversal"
    model = "Dynamic Programming"
    n_elements = 4096
    loop_alu_insts = 5  # two address bumps, trip count, vsetvl input

    def build_kernel(self) -> KernelBody:
        kb = KernelBuilder()
        left = kb.load("src", offset=-1)
        mid = kb.load("src")
        right = kb.load("src", offset=1)
        wall = kb.load("wall")
        best = kb.vmin(kb.vmin(left, mid), right)
        kb.store(best + wall, "out")
        return kb.build()

    def init_data(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        import numpy as np
        n = self.n_elements
        return {
            "src": rng.uniform(0.0, 50.0, n),
            "wall": rng.uniform(1.0, 10.0, n),
            "out": np.zeros(n),
        }

    def reference(self, data: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        import numpy as np
        src = data["src"]
        idx = np.arange(len(src))
        left = src[np.clip(idx - 1, 0, len(src) - 1)]
        right = src[np.clip(idx + 1, 0, len(src) - 1)]
        best = np.minimum(np.minimum(left, src), right)
        return {"out": best + data["wall"]}
