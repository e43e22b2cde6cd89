"""StreamCluster: nearest-centre distance kernel (Data Mining).

The inner loop of PARSEC/RiVEC streamcluster's gain computation: every point
measures its squared Euclidean distance to each of the K candidate centres
(hoisted as loop-invariant broadcast registers, like the hand-vectorised
kernel keeps the centre coordinates resident), reduces to the nearest one
with an element-wise min tree, and conditionally re-assigns when that beats
the point's current assignment cost:

    d_k    = (px - cx_k)^2 + (py - cy_k)^2        for k in 0..K-1
    dmin   = min_k d_k
    assign = dmin < cost
    cost'  = assign ? dmin : cost

A per-strip ``vredsum`` over ``dmin`` additionally exercises the reduction
unit and its renaming path on every strip.  Its broadcast result re-enters
the dataflow through a self-cancelling term (``t - t``, exactly 0.0 for the
finite distances this kernel produces), so the stored outputs stay
independent of how the machine strips the loop — the kernel remains
vector-length-agnostic and the numpy oracle is exact on every MVL, while
the reduction still occupies the pipeline, the scoreboard and a renamed
destination register each iteration.

The 2·K hoisted centre coordinates push the live pressure into the range
where small Register-Grouping configurations spill, making this a second
high-pressure application next to Blackscholes/Swaptions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.isa.builder import KernelBody, KernelBuilder
from repro.workloads.base import Workload
from repro.workloads.registry import register_workload

if TYPE_CHECKING:
    import numpy as np

#: The K candidate centres (fixed across the sweep, like one streamcluster
#: speedy() round evaluates a fixed candidate set).
CENTRES = (
    (-0.75, -0.50),
    (0.25, 0.90),
    (0.80, -0.35),
    (-0.10, 0.40),
)


@register_workload
class StreamCluster(Workload):
    name = "streamcluster"
    domain = "Data Mining"
    model = "Dense Linear Algebra"
    n_elements = 4096
    loop_alu_insts = 6

    def build_kernel(self) -> KernelBody:
        kb = KernelBuilder()
        centres = [(kb.const(cx), kb.const(cy)) for cx, cy in CENTRES]
        px = kb.load("px")
        py = kb.load("py")
        cost = kb.load("cost")
        dmin = None
        for cx, cy in centres:
            dx = px - cx
            dy = py - cy
            d = kb.fmadd(dx, dx, dy * dy)
            dmin = d if dmin is None else kb.vmin(dmin, d)
        assert dmin is not None
        # Reduction-unit stressor whose stored effect cancels exactly (see
        # module docstring): t - t == 0.0 for finite t.
        total = kb.redsum(dmin)
        dmin = dmin + (total - total)
        assign = kb.lt(dmin, cost)
        new_cost = kb.merge(assign, dmin, cost)
        kb.store(dmin, "dist")
        kb.store(assign, "assign")
        kb.store(new_cost, "outc")
        return kb.build()

    def init_data(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        import numpy as np
        n = self.n_elements
        return {
            "px": rng.uniform(-1.0, 1.0, n),
            "py": rng.uniform(-1.0, 1.0, n),
            "cost": rng.uniform(0.05, 2.0, n),
            "dist": np.zeros(n),
            "assign": np.zeros(n),
            "outc": np.zeros(n),
        }

    def reference(self, data: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        import numpy as np
        px = data["px"]
        py = data["py"]
        cost = data["cost"]
        dmin = None
        for cx, cy in CENTRES:
            dx = px - cx
            dy = py - cy
            d = dx * dx + dy * dy
            dmin = d if dmin is None else np.minimum(dmin, d)
        assert dmin is not None
        assign = (dmin < cost).astype(np.float64)
        new_cost = np.where(assign != 0.0, dmin, cost)
        return {"dist": dmin, "assign": assign, "outc": new_cost}
