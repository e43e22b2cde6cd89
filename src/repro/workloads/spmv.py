"""SpMV: sparse matrix-vector product in ELLPACK form (Sparse Algebra).

The RiVEC sparse kernel: every row holds exactly ``NNZ_PER_ROW`` nonzeros,
stored column-major as (column-index, value) streams, so one strip computes

    y[i] = sum_k  val_k[i] * x[col_k[i]]

with a unit-stride load per stream and an **indexed gather** per term — the
memory path the Table-IV suite barely touches (ParticleFilter issues one
gather per strip; SpMV issues four, fed by loaded rather than computed
indices).  Over three quarters of the vector instructions are memory
operations, most of them indexed, which makes this the suite's dedicated
stressor for the VMU's element-granular address path.

Column indices are materialised as float64 (the register file's element
type); the gather truncates them back to integers, exactly as the oracle
does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.isa.builder import KernelBody, KernelBuilder
from repro.workloads.base import Workload
from repro.workloads.registry import register_workload

if TYPE_CHECKING:
    import numpy as np

#: Nonzeros per matrix row (the ELL width).
NNZ_PER_ROW = 4


@register_workload
class SpMV(Workload):
    name = "spmv"
    domain = "Sparse Algebra"
    model = "Sparse Linear Algebra"
    n_elements = 4096
    loop_alu_insts = 7  # per-stream address bumps, trip count, vsetvl input

    def build_kernel(self) -> KernelBody:
        kb = KernelBuilder()
        acc = None
        for k in range(NNZ_PER_ROW):
            col = kb.load(f"col{k}")
            val = kb.load(f"val{k}")
            term_x = kb.gather("x", col)
            acc = val * term_x if acc is None else kb.fmadd(val, term_x, acc)
        assert acc is not None
        kb.store(acc, "y")
        return kb.build()

    @property
    def buffers(self) -> Dict[str, int]:
        """Keeps the layout order the kernel's first references would
        change (it gathers from ``x`` only after loading ``col0``/``val0``)."""
        names = ["x", "y"] + [f"{stream}{k}" for k in range(NNZ_PER_ROW)
                              for stream in ("col", "val")]
        return dict.fromkeys(names, self.n_elements)

    def init_data(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        import numpy as np
        n = self.n_elements
        data: Dict[str, np.ndarray] = {
            "x": rng.standard_normal(n),
            "y": np.zeros(n),
        }
        for k in range(NNZ_PER_ROW):
            data[f"col{k}"] = rng.integers(0, n, n).astype(np.float64)
            data[f"val{k}"] = rng.standard_normal(n)
        return data

    def reference(self, data: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        import numpy as np
        x = data["x"]
        y = None
        for k in range(NNZ_PER_ROW):
            idx = data[f"col{k}"].astype(np.int64)
            term = data[f"val{k}"] * x[idx]
            y = term if y is None else y + term
        assert y is not None
        return {"y": y}
