"""The compile signature: the machine-side inputs compilation actually reads.

:meth:`repro.workloads.base.Workload.compile` lowers a kernel through the
strip-mine unroller and the register allocator reading exactly two fields
of the target :class:`~repro.core.config.MachineConfig`:

* ``mvl`` — strip width, spill-code vector length, preamble VL,
* ``n_logical`` — the architectural register supply the allocator packs
  onto (32, or 32/LMUL under Register Grouping).

Everything else on a machine config — physical VRF size, VVR count, lane
count, timing, the NATIVE/AVA mode flag — is simulation-side: it shapes how
a program *executes*, never the program itself.  NATIVE X4 and AVA X4
therefore compile the identical program, and a timing × memory × policy
sensitivity grid over them needs exactly one compile per (mvl, n_logical).

:class:`CompileSignature` makes that contract explicit.  The executor runs
one job, and so one compile, per (workload, signature) pair of a batch's
misses; the signature's fields reach the cell key through the scenario's
machine config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.config import MachineConfig


@dataclass(frozen=True)
class CompileSignature:
    """The (mvl, n_logical) pair that fully determines a compiled program."""

    mvl: int
    n_logical: int

    def __post_init__(self) -> None:
        if self.mvl <= 0:
            raise ValueError("mvl must be positive")
        if self.n_logical < 2:
            raise ValueError("the allocator needs at least 2 registers")

    @classmethod
    def from_config(cls, config: "MachineConfig") -> "CompileSignature":
        return cls(mvl=config.mvl, n_logical=config.n_logical)

    @property
    def label(self) -> str:
        """Stable human-readable form, used in program names: ``mvl64r32``."""
        return f"mvl{self.mvl}r{self.n_logical}"

    def to_dict(self) -> Dict[str, int]:
        return {"mvl": self.mvl, "n_logical": self.n_logical}

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "CompileSignature":
        return cls(mvl=int(data["mvl"]), n_logical=int(data["n_logical"]))
