"""Memory operands: where a vector load/store touches memory.

Addresses are expressed symbolically as (address space, element offset,
element stride) so that programs can be generated before the simulator
assigns concrete base addresses.  The simulator's memory layout
(:class:`repro.sim.layout.MemoryLayout`) resolves spaces to byte addresses;
the cache models then see real addresses.

Three address spaces matter to the paper's statistics:

* ``DATA`` — the application's arrays (VLoad / VStore in Fig. 3),
* ``SPILL`` — compiler spill slots (Spill-Load / Spill-Store), always
  accessed with VL = MVL,
* ``MVRF`` — the Memory Vector Register File backing store used by AVA's
  Swap Mechanism (Swap-Load / Swap-Store), also VL = MVL wide.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class AddressSpace(enum.Enum):
    """Logical region of memory a vector memory operation targets."""

    DATA = "data"
    SPILL = "spill"
    MVRF = "mvrf"


@dataclass(frozen=True, slots=True)
class MemOperand:
    """Symbolic description of a vector memory access.

    Attributes:
        space: which logical region is accessed.
        buffer: name of the array within the region (``"x"``, ``"y"``,
            spill slot names like ``"slot3"``, or ``"mvrf"``).
        base_elem: element offset of element 0 of the access.
        stride: element stride between consecutive vector elements
            (1 = unit-stride). Ignored for indexed accesses.
        indexed: True for gather/scatter; element addresses come from an
            index register at simulation time.
    """

    space: AddressSpace
    buffer: str
    base_elem: int = 0
    stride: int = 1
    indexed: bool = False

    def with_base(self, base_elem: int) -> "MemOperand":
        """Return a copy shifted to a new element offset (strip-mining)."""
        return MemOperand(self.space, self.buffer, base_elem, self.stride,
                          self.indexed)

    def to_dict(self) -> dict:
        """Exact JSON form (every field is an int/str/bool — lossless)."""
        return {"space": self.space.value, "buffer": self.buffer,
                "base_elem": self.base_elem, "stride": self.stride,
                "indexed": self.indexed}

    @classmethod
    def from_dict(cls, data: dict) -> "MemOperand":
        # Direct member-map lookup: trace replay rebuilds one operand per
        # memory instruction and the enum's __call__ protocol was a
        # measurable slice of warm-trace load time.  Unknown names still
        # raise (KeyError) exactly like the constructor form.
        return cls(space=AddressSpace._value2member_map_[data["space"]],
                   buffer=data["buffer"],
                   base_elem=data["base_elem"], stride=data["stride"],
                   indexed=data["indexed"])

    def describe(self) -> str:
        kind = "indexed" if self.indexed else (
            "unit" if self.stride == 1 else f"stride={self.stride}")
        return f"{self.space.value}:{self.buffer}[{self.base_elem}] ({kind})"


def data_ref(buffer: str, base_elem: int = 0, stride: int = 1,
             indexed: bool = False) -> MemOperand:
    """Convenience constructor for application-data operands."""
    return MemOperand(AddressSpace.DATA, buffer, base_elem, stride, indexed)


def spill_ref(slot: int) -> MemOperand:
    """Memory operand for compiler spill slot ``slot`` (always MVL-wide)."""
    return MemOperand(AddressSpace.SPILL, f"slot{slot}")
