"""Memory layout: symbolic operands -> byte addresses (+ functional data).

Three regions are laid out back to back, 64-byte aligned:

* application **DATA** buffers (declared by the program),
* compiler **SPILL** slots, each MVL elements wide,
* the **M-VRF** — one MVL-wide home slot per VVR, reserved like the paper's
  ``set_virtual_vrf`` intrinsic does with a malloc'd region.

With ``functional=True`` the layout also owns the numpy arrays behind the
DATA and SPILL regions, so loads/stores move real values and workloads can
verify results against a pure-numpy reference.  Only a functional layout
loads numpy: a timing-only run resolves addresses and never imports it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.core.config import MachineConfig
from repro.isa.operands import AddressSpace, MemOperand
from repro.isa.program import Program
from repro.isa.registers import ELEMENT_BYTES

if TYPE_CHECKING:
    import numpy as np

#: Base byte address of the layout (arbitrary, nonzero to catch bugs).
LAYOUT_BASE = 0x1_0000
_LINE = 64
# Bound once: address resolution runs per vector memory uop, and a module
# global is cheaper than an enum class-attribute load on CPython 3.11.
_DATA = AddressSpace.DATA
_SPILL = AddressSpace.SPILL
_MVRF = AddressSpace.MVRF


def _align(addr: int, alignment: int = _LINE) -> int:
    return (addr + alignment - 1) // alignment * alignment


def _clamp(idx: np.ndarray, hi: int) -> np.ndarray:
    """``np.clip(idx, 0, hi)`` in place on a fresh integer array, without
    ``np.clip``'s Python-level dispatch (it runs per gather/strided access
    in functional mode)."""
    np.maximum(idx, 0, out=idx)
    return np.minimum(idx, hi, out=idx)


class MemoryLayout:
    """Address assignment and (optional) functional backing store."""

    def __init__(self, program: Program, config: MachineConfig,
                 functional: bool = False) -> None:
        if functional:
            # Bound module-wide by the first functional layout; the data
            # paths below run only in functional mode.
            global np
            import numpy as np
        self.program = program
        self.config = config
        self.functional = functional
        self._data_base: Dict[str, int] = {}
        self._data: Dict[str, np.ndarray] = {}
        self._spill: Dict[int, np.ndarray] = {}

        addr = LAYOUT_BASE
        for name, n_elems in program.buffers.items():
            self._data_base[name] = addr
            addr = _align(addr + n_elems * ELEMENT_BYTES)
            if functional:
                self._data[name] = np.zeros(n_elems, dtype=np.float64)
        self._spill_base = addr
        # Declared spill-slot operand names ("slotN" -> N), so resolving a
        # spill address parses no string.
        self._spill_slots = {f"slot{i}": i
                             for i in range(program.spill_slots)}
        addr = _align(addr + program.spill_slots * config.mvl * ELEMENT_BYTES)
        self._mvrf_base = addr
        self.total_bytes = (addr + config.n_vvr * config.mvl * ELEMENT_BYTES
                            - LAYOUT_BASE)

    # -- address resolution ---------------------------------------------------
    def base_addr(self, mem: MemOperand) -> int:
        """Byte address of element 0 of a memory operand."""
        space = mem.space
        if space is _DATA:
            base = self._data_base.get(mem.buffer)
            if base is None:
                raise KeyError(f"program declares no buffer {mem.buffer!r}")
            return base + mem.base_elem * ELEMENT_BYTES
        if space is _SPILL:
            slot = self._slot_index(mem.buffer)
            return (self._spill_base
                    + (slot * self.config.mvl + mem.base_elem) * ELEMENT_BYTES)
        # M-VRF: base_elem already encodes vvr * mvl.
        return self._mvrf_base + mem.base_elem * ELEMENT_BYTES

    def mvrf_operand(self, vvr: int) -> MemOperand:
        """The home M-VRF slot of a VVR, as a unit-stride operand."""
        return MemOperand(_MVRF, "mvrf",
                          base_elem=vvr * self.config.mvl)

    def _slot_index(self, buffer: str) -> int:
        slot = self._spill_slots.get(buffer)
        if slot is None:
            raise KeyError(f"not a declared spill slot: {buffer!r}")
        return slot

    # -- functional data -------------------------------------------------------
    def set_data(self, name: str, values: np.ndarray) -> None:
        if not self.functional:
            raise RuntimeError("layout is not functional")
        buf = self._data.get(name)
        if buf is None:
            raise KeyError(f"program declares no buffer {name!r}")
        if len(values) != len(buf):
            raise ValueError(
                f"buffer {name!r} holds {len(buf)} elements, got "
                f"{len(values)}")
        buf[:] = np.asarray(values, dtype=np.float64)

    def get_data(self, name: str) -> np.ndarray:
        if not self.functional:
            raise RuntimeError("layout is not functional")
        return self._data[name].copy()

    def load(self, mem: MemOperand, vl: int,
             index: Optional[np.ndarray] = None) -> np.ndarray:
        """Functionally read ``vl`` elements described by ``mem``."""
        if mem.space is _SPILL:
            slot = self._slot_index(mem.buffer)
            data = self._spill.get(slot)
            if data is None:
                return np.zeros(vl, dtype=np.float64)
            return data[:vl].copy()
        buf = self._data[mem.buffer]
        if mem.indexed:
            assert index is not None, "indexed load needs index values"
            idx = _clamp(index[:vl].astype(np.int64), len(buf) - 1)
            return buf[idx]  # fancy indexing copies
        idx = _clamp(mem.base_elem + np.arange(vl) * mem.stride, len(buf) - 1)
        return buf[idx]  # fancy indexing copies

    def load_view(self, mem: MemOperand, vl: int) -> np.ndarray:
        """Zero-copy :meth:`load` for read-only consumers.

        Returns a view of the backing buffer when the access is a plain
        in-bounds unit-stride window (or a spill-slot read); falls back to
        :meth:`load` for gathers, strided accesses and clamped tails.
        """
        if mem.space is _SPILL:
            slot = self._slot_index(mem.buffer)
            data = self._spill.get(slot)
            if data is None:
                return np.zeros(vl, dtype=np.float64)
            return data[:vl]
        if not mem.indexed and mem.stride == 1:
            buf = self._data[mem.buffer]
            base = mem.base_elem
            if 0 <= base and base + vl <= len(buf):
                return buf[base:base + vl]
        return self.load(mem, vl)

    def store(self, mem: MemOperand, vl: int, data: np.ndarray,
              index: Optional[np.ndarray] = None) -> None:
        """Functionally write ``vl`` elements described by ``mem``."""
        if mem.space is _SPILL:
            slot = self._slot_index(mem.buffer)
            arr = self._spill.setdefault(
                slot, np.zeros(self.config.mvl, dtype=np.float64))
            arr[:vl] = data[:vl]
            return
        buf = self._data[mem.buffer]
        if mem.indexed:
            assert index is not None, "indexed store needs index values"
            idx = _clamp(index[:vl].astype(np.int64), len(buf) - 1)
            buf[idx] = data[:vl]
            return
        base = mem.base_elem
        if mem.stride == 1 and 0 <= base and base + vl <= len(buf):
            buf[base:base + vl] = data[:vl]
            return
        idx = base + np.arange(vl) * mem.stride
        keep = idx < len(buf)
        buf[_clamp(idx, len(buf) - 1)[keep]] = data[:vl][keep]
