"""The two-level Vector Register File: P-VRF backed by an M-VRF (§III.B).

The P-VRF is the 8 KB multi-ported SRAM distributed across the eight lanes
(eight 4R/2W 1 KB banks); the M-VRF is a plain memory region reserved via the
``set_virtual_vrf`` intrinsic.  This class models both levels' *state*:

* the value arrays (optional — ``functional=True`` moves real numpy data so
  the swap mechanism's correctness is observable end to end; only a
  functional instance loads numpy, so a timing-only run never imports it),
* the per-VVR valid bits (set to 0 when a VVR is allocated at rename, set to
  1 when the producing instruction completes write-back),
* element read/write counters per level, consumed by the energy model.

Timing is not modelled here; the pipeline charges VRF port occupancy through
the execution model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    import numpy as np


class TwoLevelVRF:
    """Value + valid-bit state for the P-VRF and M-VRF."""

    def __init__(self, n_vvr: int, n_physical: int, mvl: int,
                 functional: bool = False) -> None:
        if functional:
            # Bound module-wide by the first functional instance; the
            # value paths below run only in functional mode.
            global np
            import numpy as np
        self.n_vvr = n_vvr
        self.n_physical = n_physical
        self.mvl = mvl
        self.functional = functional
        self._valid: List[bool] = [True] * n_vvr
        self._pvrf: Dict[int, np.ndarray] = {}
        self._mvrf: Dict[int, np.ndarray] = {}
        # VVRs whose M-VRF home slot holds a valid copy of their value.  A
        # VVR is written exactly once per renaming generation, so once it
        # has been Swap-Stored the copy stays valid until the VVR is freed —
        # evicting such a "clean" VVR again needs no store at all (the
        # dirty-bit optimisation; ablation A4 switches it off).
        self._mvrf_valid: set[int] = set()
        # Renaming generation per VVR, bumped whenever the VVR's value dies
        # (drop_mvrf).  Swap operations are stamped with the generation they
        # serve; a Swap-Store whose generation died in flight must not write
        # the (recycled) VVR's home slot.
        self._generation: List[int] = [0] * n_vvr
        # Energy counters (element granularity).
        self.pvrf_reads = 0
        self.pvrf_writes = 0
        self.mvrf_reads = 0
        self.mvrf_writes = 0
        #: Optional sanitizer probe; swap data movement reports through it.
        self.sanitizer = None

    # -- valid bits -----------------------------------------------------------
    def is_valid(self, vvr: int) -> bool:
        return self._valid[vvr]

    def mark_pending(self, vvr: int) -> None:
        """A new producer was renamed onto ``vvr``: data not yet valid."""
        self._valid[vvr] = False

    def mark_valid(self, vvr: int) -> None:
        """The producer of ``vvr`` completed write-back."""
        self._valid[vvr] = True

    # -- functional value transport ---------------------------------------------
    def write_preg(self, preg: int, value: Optional[np.ndarray],
                   vl: int) -> None:
        """Write ``vl`` elements into a physical register.

        ``value`` may be None in counters-only mode, where only the write
        energy/port accounting matters and no data is transported.
        """
        self.pvrf_writes += vl
        if not self.functional:
            return
        buf = self._pvrf.get(preg)
        if buf is None:
            buf = self._pvrf[preg] = np.zeros(self.mvl, dtype=np.float64)
        assert value is not None, "functional write without a value"
        buf[:vl] = value[:vl]  # converts to float64 in place

    def read_preg(self, preg: int, vl: int) -> Optional[np.ndarray]:
        """Read ``vl`` elements from a physical register."""
        self.pvrf_reads += vl
        if not self.functional:
            return None
        buf = self._pvrf.get(preg)
        if buf is None:
            # Reading a never-written register returns zeros (SRAM reset
            # state); kernels only do this for dont-care lanes.
            return np.zeros(vl, dtype=np.float64)
        return buf[:vl].copy()

    def read_preg_view(self, preg: int, vl: int) -> Optional[np.ndarray]:
        """Zero-copy :meth:`read_preg` for callers that only *read* the
        returned elements before the register is next written (the
        vectorized execute paths); identical counters and values."""
        self.pvrf_reads += vl
        if not self.functional:
            return None
        buf = self._pvrf.get(preg)
        if buf is None:
            return np.zeros(vl, dtype=np.float64)
        return buf[:vl]

    def has_mvrf_copy(self, vvr: int) -> bool:
        """True when the M-VRF already holds this VVR generation's value."""
        return vvr in self._mvrf_valid

    def swap_out(self, vvr: int, preg: int) -> None:
        """Swap-Store data movement: P-reg contents -> M-VRF slot of ``vvr``."""
        self.pvrf_reads += self.mvl
        self.mvrf_writes += self.mvl
        self._mvrf_valid.add(vvr)
        if self.sanitizer is not None:
            self.sanitizer.on_swap_out(vvr, preg)
        if not self.functional:
            return
        buf = self._pvrf.get(preg)
        self._mvrf[vvr] = (buf.copy() if buf is not None
                           else np.zeros(self.mvl, dtype=np.float64))

    def swap_in(self, vvr: int, preg: int) -> None:
        """Swap-Load data movement: M-VRF slot of ``vvr`` -> P-reg."""
        self.mvrf_reads += self.mvl
        self.pvrf_writes += self.mvl
        if self.sanitizer is not None:
            self.sanitizer.on_swap_in(vvr, preg)
        if not self.functional:
            return
        data = self._mvrf.get(vvr)
        self._pvrf[preg] = (data.copy() if data is not None
                            else np.zeros(self.mvl, dtype=np.float64))

    def generation(self, vvr: int) -> int:
        """Current renaming generation of a VVR (for swap-op stamping)."""
        return self._generation[vvr]

    def drop_mvrf(self, vvr: int) -> None:
        """The VVR's value died; its M-VRF slot is reusable.

        Bumps the generation so in-flight swap operations stamped with the
        old generation are recognised as dead and squash their data
        movement.
        """
        self._mvrf.pop(vvr, None)
        self._mvrf_valid.discard(vvr)
        self._generation[vvr] += 1
