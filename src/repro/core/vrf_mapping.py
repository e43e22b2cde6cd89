"""Second-level mapping: VVRs -> physical / memory registers (§III.A).

Three structures, exactly as the paper lays them out:

* **PRMT** (Physical Register Mapping Table, 6-bit × 64): which physical
  register currently holds each VVR (meaningful only while the VRLT says the
  VVR is physical);
* **VRLT** (Vector Register Location Table, 1-bit × 64): 1 = the VVR lives
  in the P-VRF, 0 = it lives in the M-VRF (or holds no mapping yet);
* **PFRL** (Physical Free Register List): free physical registers.

This module owns only the mapping state; *policy* (who gets evicted, when
swaps are generated) lives in :mod:`repro.core.swap` and the pre-issue stage.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional


class VRFMapping:
    """PRMT + VRLT + PFRL over ``n_vvr`` VVRs and ``n_physical`` P-regs."""

    __slots__ = ("n_vvr", "n_physical", "vvr_version", "stamp", "_prmt",
                 "_vrlt", "_pfrl", "_owner", "_in_mvrf", "sanitizer")

    def __init__(self, n_vvr: int, n_physical: int) -> None:
        if n_physical < 1:
            raise ValueError("need at least one physical register")
        if n_physical > n_vvr:
            raise ValueError("more physical registers than VVRs is senseless")
        self.n_vvr = n_vvr
        self.n_physical = n_physical
        #: Per-VVR residency version, bumped by every transition method
        #: here (allocate / evict / release); the pipeline memoizes stalled
        #: probes against exactly the VVRs they depend on.  Versions only
        #: ever increase, so a sum over a fixed VVR set is unchanged iff
        #: every member is unchanged.  The scheduler's inlined allocate and
        #: release bump it only on a two-level machine: a single-level one
        #: never moves a uop's sources, so nothing there reads it.
        self.vvr_version: List[int] = [0] * n_vvr
        #: Global transition counter, bumped wherever a version is (any
        #: VVR's allocate / evict / release).  An unchanged stamp proves
        #: every per-VVR version sum is unchanged, so the scheduler can
        #: revalidate whole memoized stall outcomes in O(1) instead of
        #: re-summing versions over each uop's source set.
        self.stamp: int = 0
        self._prmt: List[Optional[int]] = [None] * n_vvr
        self._vrlt: List[bool] = [False] * n_vvr
        self._pfrl: Deque[int] = deque(range(n_physical))
        # Reverse map for O(1) "which VVR occupies P-reg p".
        self._owner: List[Optional[int]] = [None] * n_physical
        # VRLT == 0 is ambiguous between "lives in the M-VRF" and "holds no
        # mapping at all"; the hardware knows the difference because only
        # evicted VVRs have M-VRF contents.  Track it explicitly.
        self._in_mvrf: List[bool] = [False] * n_vvr
        #: Optional :class:`~repro.analysis.sanitizer.PipelineSanitizer`
        #: probe; every residency transition reports through it when set.
        self.sanitizer = None

    # -- queries -----------------------------------------------------------------
    @property
    def free_count(self) -> int:
        return len(self._pfrl)

    def in_pvrf(self, vvr: int) -> bool:
        return self._vrlt[vvr]

    def in_mvrf(self, vvr: int) -> bool:
        """True when the VVR's live value sits in the M-VRF (was evicted)."""
        return self._in_mvrf[vvr]

    def preg_of(self, vvr: int) -> int:
        if not self._vrlt[vvr]:
            raise KeyError(f"VVR {vvr} is not mapped in the P-VRF")
        preg = self._prmt[vvr]
        assert preg is not None
        return preg

    def owner_of(self, preg: int) -> Optional[int]:
        return self._owner[preg]

    def resident_vvrs(self) -> List[int]:
        """All VVRs currently mapped in the P-VRF, in ascending order.

        Walks the ``n_physical`` owner entries, not all ``n_vvr`` VVRs:
        the Swap Logic asks once per physical register it frees."""
        return sorted([v for v in self._owner if v is not None])

    # -- transitions -----------------------------------------------------------------
    def allocate(self, vvr: int) -> int:
        """Map ``vvr`` onto a free physical register (PFRL pop)."""
        if not self._pfrl:
            raise RuntimeError("PFRL empty: caller must free a register first")
        if self._vrlt[vvr]:
            raise RuntimeError(f"VVR {vvr} is already mapped in the P-VRF")
        preg = self._pfrl.popleft()
        self._prmt[vvr] = preg
        self._vrlt[vvr] = True
        self._in_mvrf[vvr] = False
        self._owner[preg] = vvr
        self.vvr_version[vvr] += 1
        self.stamp += 1
        if self.sanitizer is not None:
            self.sanitizer.on_map_alloc(vvr, preg)
        return preg

    def evict(self, vvr: int) -> int:
        """Unmap ``vvr`` (it moves to the M-VRF); frees and returns its P-reg."""
        preg = self.preg_of(vvr)
        self._vrlt[vvr] = False
        self._in_mvrf[vvr] = True
        self._prmt[vvr] = None
        self._owner[preg] = None
        self._pfrl.append(preg)
        self.vvr_version[vvr] += 1
        self.stamp += 1
        if self.sanitizer is not None:
            self.sanitizer.on_map_evict(vvr, preg)
        return preg

    def release(self, vvr: int) -> Optional[int]:
        """Drop any mapping ``vvr`` holds (VVR freed / value dead).

        Returns the freed physical register, or None if the VVR was in the
        M-VRF (its backing slot simply becomes reusable).
        """
        if not self._vrlt[vvr]:
            self._prmt[vvr] = None
            self._in_mvrf[vvr] = False
            self.vvr_version[vvr] += 1
            self.stamp += 1
            if self.sanitizer is not None:
                self.sanitizer.on_map_release(vvr, None)
            return None
        # A resident VVR: evict and drop in one frame (this runs once per
        # committed destination).  The sanitizer sees the evicted state
        # first, then the released one, as an evict() call would show it.
        preg = self._prmt[vvr]
        self._vrlt[vvr] = False
        self._prmt[vvr] = None
        self._owner[preg] = None
        self._pfrl.append(preg)
        self.vvr_version[vvr] += 1
        self.stamp += 1
        if self.sanitizer is not None:
            self._in_mvrf[vvr] = True
            self.sanitizer.on_map_evict(vvr, preg)
            self._in_mvrf[vvr] = False
            self.sanitizer.on_map_release(vvr, preg)
        else:
            self._in_mvrf[vvr] = False
        return preg

    def invariant_check(self) -> None:
        """Structural consistency (used by tests and debug runs)."""
        mapped = [v for v in range(self.n_vvr) if self._vrlt[v]]
        pregs = [self._prmt[v] for v in mapped]
        if len(set(pregs)) != len(pregs):
            raise AssertionError("two VVRs share a physical register")
        for v in mapped:
            p = self._prmt[v]
            assert p is not None
            if self._owner[p] != v:
                raise AssertionError("owner map out of sync with PRMT")
        if len(mapped) + len(self._pfrl) != self.n_physical:
            raise AssertionError("mapped + free registers != total registers")
