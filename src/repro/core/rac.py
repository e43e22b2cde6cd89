"""Register Access Counters (RAC): 3-bit usage counters per VVR (§III.C).

The RAC drives both of AVA's register-management policies:

* **aggressive register reclamation** — a VVR whose count reaches zero has
  been overwritten (it became an old destination) *and* has no outstanding
  readers, so its physical register can be freed early;
* **swap-victim selection** — among P-VRF-resident VVRs, the one with the
  lowest non-zero count is the best candidate to send to the M-VRF.

Update protocol (exactly §III.C):

* at rename: the new destination VVR and every source VVR increment; the old
  destination VVR decrements;
* at commit: every source VVR decrements.

Counters saturate at 7 (3-bit).  A saturated counter stops counting in both
directions until explicitly reset, mirroring a conservative hardware
saturating counter; VVR lifetimes in the evaluated kernels keep counts well
below saturation, and a unit test pins the saturation behaviour.
"""

from __future__ import annotations

from typing import List

#: 3-bit counters.
RAC_MAX = 7


class RegisterAccessCounters:
    """One saturating counter per VVR."""

    __slots__ = ("n_vvr", "_counts", "_saturated")

    def __init__(self, n_vvr: int) -> None:
        self.n_vvr = n_vvr
        self._counts: List[int] = [0] * n_vvr
        self._saturated: List[bool] = [False] * n_vvr

    def count(self, vvr: int) -> int:
        return self._counts[vvr]

    def counts(self) -> List[int]:
        return list(self._counts)

    def increment(self, vvr: int) -> None:
        if self._saturated[vvr]:
            return
        if self._counts[vvr] >= RAC_MAX:
            # Saturation: the counter is no longer trustworthy for this VVR
            # until it is reset (the VVR can then never be reclaimed early or
            # chosen as a swap victim, which is safe).
            self._saturated[vvr] = True
            return
        self._counts[vvr] += 1

    def decrement(self, vvr: int) -> None:
        if self._saturated[vvr]:
            return
        if self._counts[vvr] == 0:
            raise RuntimeError(
                f"RAC underflow on VVR {vvr}: update protocol violated")
        self._counts[vvr] -= 1

    def reset(self, vvr: int) -> None:
        """Zero a counter (used when a VVR returns to the FRL at commit)."""
        self._counts[vvr] = 0
        self._saturated[vvr] = False

    def is_reclaimable(self, vvr: int) -> bool:
        """True when the count is zero and trustworthy."""
        return self._counts[vvr] == 0 and not self._saturated[vvr]
