"""First-level renaming: logical registers -> Virtual Vector Registers.

Implements the paper's §III.A first level: a Register Alias Table (RAT,
6-bit × 32 entries) mapping logical registers to VVRs, and a Free Register
List (FRL) of available VVRs.  A destination rename pops a VVR from the FRL
and records the previous mapping as the *old destination*, which returns to
the FRL when the renaming instruction commits.

The §III.D recovery checkpoint (a retirement copy of the RAT) is not
modelled: no simulated program squashes, so no result could read it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List


class RenameTable:
    """RAT + FRL over ``n_vvr`` virtual vector registers."""

    __slots__ = ("n_logical", "n_vvr", "_rat", "_frl", "sanitizer")

    def __init__(self, n_logical: int, n_vvr: int) -> None:
        if n_vvr < n_logical:
            raise ValueError("need at least one VVR per logical register")
        self.n_logical = n_logical
        self.n_vvr = n_vvr
        # Identity initial mapping; the remaining VVRs start free.
        self._rat: List[int] = list(range(n_logical))
        self._frl: Deque[int] = deque(range(n_logical, n_vvr))
        #: Optional sanitizer probe; destination renames report through it.
        self.sanitizer = None

    # -- queries ---------------------------------------------------------------
    @property
    def free_count(self) -> int:
        return len(self._frl)

    def mapping(self) -> List[int]:
        return list(self._rat)

    # -- rename ------------------------------------------------------------------
    def can_rename_dst(self) -> bool:
        return bool(self._frl)

    def rename_sources(self, logicals: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self._rat[l] for l in logicals)

    def rename_destination(self, logical: int) -> tuple[int, int]:
        """Allocate a fresh VVR for ``logical``.

        Returns ``(new_vvr, old_vvr)``; raises if the FRL is empty (callers
        check :meth:`can_rename_dst` first — an empty FRL stalls the scalar
        core, which is precisely the RG-LMUL8 pathology of §II).
        """
        if not self._frl:
            raise RuntimeError("FRL empty: rename must stall")
        old = self._rat[logical]
        new = self._frl.popleft()
        self._rat[logical] = new
        if self.sanitizer is not None:
            self.sanitizer.on_rename()
        return new, old

    # -- commit ------------------------------------------------------------------
    def commit(self, old_vvr: int) -> None:
        """Retire a destination rename: its old VVR returns to the FRL."""
        self._frl.append(old_vvr)

    def live_vvrs(self) -> set[int]:
        """VVRs currently mapped by the speculative RAT."""
        return set(self._rat)
