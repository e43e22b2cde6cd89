"""The Swap Logic: choosing which VVR leaves the P-VRF (§III.C).

Given the RAC counters and the current residency, the Swap Logic selects the
victim VVR to send to the M-VRF when a physical register is needed:

1. prefer **aggressive reclamation** — any resident VVR with RAC == 0 whose
   value is architecturally dead can release its register without a
   Swap-Store (no data movement at all);
2. otherwise pick the resident VVR with the **lowest positive RAC count**
   ("1 is the lowest count for swaps"), excluding
   * the current instruction's source and destination VVRs (the paper's
     deadlock-avoidance rule), and
   * VVRs whose value is not yet valid (an in-flight producer has not
     written them; storing them would ship garbage to the M-VRF).

Victim-selection policy is pluggable so the A1 ablation can compare the
paper's RAC-guided choice against FIFO and round-robin eviction.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

if TYPE_CHECKING:
    from repro.core.rac import RegisterAccessCounters
    from repro.core.vrf import TwoLevelVRF
    from repro.core.vrf_mapping import VRFMapping


class VictimPolicy(enum.Enum):
    """Eviction policies for the A1 ablation."""

    RAC_MIN = "rac-min"  # the paper's policy
    FIFO = "fifo"  # oldest resident mapping
    ROUND_ROBIN = "round-robin"  # rotating pointer, ignores usage


class SwapLogic:
    """Victim selection and reclamation scans over the P-VRF residents."""

    def __init__(self, mapping: VRFMapping, rac: RegisterAccessCounters,
                 vrf: TwoLevelVRF,
                 policy: VictimPolicy = VictimPolicy.RAC_MIN) -> None:
        self.mapping = mapping
        self.rac = rac
        self.vrf = vrf
        self.policy = policy
        # FIFO policy state: an insertion-ordered dict used as an ordered
        # set, so releases are O(1) dict pops instead of O(n) list removes
        # (long-resident grids used to pay quadratic cost on the release
        # path).  Iteration order == allocation order, same as the list it
        # replaces.
        self._allocation_order: dict[int, None] = {}
        self._rr_pointer = 0
        #: Decisions a VVR id settled (a victim whose rank ties without
        #: it, a reclaim or FIFO fallback among several candidates), while
        #: :mod:`repro.vpu.steady` watches; None otherwise.
        self.ties: Optional[int] = None

    # -- bookkeeping hooks (called by the pipeline) ------------------------------
    # Allocation order is only ever read by the FIFO policy, so the other
    # policies skip the bookkeeping on the commit/release path entirely.
    def note_allocation(self, vvr: int) -> None:
        if self.policy is VictimPolicy.FIFO:
            # A release always precedes re-allocation, so plain assignment
            # appends at the end — the position a remove+append would give.
            self._allocation_order[vvr] = None

    def note_release(self, vvr: int) -> None:
        if self.policy is VictimPolicy.FIFO:
            self._allocation_order.pop(vvr, None)

    # -- reclamation ---------------------------------------------------------------
    def reclaimable_vvr(self, excluded: Iterable[int] = ()) -> Optional[int]:
        """A resident VVR with RAC == 0 and valid data (free without store)."""
        banned = set(excluded)
        found = None
        for vvr in self.mapping.resident_vvrs():
            if vvr in banned:
                continue
            if self.rac.is_reclaimable(vvr) and self.vrf.is_valid(vvr):
                if found is not None:
                    self.ties += 1  # the lowest id wins
                    break
                found = vvr
                if self.ties is None:
                    break
        return found

    # -- victim selection --------------------------------------------------------------
    def select_victim(self, excluded: Sequence[int],
                      has_queued_reader: Optional[Callable[[int], bool]] = None,
                      rat_live: Optional[Iterable[int]] = None,
                      is_clean: Optional[Callable[[int], bool]] = None,
                      ) -> Optional[int]:
        """The VVR to Swap-Store, or None if no legal candidate exists.

        ``excluded`` must contain the current instruction's source and
        destination VVRs (the paper's deadlock-avoidance rule).  A None
        return stalls until an in-flight producer completes (turning its VVR
        into a candidate).

        Under the RAC_MIN policy the base rule is the paper's "lowest
        positive count"; the pipeline supplies two cheap refinements the
        hardware also has access to:

        * ``has_queued_reader(vvr)`` — evicting a VVR some queued instruction
          is about to read forces an immediate Swap-Load back, so such VVRs
          are deprioritised;
        * ``rat_live`` — the VVRs the RAT maps (any iterable): a VVR that
          has been architecturally overwritten and has no queued readers
          will never be reloaded (its Swap-Store is pure writeback), making
          it a cheap victim;
        * ``is_clean(vvr)`` — a VVR whose M-VRF slot already holds its value
          can be evicted without any Swap-Store at all (the dirty-bit
          optimisation), making it the cheapest victim of all.
        """
        banned = set(excluded)
        candidates = [
            vvr for vvr in self.mapping.resident_vvrs()
            if vvr not in banned and self.vrf.is_valid(vvr)
            and self.rac.count(vvr) > 0
        ]
        if not candidates:
            return None
        if self.policy is VictimPolicy.RAC_MIN:
            if len(candidates) == 1:
                return candidates[0]
            queued = has_queued_reader or (lambda vvr: False)
            clean = is_clean or (lambda vvr: False)
            # One set per ranking, however the caller holds the RAT.
            live = set(rat_live) if rat_live is not None else frozenset()

            # The first of equal ranks wins: candidates ascend, so the
            # lowest VVR id breaks a tie.
            ranks = [(queued(vvr),  # False sorts first: no reload pressure
                      not clean(vvr),  # clean eviction costs no store
                      vvr in live,  # dead values are free of future loads
                      self.rac.count(vvr)) for vvr in candidates]
            best = min(ranks)
            if self.ties is not None and ranks.count(best) > 1:
                self.ties += 1
            return candidates[ranks.index(best)]
        if self.policy is VictimPolicy.FIFO:
            for vvr in self._allocation_order:
                if vvr in candidates:
                    return vvr
            if self.ties is not None and len(candidates) > 1:
                self.ties += 1
            return candidates[0]
        # Round-robin: rotating pointer over the VVR index space.
        ordered = sorted(candidates)
        for vvr in ordered:
            if vvr >= self._rr_pointer:
                self._rr_pointer = vvr + 1
                return vvr
        self._rr_pointer = ordered[0] + 1
        return ordered[0]
