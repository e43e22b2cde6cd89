"""Steady-state extrapolation: prove a strip period repeats, skip it.

The RiVEC kernels strip-mine one loop body, so after a short warm-up a
machine often settles into a steady state: the pipeline at the start of
strip k + p looks exactly like it did at the start of strip k, only later
in time, further along the program and with its registers renamed.  A
run is deterministic, so from then on each period replays the last one
until the program stops repeating.  :class:`SteadyState` proves that and
lets :meth:`repro.vpu.pipeline.VectorPipeline.run` jump over whole
periods, adding each period's counter increments instead of stepping
them.  The skip is exact: every :class:`~repro.sim.stats.SimStats` field,
including the scheduler's own ``events_processed``, ``cycles_skipped``
and ``spans_charged``, equals what stepping every cycle gives.

*The snapshot.*  At the end of each cycle in which fetch passes a strip's
scalar block, the tracker encodes the machine as one ``array('q')``:

* the ROB, the pre-issue, arithmetic and memory queues, the completion
  heap, the side tables and the dispatch queue;
* every uop they reach, with times relative to ``now``, ``seq`` relative
  to the pipeline's last ``seq``, ``rob_index`` relative to the committed
  count, dependencies as canonical uop ids and the instruction as its
  program index relative to fetch;
* the RAT and FRL, the PRMT, VRLT, PFRL, P-reg owners and ``in_mvrf``, the
  VRF valid bits;
* the units' busy-until times, the in-flight memory count, the dispatch
  wake-up and the fetch offset within the strip.

VVR and P-reg ids are relabelled by first appearance (RAT, FRL, then the
order the encoding meets them, then the rest by id), so equal codes
differ by σ, the period's relabelling: the ids that got the same label
at both boundaries.  A boundary that no period of at most ``_HISTORY``
strips could pair with, since the program does not repeat around it, is
not encoded.

Excluded are the counters (extrapolated instead), the scheduler memos
(the memory gate's ``_mg_*``, wake and stall memos, the issue stamp, the
mapping's residency versions, the beat cache: the equivalence suite
requires them to be invisible, and a jump leaves them valid) and what no
run the tracker watches reads: functional values, the round-robin
pointer.  The field lists come from each class's ``__slots__`` or
``vars()`` and :data:`KIND`: a field :data:`KIND` does not classify is
compared literally, and a value that cannot be encoded exactly makes the
run step in full.

*Two-level machines.*  The model reads a register id only to look it up,
to test membership or to break a tie, so renaming every VVR by one
permutation and every P-reg by another maps a run without ties onto a
run.  The snapshot adds by label the RAC, the M-VRF valid bits and the
FIFO allocation order; a swap uop enters as its kind and VVR, with its
``swap_gen`` relative to the VVR's generation (only their equality is
read); ``_preg_readers`` leaves out readers already done, which
``_attach_write_guards`` skips and which would make every code unique.

* *The witness*: :class:`~repro.core.swap.SwapLogic` counts the
  decisions a VVR id settled, and a period that moved the count is not
  skipped; after ``_STREAK`` such strips in a row a boundary is not
  encoded.  Round-robin's pointer compares ids: those runs step in full.
* *σⁿ*: n periods on, the machine is the one at b renamed by σⁿ, so the
  jump applies σⁿ in place (``run`` holds aliases) to every structure
  indexed by or holding a register id, reachable uops included: the
  state is the full stepper's, and the tail may break ties again.
* *The M-VRF*: a renamed swap op addresses its new VVR's slot, so a
  period that issued swaps is skipped only while every slot's lines are
  resident; otherwise filling them all must evict nothing, so the tail's
  swaps cannot make LRU order matter.

*The scalar core.*  ``_scalar_time`` runs ahead of ``now`` by an ever
growing margin, so it never repeats.  With ``s`` its lead at the earlier
snapshot, ``A`` the scalar time the period's instructions add and ``Δt``
the period's cycles, ``s + A <= 0`` keeps the scalar core from ever
stalling dispatch in the period, and ``A <= Δt`` keeps that true in every
later one; the lead is then slack and left out.  Otherwise it must repeat
exactly.

*A jump* needs three proofs at a boundary b:

1. the snapshot equals the one taken p strips earlier, at a, and the
   period a..b filled no L2 line and broke no tie by id;
2. the program repeats: over every skipped period, and over the window
   back to the oldest instruction the pipeline still holds plus one
   instruction of lookahead, each instruction equals the one a period
   (Δ instructions) earlier in opcode, registers, ``vl``, tag, scalar
   cycles and memory operand (space, buffer, stride, ``indexed``, a spill
   operand's base and a data operand's offset within its 64-byte line);
3. every L2 line the rest of the program can touch is resident, so every
   access hits and nothing fills or evicts: LRU order and dirty bits
   never matter again (the M-VRF as above).

The run then skips n whole periods: it renames the registers by σⁿ,
remaps the in-flight instructions n·Δ further on, advances fetch, shifts
``seq`` and ``rob_index``, adds n times the period's increment to every
counter and to its clock offset, and steps the rest normally.  The clock
itself does not move: every time the pipeline holds stays valid, and the
run reports ``now`` plus the offset.  A jump never passes
``max_cycles``.
"""


from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import fields, replace
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.uop import MicroOp, UopState
from repro.isa.instructions import Tag
from repro.isa.operands import AddressSpace
from repro.isa.registers import ELEMENT_BYTES
from repro.memory.cache import CacheStats
from repro.sim.stats import SimStats
from repro.vpu.vmu import access_stream

#: Boundaries kept for matching: lavamd's period is 12 strips.
_HISTORY = 16
#: Strips in a row that broke a tie by id, after which a boundary is not
#: encoded (two-level runs whose every strip breaks one).
_STREAK = 3
#: Encodes None and "not yet" (an unissued uop's times, a dispatch stage
#: asleep until rename wakes it); real values stay far inside +-2**40.
_NONE = -(1 << 62)
_NEVER = float("inf")
_DATA = AddressSpace.DATA
_SWAP = Tag.SWAP
_STATE = {state: i for i, state in enumerate(UopState)}
_ISSUED, _DONE, _COMMITTED = UopState.ISSUED, UopState.DONE, UopState.COMMITTED

# Field kinds.
CONST = "const"  # fixed for the run
STATE = "state"  # encoded by the snapshot's own sections
COUNT = "count"  # an int counter: extrapolated by n x its increment
MEMO = "memo"  # a scheduler memo: invisible, left intact
UNREAD = "unread"  # no run the tracker watches reads it
TALLY = "tally"  # bookkeeping no stage reads, or a holder of counters

#: Class name -> field -> kind.  A field missing here is compared
#: literally.
KIND: Dict[str, Dict[str, str]] = {
    "VectorPipeline": {
        **dict.fromkeys((
            "config", "program", "params", "functional",
            "aggressive_reclamation", "layout", "vmu", "_mem_dead_time",
            "_mem_first_latency", "_to_commit", "_track_swap_state",
            "_n_insts", "_pre_issue_depth", "_mem_depth", "_arith_depth",
            "_swap_budget", "_arith_dead", "_chain_delay", "_fifo_policy",
            "_round_robin", "_dispatch_depth", "_scalar_ratio", "_hand_off",
            "_san"), CONST),
        **dict.fromkeys((
            "rat", "rac", "swap_logic", "mapping", "vrf", "rob",
            "dispatch_q", "pre_issue_q",
            "arith_q", "mem_q", "_pending_writer", "_vvr_queued_readers",
            "_preg_readers", "_pending_store_guard", "_pending_mvrf_store",
            "_completions", "_queued_swaps", "_seq", "_arith_busy_until",
            "_mem_busy_until", "_fetch_idx", "_scalar_time",
            "_inflight_mem", "_dispatch_wake", "now"), STATE),
        **dict.fromkeys((
            "_issue_stamp", "_mg_head", "_mg_len", "_mg_wake",
            "_mg_istamp", "_mg_vsum", "_arith_beats"), MEMO),
        # swap_demand is a maximum, which a repeated period cannot raise.
        **dict.fromkeys(("memsys", "stats", "swap_demand", "steady",
                         "_cycle_offset"), TALLY),
    },
    "MicroOp": {
        **dict.fromkeys((
            "inst", "src_vvrs", "dst_vvr", "old_dst_vvr", "renamed_at",
            "seq", "state", "priority", "src_pregs", "dst_preg",
            "producers", "store_guard", "reader_guards", "issued_at",
            "first_ready", "done_at", "rob_index", "swap_gen"), STATE),
        **dict.fromkeys((
            "resolved_version", "preissue_stall_version",
            "preissue_stall_on", "wake_at", "wake_stamp"), MEMO),
    },
    "RenameTable": {"n_logical": CONST, "n_vvr": CONST, "sanitizer": CONST,
                    "_rat": STATE, "_frl": STATE},
    "VRFMapping": {"n_vvr": CONST, "n_physical": CONST, "sanitizer": CONST,
                   "vvr_version": MEMO, "_prmt": STATE,
                   "_vrlt": STATE, "_pfrl": STATE, "_owner": STATE,
                   "_in_mvrf": STATE},
    "TwoLevelVRF": {"n_vvr": CONST, "n_physical": CONST, "mvl": CONST,
                    "functional": CONST, "sanitizer": CONST,
                    "_valid": STATE, "_pvrf": UNREAD, "_mvrf": UNREAD,
                    "_mvrf_valid": STATE, "_generation": STATE,
                    **dict.fromkeys(("pvrf_reads", "pvrf_writes",
                                     "mvrf_reads", "mvrf_writes"), COUNT)},
    "RegisterAccessCounters": {"n_vvr": CONST, "_counts": STATE,
                               "_saturated": STATE},
    "SwapLogic": {"mapping": CONST, "rac": CONST, "vrf": CONST,
                  "policy": CONST, "_allocation_order": STATE,
                  "_rr_pointer": UNREAD, "ties": COUNT},
    "ReorderBuffer": {"capacity": CONST, "commit_width": CONST,
                      "sanitizer": CONST, "_entries": STATE,
                      "total_committed": COUNT},
    # A jump needs every line the rest of the run touches resident, so
    # the L2's tags are the memory proof's business, not the snapshot's.
    "Cache": {"config": CONST, "_n_sets": CONST, "_line_bytes": CONST,
              "_assoc": CONST, "_sets": STATE, "stats": TALLY},
    "CacheStats": {f.name: COUNT for f in fields(CacheStats)},
    "Dram": {"config": CONST, "line_reads": COUNT, "line_writes": COUNT},
    "SimStats": {f.name: CONST if f.name in ("config_name", "program_name")
                 else COUNT for f in fields(SimStats)},
}

#: Counters a period must leave unchanged: it filled and evicted nothing
#: and no VVR id broke a tie, as the periods skipped after it will not.
_NO_FILL = {("CacheStats", "read_misses"), ("CacheStats", "write_misses"),
            ("CacheStats", "writebacks"), ("Dram", "line_reads"),
            ("Dram", "line_writes"), ("SwapLogic", "ties")}
#: The counters that show a period issued swap ops.
_SWAPS = {("SimStats", "swap_loads"), ("SimStats", "swap_stores")}


def _field_names(obj: object) -> List[str]:
    """Every field of ``obj`` (a class: its slots only): the
    ``__slots__`` of its classes, then its ``vars()``."""
    klass = obj if isinstance(obj, type) else type(obj)
    names: List[str] = []
    for base in klass.__mro__:
        slots = base.__dict__.get("__slots__", ())
        names.extend([slots] if isinstance(slots, str) else slots)
    if not isinstance(obj, type):
        names.extend(getattr(obj, "__dict__", ()))
    return names


def _literal(value: object) -> Optional[int]:
    """``value`` as one int, or None when it has no exact int form."""
    if value is None:
        return _NONE
    if isinstance(value, int):  # bools included
        return int(value)
    if isinstance(value, float) and value.is_integer() and abs(value) < 2**40:
        return int(value)
    return None


def _exact(x: float) -> bool:
    """Whether float sums of such values stay exact: a multiple of
    2**-20 below 2**32 (the scalar core's times)."""
    return abs(x) < 2**32 and (x * 1048576.0).is_integer()


def _key(inst, layout) -> tuple:
    """What of an instruction the timing model reads once every access
    hits: equal keys one period apart make the periods replay.  Enum
    members enter by value, since ``Enum.__hash__`` runs in Python."""
    mem = inst.mem
    if mem is not None:
        where = (layout.base_addr(mem) % 64 if mem.space is _DATA
                 else mem.base_elem)
        mem = (mem.space._value_, mem.buffer, mem.stride, mem.indexed,
               where)
    return (inst.op._value_, inst.dst, inst.srcs, inst.vl, inst.tag._value_,
            inst.scalar, mem)


class _Boundary:
    """One snapshot: where and when it was taken, its code, and every
    counter's value then."""

    __slots__ = ("strips", "fetch", "now", "scalar", "seq", "code",
                 "counts", "locals", "reach", "vvrs", "pregs")

    def __init__(self, strips: int, fetch: int, now: int, scalar: float,
                 seq: int, code: array, counts: List[int],
                 local_counts: Tuple[int, ...], reach: int,
                 vvrs: List[int], pregs: List[int]) -> None:
        self.strips = strips  # scalar blocks fetched
        self.fetch = fetch
        self.now = now
        self.scalar = scalar
        self.seq = seq
        self.code = code
        self.counts = counts
        self.locals = local_counts
        #: How far before ``fetch`` the oldest instruction any reachable
        #: uop or the dispatch queue holds lies.
        self.reach = reach
        #: The VVRs and P-regs in label order.
        self.vvrs = vvrs
        self.pregs = pregs


class SteadyState:
    """One run's boundary snapshots and jumps (see the module docstring).

    ``VectorPipeline.run`` builds one for an eligible run and drops it on
    return; it refers to the pipeline, never the other way round.
    ``boundary`` is the program index of the next scalar block: the run
    calls :meth:`at_boundary` at the top of the first cycle after fetch
    passed it.
    """

    def __init__(self, pipe, max_cycles: int) -> None:
        self.pipe = pipe
        self.max_cycles = max_cycles
        self.insts = insts = pipe.program.insts
        #: Program indices of the scalar blocks, and of the vector
        #: instructions by ordinal (a uop's ``rob_index``).
        self.blocks = array("q")
        self.vec_pos = array("q")
        for i, inst in enumerate(insts):
            (self.blocks if inst.is_scalar else self.vec_pos).append(i)
        self.boundary = self._next_block(0)
        self.history: Deque[_Boundary] = deque(maxlen=_HISTORY)
        #: Each instruction's :func:`_key`, as the index of its first
        #: occurrence among the distinct keys.
        layout = pipe.layout
        distinct: Dict[tuple, int] = {}
        self.keys = memoryview(array("q", (
            distinct.setdefault(_key(inst, layout), len(distinct))
            for inst in insts)))
        # The memory proof last failed on the instruction at this index;
        # it is not retried before fetch has passed it.
        self.cold_until = -1
        # The witness at the last boundary, and the strips in a row that
        # moved it.
        self.last_ties = 0
        self.streak = 0
        tracked = [pipe, pipe.rat, pipe.mapping, pipe.vrf, pipe.rob]
        #: The M-VRF's line addresses (None on a single-level machine,
        #: whose run never touches the Swap Logic).
        self.mvrf: Optional[range] = None
        config = pipe.config
        if config.two_level:
            base = layout.base_addr(layout.mvrf_operand(0))
            self.mvrf = range(base, base + config.n_vvr * config.mvl
                              * ELEMENT_BYTES, 64)
            tracked += [pipe.rac, pipe.swap_logic]
            pipe.swap_logic.ties = 0  # the witness
        # Sort the tracked objects' fields by KIND once.
        l2 = pipe.memsys.l2
        self.counters: List[Tuple[object, str]] = []
        self.no_fill: List[int] = []
        self.swaps: List[int] = []
        self.literals: List[Tuple[object, str]] = []
        for obj in tracked + [l2, l2.stats, pipe.memsys.dram, pipe.stats]:
            owner, kinds = next(
                ((c.__name__, KIND[c.__name__]) for c in type(obj).__mro__
                 if c.__name__ in KIND), ("", {}))
            for name in _field_names(obj):
                kind = kinds.get(name)
                if kind == COUNT:
                    if (owner, name) in _NO_FILL:
                        self.no_fill.append(len(self.counters))
                    if (owner, name) in _SWAPS:
                        self.swaps.append(len(self.counters))
                    self.counters.append((obj, name))
                elif kind is None:
                    self.literals.append((obj, name))
        self.uop_literals = [name for name in _field_names(MicroOp)
                             if name not in KIND["MicroOp"]]

    def _next_block(self, fetch: int) -> int:
        """The index of the first scalar block at or after ``fetch``."""
        blocks = self.blocks
        k = bisect_left(blocks, fetch)
        return blocks[k] if k < len(blocks) else len(self.insts)

    # ------------------------------------------------------------ boundary
    def at_boundary(self, now: int, local_counts: Tuple[int, ...]
                    ) -> Optional[Tuple[int, List[int]]]:
        """Snapshot the machine at the top of cycle ``now``; once a period
        is proven, jump.

        ``local_counts`` are the counters ``run`` keeps in locals.
        Returns None, or ``(n, increments)``: the run adds n times each
        increment to its locals (the tracker has done the rest).
        """
        pipe = self.pipe
        fetch = pipe._fetch_idx
        self.boundary = self._next_block(fetch)
        strips = bisect_left(self.blocks, fetch)
        if self.mvrf is not None:
            # A strip that broke a tie by id ends no period.  After a
            # streak of them the next one is likely to break one too, and
            # then this boundary would start none either.
            ties = pipe.swap_logic.ties
            self.streak = self.streak + 1 if ties != self.last_ties else 0
            self.last_ties = ties
            if self.streak >= _STREAK:
                return None
        if not self._may_pair(fetch, strips):
            return None
        encoded = self._encode(now, fetch,
                               fetch - self.blocks[strips - 1])
        if encoded is None:
            # A state this encoder cannot express exactly: step in full.
            self.boundary = len(self.insts)
            self.history.clear()
            return None
        code, order, dq_pos, reach, vvrs, pregs = encoded
        here = _Boundary(strips, fetch, now, pipe._scalar_time, pipe._seq,
                         code, [getattr(obj, name)
                                for obj, name in self.counters],
                         local_counts, reach, vvrs, pregs)
        for then in reversed(self.history):
            if then.code == code:
                n = self._periods(then, here)
                if n:
                    return self._jump(n, then, here, order, dq_pos)
        self.history.append(here)
        return None

    def _may_pair(self, fetch: int, strips: int) -> bool:
        """Whether ``_repeats`` could pass for a period of at most
        ``_HISTORY`` strips that ends or starts at this boundary."""
        keys, blocks = self.keys, self.blocks
        for p in range(1, _HISTORY + 1):
            for lo in (strips - 1 - p, strips - 1):  # the earlier block
                if lo >= 0 and lo + p < len(blocks):
                    d = blocks[lo + p] - blocks[lo]
                    end = fetch + blocks[lo + p] - blocks[strips - 1]
                    if keys[end - d:end + 1] == keys[end:end + d + 1]:
                        return True
        return False

    def _encode(self, now: int, fetch: int, fetch_offset: int
                ) -> Optional[Tuple[array, List[MicroOp], Sequence[int], int,
                                    List[int], List[int]]]:
        """The snapshot's code, the uops it reaches (by canonical id), the
        dispatch queue's program indices, the reach and the VVRs and
        P-regs in label order; None when some value has no exact
        encoding."""
        pipe = self.pipe
        insts = self.insts
        vec_pos = self.vec_pos
        n_vec = len(vec_pos)
        seq0 = pipe._seq
        committed = pipe.rob.total_committed
        wake = pipe._dispatch_wake
        out: List[int] = [
            fetch_offset, max(0, pipe._arith_busy_until - now),
            max(0, pipe._mem_busy_until - now),
            _NONE if wake == _NEVER else max(0, math.ceil(wake) - now),
            pipe._inflight_mem]
        append = out.append
        vvrs: Dict[int, int] = {}  # VVR -> label, by first appearance
        pregs: Dict[int, int] = {}  # P-reg -> label
        ids: Dict[MicroOp, int] = {}  # uop -> canonical id
        order: List[MicroOp] = []

        def uop_id(u: MicroOp) -> int:
            uid = ids.get(u)
            if uid is None:
                uid = ids[u] = len(order)
                order.append(u)
            return uid

        for v in pipe.rat._rat:
            append(vvrs.setdefault(v, len(vvrs)))
        frl = pipe.rat._frl
        append(len(frl))
        for v in frl:
            append(vvrs.setdefault(v, len(vvrs)))
        for queue in (pipe.rob._entries, pipe.pre_issue_q, pipe.arith_q,
                      pipe.mem_q, pipe._queued_swaps):
            append(len(queue))
            for u in queue:
                append(uop_id(u))
        # Pop order is fixed by (time, seq), not by the heap's layout.
        heap = sorted(pipe._completions, key=lambda entry: entry[:2])
        append(len(heap))
        for t, s, u in heap:
            append(t - now)
            append(s - seq0)
            append(uop_id(u))
        for table in (pipe._pending_writer, pipe._pending_mvrf_store):
            append(len(table))
            for label, u in sorted([(vvrs.setdefault(v, len(vvrs)), u)
                                    for v, u in table.items()],
                                   key=lambda item: item[0]):
                append(label)
                append(uop_id(u))
        table = pipe._vvr_queued_readers
        append(len(table))
        for label, count in sorted([(vvrs.setdefault(v, len(vvrs)), c)
                                    for v, c in table.items()]):
            append(label)
            append(count)
        table = pipe._pending_store_guard
        append(len(table))
        for label, u in sorted([(pregs.setdefault(p, len(pregs)), u)
                                for p, u in table.items()],
                               key=lambda item: item[0]):
            append(label)
            append(uop_id(u))
        # Readers already done never become guards: leave them out.
        live = []
        for p, readers in pipe._preg_readers.items():
            readers = [u for u in readers if not (
                u.state is _DONE or u.state is _COMMITTED
                or u.state is _ISSUED and u.done_at <= now)]
            if readers:
                live.append((pregs.setdefault(p, len(pregs)), readers))
        append(len(live))
        for label, readers in sorted(live, key=lambda item: item[0]):
            append(label)
            append(len(readers))
            for u in readers:
                append(uop_id(u))

        # The dispatch queue holds the last vector instructions fetched.
        dq = pipe.dispatch_q
        k = bisect_left(vec_pos, fetch)
        if k < len(dq):
            return None
        dq_pos = vec_pos[k - len(dq):k]
        append(len(dq))
        for pos, inst in zip(dq_pos, dq):
            if insts[pos] is not inst:
                return None
            append(pos - fetch)
        reach = fetch - dq_pos[0] if dq_pos else 0

        # Every reachable uop, breadth first; ``order`` grows as the
        # loop discovers dependencies.
        state_code = _STATE
        literals = self.uop_literals
        generation = pipe.vrf._generation
        i = 0
        while i < len(order):
            u = order[i]
            i += 1
            inst = u.inst
            if inst.tag is _SWAP:
                # No program index: its kind and VVR name its instruction;
                # only its generation's equality with the VVR's is read.
                append(_NONE)
                append(inst.is_store)
                append(generation[u.src_vvrs[0] if inst.is_store
                                  else u.dst_vvr] - u.swap_gen)
            else:
                r = u.rob_index
                if not 0 <= r < n_vec:
                    return None
                pos = vec_pos[r]
                if insts[pos] is not inst:
                    return None
                if fetch - pos > reach:
                    reach = fetch - pos
                append(pos - fetch)
                append(r - committed)
                append(u.swap_gen)
            append(state_code[u.state])
            append(u.priority)
            s = u.seq
            append(s - seq0 if s >= 0 else _NONE)
            regs = u.src_vvrs
            append(len(regs))
            for v in regs:
                append(vvrs.setdefault(v, len(vvrs)))
            v = u.dst_vvr
            append(_NONE if v is None else vvrs.setdefault(v, len(vvrs)))
            v = u.old_dst_vvr
            append(_NONE if v is None else vvrs.setdefault(v, len(vvrs)))
            regs = u.src_pregs
            append(len(regs))
            for p in regs:
                append(pregs.setdefault(p, len(pregs)))
            p = u.dst_preg
            append(_NONE if p is None else pregs.setdefault(p, len(pregs)))
            append(u.renamed_at - now)
            t = u.issued_at
            append(t - now if t >= 0 else _NONE)
            t = u.first_ready
            append(t - now if t >= 0 else _NONE)
            t = u.done_at
            append(t - now if t >= 0 else _NONE)
            deps = u.producers
            append(len(deps))
            for d in deps:
                append(-1 if d is None else uop_id(d))
            d = u.store_guard
            append(-1 if d is None else uop_id(d))
            deps = u.reader_guards
            append(len(deps))
            for d in deps:
                append(uop_id(d))
            for name in literals:
                value = _literal(getattr(u, name, None))
                if value is None:
                    return None
                append(value)

        # The second-level mapping, valid bits and swap state by label
        # (keys in insertion order); the VVRs nowhere else keep their
        # order.
        mapping = pipe.mapping
        for v in range(len(mapping._prmt)):
            vvrs.setdefault(v, len(vvrs))
        prmt, vrlt = mapping._prmt, mapping._vrlt
        in_mvrf, valid = mapping._in_mvrf, pipe.vrf._valid
        for v in vvrs:
            p = prmt[v]
            append(_NONE if p is None else pregs.setdefault(p, len(pregs)))
            append(vrlt[v])
            append(in_mvrf[v])
            append(valid[v])
        if self.mvrf is not None:
            counts, saturated = pipe.rac._counts, pipe.rac._saturated
            mvrf_valid = pipe.vrf._mvrf_valid
            for v in vvrs:
                append(counts[v])
                append(saturated[v])
                append(v in mvrf_valid)
            fifo = pipe.swap_logic._allocation_order
            append(len(fifo))
            for v in fifo:
                append(vvrs[v])
        pfrl = mapping._pfrl
        append(len(pfrl))
        for p in pfrl:
            append(pregs.setdefault(p, len(pregs)))
        owner = mapping._owner
        for p in range(len(owner)):
            pregs.setdefault(p, len(pregs))
        for p in pregs:
            o = owner[p]
            append(_NONE if o is None else vvrs[o])

        for obj, name in self.literals:
            value = _literal(getattr(obj, name, None))
            if value is None:
                return None
            append(value)
        try:
            return array("q", out), order, dq_pos, reach, [*vvrs], [*pregs]
        except (TypeError, OverflowError):
            return None

    # ---------------------------------------------------------------- proof
    def _periods(self, then: _Boundary, here: _Boundary) -> int:
        """How many periods ``then``..``here`` may be skipped from
        ``here``, given equal snapshots (0 for none)."""
        delta = here.fetch - then.fetch
        dt = here.now - then.now
        if delta <= 0 or dt <= 0:
            return 0
        for i in self.no_fill:
            if then.counts[i] != here.counts[i]:
                return 0
        if not self._scalar_repeats(then, here, dt):
            return 0
        pipe = self.pipe
        # Room before the program end (the instruction after the last
        # skipped period must exist) and before the cycle budget.
        room = min((len(self.insts) - 1 - here.fetch) // delta,
                   (self.max_cycles - here.now - pipe._cycle_offset) // dt)
        if room <= 0 or here.fetch <= self.cold_until:
            return 0
        n = self._repeats(then.fetch - then.reach, here.fetch, delta, room)
        if n <= 0:
            return 0
        cold = self._first_cold(here.fetch - here.reach)
        if cold >= 0:
            self.cold_until = cold
            return 0
        l2 = pipe.memsys.l2
        if self.mvrf is not None and not l2.holds(self.mvrf) and (
                not l2.fits(self.mvrf)
                or any(then.counts[i] != here.counts[i] for i in self.swaps)):
            return 0  # the M-VRF proof (module docstring)
        return n

    def _scalar_repeats(self, then: _Boundary, here: _Boundary,
                        dt: int) -> bool:
        """Whether the scalar core's lead repeats exactly or is slack
        (module docstring), with every float sum exact."""
        pipe = self.pipe
        ratio = pipe._scalar_ratio
        hand_off = pipe._hand_off
        if not _exact(hand_off):
            return False
        added = 0.0
        for inst in self.insts[then.fetch:here.fetch]:
            step = inst.scalar / ratio if inst.is_scalar else hand_off
            if not _exact(step):
                return False
            added += step
        if not (_exact(added) and _exact(then.scalar)
                and _exact(here.scalar)
                and here.scalar - then.scalar == added):
            return False
        lead = then.scalar - then.now
        if lead == here.scalar - here.now:
            return True
        return lead + added <= 0 and added <= dt

    def _repeats(self, start: int, fetch: int, delta: int, room: int) -> int:
        """The most periods n <= ``room`` with ``key[k] == key[k + delta]``
        for every k in ``[start, fetch + 1 + (n - 1) * delta)``."""
        if start < 0:
            return 0
        keys = self.keys  # slices of a memoryview compare without copying
        end = fetch + 1 + (room - 1) * delta
        if keys[start:end] == keys[start + delta:end + delta]:
            return room
        k = start
        while True:  # one period per slice compare, then one by one
            hi = min(k + delta, end)
            if keys[k:hi] != keys[k + delta:hi + delta]:
                while keys[k] == keys[k + delta]:
                    k += 1
                break
            k = hi
        # k is the first index that does not repeat.
        return (k - fetch - 1) // delta + 1 if k > fetch else 0

    def _first_cold(self, lo: int) -> int:
        """The index of the first instruction from ``lo`` on that can
        touch a line the L2 does not hold, or -1."""
        layout = self.pipe.layout
        holds = self.pipe.memsys.l2.holds
        insts = self.insts
        for i in range(lo, len(insts)):
            inst = insts[i]
            mem = inst.mem
            if mem is not None and not holds(access_stream(
                    mem, layout.base_addr(mem), inst.vl)[1]):
                return i
        return -1

    # ----------------------------------------------------------------- jump
    def _jump(self, n: int, then: _Boundary, here: _Boundary,
              order: List[MicroOp], dq_pos: Sequence[int]
              ) -> Tuple[int, List[int]]:
        """Skip n periods: advance the program, not the clock."""
        pipe = self.pipe
        insts = self.insts
        vec_pos = self.vec_pos
        shift = n * (here.fetch - then.fetch)
        ordinals = n * (bisect_left(vec_pos, here.fetch)
                        - bisect_left(vec_pos, then.fetch))
        seqs = n * (here.seq - then.seq)
        vvrs = _power(then.vvrs, here.vvrs, n)
        pregs = _power(then.pregs, here.pregs, n)
        self._rename(vvrs, pregs)
        mvrf_operand = pipe.layout.mvrf_operand
        for u in order:
            u.src_vvrs = tuple([vvrs[v] for v in u.src_vvrs])
            u.src_pregs = tuple([pregs[p] for p in u.src_pregs])
            if u.dst_vvr is not None:
                u.dst_vvr = vvrs[u.dst_vvr]
            if u.old_dst_vvr is not None:
                u.old_dst_vvr = vvrs[u.old_dst_vvr]
            if u.dst_preg is not None:
                u.dst_preg = pregs[u.dst_preg]
            if u.rob_index >= 0:
                u.inst = insts[vec_pos[u.rob_index] + shift]
                u.rob_index += ordinals
            else:  # a swap op: it addresses its VVR's M-VRF slot
                u.inst = replace(u.inst, mem=mvrf_operand(
                    u.src_vvrs[0] if u.inst.is_store else u.dst_vvr))
            if u.seq >= 0:
                u.seq += seqs
        dq = pipe.dispatch_q
        for i, pos in enumerate(dq_pos):
            dq[i] = insts[pos + shift]
        # A uniform shift keeps the heap a heap.
        pipe._completions[:] = [(t, s + seqs, u)
                                for t, s, u in pipe._completions]
        pipe._seq += seqs
        pipe._fetch_idx += shift
        dt = here.now - then.now
        pipe._scalar_time += n * ((here.scalar - then.scalar) - dt)
        for (obj, name), a, b in zip(self.counters, then.counts,
                                     here.counts):
            if b != a:
                setattr(obj, name, getattr(obj, name) + n * (b - a))
        pipe._cycle_offset += n * dt
        period = here.strips - then.strips
        warmup, _, skipped = pipe.steady or (then.strips, period, 0)
        pipe.steady = (warmup, period, skipped + n * period)
        self.history.clear()
        self.boundary = self._next_block(pipe._fetch_idx)
        return n, [b - a for a, b in zip(then.locals, here.locals)]

    def _rename(self, vvrs: List[int], pregs: List[int]) -> None:
        """Rename VVR v to ``vvrs[v]`` and P-reg p to ``pregs[p]`` in
        every structure but the uops, in place: ``run`` holds aliases."""
        pipe = self.pipe
        rat, mapping, vrf = pipe.rat, pipe.mapping, pipe.vrf
        rat._rat[:] = [vvrs[v] for v in rat._rat]
        for queue, labels in ((rat._frl, vvrs), (mapping._pfrl, pregs)):
            renamed = [labels[x] for x in queue]
            queue.clear()
            queue.extend(renamed)
        prmt, owner = mapping._prmt, mapping._owner
        prmt[:] = [None if p is None else pregs[p] for p in prmt]
        owner[:] = [None if v is None else vvrs[v] for v in owner]
        _move(owner, pregs)
        by_vvr = [prmt, mapping._vrlt, mapping._in_mvrf,
                  mapping.vvr_version, vrf._valid]
        for table in (pipe._pending_writer, pipe._vvr_queued_readers,
                      pipe._pending_mvrf_store):
            _rekey(table, vvrs)
        for table in (pipe._preg_readers, pipe._pending_store_guard):
            _rekey(table, pregs)
        if self.mvrf is not None:
            by_vvr += [vrf._generation, pipe.rac._counts,
                       pipe.rac._saturated]
            _rekey(pipe.swap_logic._allocation_order, vvrs)
            renamed = [vvrs[v] for v in vrf._mvrf_valid]
            vrf._mvrf_valid.clear()
            vrf._mvrf_valid.update(renamed)
        for values in by_vvr:
            _move(values, vvrs)


def _move(values: list, perm: Sequence[int]) -> None:
    """Move ``values[i]`` to ``values[perm[i]]`` for every i."""
    for i, value in enumerate(list(values)):
        values[perm[i]] = value


def _rekey(table: dict, perm: Sequence[int]) -> None:
    """Rename each key k of ``table`` to ``perm[k]``, keeping the order."""
    items = list(table.items())
    table.clear()
    table.update([(perm[k], value) for k, value in items])


def _power(then: List[int], here: List[int], n: int) -> List[int]:
    """σⁿ, by squaring; σ maps the id that got each label at ``then`` to
    the id that got it at ``here``."""
    perm = [0] * len(then)
    for a, b in zip(then, here):
        perm[a] = b
    out = list(range(len(perm)))
    while n:
        if n & 1:
            out = [perm[i] for i in out]
        perm = [perm[i] for i in perm]
        n >>= 1
    return out
