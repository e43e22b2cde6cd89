"""The AVA vector pipeline, driven by an event-driven scheduler.

The pipeline stages are the paper's Figure 1 (commit, complete, the two
decoupled issue queues, pre-issue, rename, scalar dispatch — evaluated in
reverse-pipeline order so resources freed early in a cycle are visible to
later stages).  The machine state and the model semantics both schedulers
share live in :class:`PipelineModel`; :class:`VectorPipeline` differs from
the per-cycle stepper in :mod:`repro.vpu.reference` only in *when* stages
are evaluated (and in inlining the stage bodies that stepper spells out):

* every stage contributes wake-up timestamps to one unified event set —
  the completion heap, unit ``busy_until`` marks, queue-head readiness
  (producer/guard ``issued_at`` + the chaining delay), in-queue swap-op
  readiness, and the scalar core's next hand-off time;
* a cycle is *evaluated* only while at least one stage can act; stage
  entry is gated on O(1) preconditions (ROB head completed, completion
  due, unit free and queue non-empty, …) that exactly mirror each stage's
  no-progress early-return, so a gated-off stage is observationally
  indistinguishable from a polled one;
* when no stage can act, the clock jumps straight to the earliest future
  event instead of re-probing idle stages cycle by cycle — the original
  all-stalled-only ``_fast_forward`` generalised into the normal execution
  mode;
* queue-head operand resolution is memoized against the sum of its
  sources' per-VVR residency versions: while none of them changes
  residency, a stalled head's re-probe collapses to pruning completed
  producers (exactly what the full re-resolution would compute) instead
  of re-walking the mapping and reader bookkeeping every cycle;
* a stalled pre-issue head is memoized too.  On a two-level machine the
  memo holds while its sources' residency version sum is unchanged.  On a
  single-level machine sources never change residency, so a writer stall
  holds while the awaited producer has no P-reg and a queue-full stall
  while the queue is full; no residency version is read or maintained
  there;
* a blocked memory gate is memoized too: the memo holds while the head,
  the queue length and the head's source version sum are unchanged and
  the head's wake timestamp has not arrived.

The scheduler is required to be **observationally invisible**: identical
:class:`~repro.sim.stats.SimStats` (including per-evaluated-cycle stall
counters and the span accounting), identical functional-mode buffers, and
identical result-cache payloads versus the reference stepper.
``events_processed`` counts evaluated cycles and ``cycles_skipped`` counts
jumped ones (a no-progress probe is evaluated and then jumped over, so
``events <= cycles <= events + skipped``).  The golden-equivalence suite
(``tests/vpu/test_pipeline_equivalence.py``) enforces all of this across
every registered workload and a grid of machine configurations.

*Steady state.*  A run that is timing-only, unsanitized, has no
:class:`~repro.sim.trace.TraceRecorder` attached and does not evict
round-robin snapshots the machine each time fetch passes a strip's
scalar block.  Once :mod:`repro.vpu.steady` proves that a period of
strips repeats (equal snapshots up to a relabelling of register ids, a
repeating program, no register id breaking a tie, every line the rest of
the program touches resident in the L2), ``run`` skips whole periods at
once: it adds each period's counter increments, relabels the registers,
advances the program and keeps a cycle offset, then steps the rest.  Every
:class:`~repro.sim.stats.SimStats` field still equals the reference
stepper's.  The per-uop issue timeline is defined only for runs that step
in full, which is why a recorder makes a run do so.

When no future event exists while instructions remain, the pipeline raises
:class:`DeadlockError` with a diagnostic dump (the dependency-ordering
invariant in :mod:`repro.core.uop` makes this unreachable for well-formed
programs, and the property tests lean on that).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.rac import RAC_MAX, RegisterAccessCounters
from repro.core.rat import RenameTable
from repro.core.rob import ReorderBuffer
from repro.core.swap import SwapLogic, VictimPolicy
from repro.core.uop import MicroOp, UopState, ordering_error
from repro.core.vrf import TwoLevelVRF
from repro.core.vrf_mapping import VRFMapping
from repro.isa.instructions import Instruction, Tag
from repro.isa.opcodes import Op
from repro.isa.program import Program
from repro.memory.hierarchy import MemorySystem
from repro.sim.layout import MemoryLayout
from repro.sim.stats import SimStats
from repro.vpu.params import arith_beats
from repro.vpu.vmu import VectorMemoryUnit


class DeadlockError(RuntimeError):
    """The pipeline can make no further progress (diagnostic dump attached)."""


# Pre-issue action outcomes.
_OK = "ok"
_CREATED = "created-swap"
_STALL_VICTIM = "stall-victim"
_STALL_QUEUE = "stall-queue"

# Fused issue-probe outcomes (_resolve_head): operand resolution and
# chaining readiness answered in one pass over the head's dependencies.
_R_READY = 0
_R_WAIT = 1
_R_CREATED = 2
_R_VICTIM = 3

#: Sentinel wake-up time for "nothing to do until another stage acts".
_NEVER = float("inf")

# Enum members bound once as module globals.  On CPython 3.11 a method
# that spells ``UopState.DONE`` pays a global load plus an enum class
# attribute lookup (~105 ns) where a module global costs ~10 ns, and the
# scheduler makes up to dozens of such loads per committed uop.  CPython
# 3.12 specialises class-attribute loads and narrows the gap; the guard in
# tests/vpu/test_pipeline_structure.py keeps the methods on these names.
_PRE_ISSUED = UopState.PRE_ISSUED
_ISSUED = UopState.ISSUED
_DONE = UopState.DONE
_COMMITTED = UopState.COMMITTED
_SWAP = Tag.SWAP
_SPILL = Tag.SPILL
_heappush = heapq.heappush
_heappop = heapq.heappop


class PipelineModel:
    """The AVA pipeline's state and model semantics, without a scheduler.

    Owns everything both schedulers share: the machine state (RAT, RAC,
    ROB, second-level mapping, two-level VRF, issue queues), the
    constructor (including :class:`~repro.sim.scenario.Scenario`
    handling), and the model methods whose semantics do not depend on
    *when* a stage is evaluated — swap emission, victim selection, write
    guards, chaining readiness, issue stamping and counting, swap
    execution, harvest and the deadlock dump.  :class:`VectorPipeline`
    adds the span-charging scheduler;
    :class:`repro.vpu.reference.ReferencePipeline` adds the per-cycle
    stepper and the un-inlined stage bodies the scheduler is checked
    against.  A model fix made here reaches both.
    """

    #: Appended to sanitizer finding labels to name the implementation.
    _sanitizer_tag = ""

    def __init__(self, config, program: Program, functional: bool = False,
                 sanitize: bool = False) -> None:
        """``config`` is a :class:`~repro.sim.scenario.Scenario` (machine,
        timing, memory system and policy) or a bare :class:`MachineConfig`,
        which means ``Scenario(machine=config)``: the paper's defaults for
        every other machine-side axis."""
        # Imported lazily: repro.sim.scenario pulls repro.vpu.params in
        # through the vpu package, so a module-level import here would be
        # circular.
        from repro.sim.scenario import Scenario
        scenario = (config if isinstance(config, Scenario)
                    else Scenario(machine=config))
        config = scenario.machine
        program.validate(config.n_logical)
        self.config = config
        self.program = program
        self.params = scenario.timing
        self.functional = functional
        if functional:
            # The numpy evaluators serve only functional runs, so a
            # timing-only pipeline never imports numpy.
            from repro.isa.semantics import evaluate_arith
            self._evaluate_arith = evaluate_arith
        # Reclamation frees a P-reg early so that a later allocation need
        # not evict.  A single-level machine (one P-reg per VVR) always
        # finds a free one, so it never reclaims: reclaiming there changes
        # no statistic, only which P-regs its issue timeline names.
        self.aggressive_reclamation = (
            scenario.policy.aggressive_reclamation and config.two_level)

        self.memsys = MemorySystem(scenario.memory)
        self.layout = MemoryLayout(program, config, functional=functional)
        self.vmu = VectorMemoryUnit(self.memsys, self.layout)
        self._mem_dead_time = self.params.mem_dead_time
        self._mem_first_latency = self.vmu.first_element_latency

        self.rat = RenameTable(config.n_logical, config.n_vvr)
        self.rac = RegisterAccessCounters(config.n_vvr)
        # The initial identity RAT mappings behave as if each VVR had been
        # renamed as a destination once: they carry the +1 that the old-dest
        # decrement releases when the logical register is first overwritten.
        for vvr in self.rat.live_vvrs():
            self.rac.increment(vvr)
        self.mapping = VRFMapping(config.n_vvr, config.n_physical)
        self.vrf = TwoLevelVRF(config.n_vvr, config.n_physical, config.mvl,
                               functional=functional)
        self.swap_logic = SwapLogic(self.mapping, self.rac, self.vrf,
                                    policy=scenario.policy.victim_policy)
        self.rob = ReorderBuffer(self.params.rob_entries,
                                 self.params.commit_width)

        self.dispatch_q: Deque[Instruction] = deque()
        self.pre_issue_q: Deque[MicroOp] = deque()
        self.arith_q: Deque[MicroOp] = deque()
        self.mem_q: Deque[MicroOp] = deque()

        # vvr -> in-flight producer micro-op (value not yet written back).
        self._pending_writer: Dict[int, MicroOp] = {}
        # vvr -> number of queued (pre-issued, not yet issued) readers; the
        # Swap Logic deprioritises these as victims (evicting one forces an
        # immediate Swap-Load back).
        self._vvr_queued_readers: Dict[int, int] = {}
        # preg -> outstanding reader micro-ops (pruned lazily once DONE).
        self._preg_readers: Dict[int, List[MicroOp]] = {}
        # preg -> the Swap-Store that freed it (issue rule 1).
        self._pending_store_guard: Dict[int, MicroOp] = {}
        # vvr -> in-flight Swap-Store filling its M-VRF home slot; a
        # Swap-Load of the same VVR depends on it through memory.
        self._pending_mvrf_store: Dict[int, MicroOp] = {}

        self._completions: List[Tuple[int, int, MicroOp]] = []
        self._seq = 0
        self._arith_busy_until = 0
        self._mem_busy_until = 0
        self._fetch_idx = 0
        self._scalar_time = 0.0
        self._inflight_mem = 0  # uncommitted vector memory instructions
        self._to_commit = sum(1 for i in program.insts if not i.is_scalar)
        # Single-level configurations (every VVR has a physical register)
        # can never evict and never reclaim, so no Swap Mechanism
        # bookkeeping is reachable: sources are always resident at
        # pre-issue and keep their residency until they issue, every
        # physical register returns to the free list only after all its
        # readers committed, and victim selection is never consulted.  The
        # reader-tracking side tables stay empty, and VectorPipeline skips
        # their maintenance, the RAC updates, M-VRF drops, generation
        # bumps and FIFO notes, and the source-residency version sums of
        # its issue memos.  The reference stepper keeps the RAC (and its
        # underflow check) on every machine.
        self._track_swap_state = config.two_level

        # Scheduler side-records kept by the shared model methods.  Issue
        # stamp: bumped on every _finish_issue.  A wake-up memo that
        # observed an unissued dependency stays "unknown" only while no
        # issue happened anywhere (an issue is the only event that can
        # give an unissued dependency a timestamp).
        self._issue_stamp = 0
        # The swap operations currently sitting in the memory queue, kept
        # as a side list so neither the jump computation nor the blocked
        # -gate wake has to rescan the whole queue per probe.
        self._queued_swaps: List[MicroOp] = []

        self.now = 0
        #: Cycles a steady-state jump skipped (:mod:`repro.vpu.steady`):
        #: while a run is in progress the true cycle is ``now`` plus this.
        self._cycle_offset = 0
        self.stats = SimStats(config_name=config.name,
                              program_name=program.name)

        # Microarchitectural sanitizer (None in normal runs: every hook
        # site is a single attribute test).
        self._san = None
        if sanitize:
            self._install_sanitizer()

    def _install_sanitizer(self) -> None:
        # Imported lazily: the sanitizer is debug tooling, not a simulation
        # dependency.
        from repro.analysis.sanitizer import PipelineSanitizer
        san = PipelineSanitizer(label=f"{self.config.name}/"
                                      f"{self.program.name}"
                                      f"{self._sanitizer_tag}",
                                two_level=self.config.two_level)
        san.bind(lambda: self.now, rat=self.rat, mapping=self.mapping)
        self.mapping.sanitizer = san
        self.vrf.sanitizer = san
        self.rob.sanitizer = san
        self.rat.sanitizer = san
        self._san = san

    # ------------------------------------------------------------------ utils
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _is_done(self, uop: MicroOp) -> bool:
        state = uop.state
        if state is _DONE or state is _COMMITTED:
            return True
        return state is _ISSUED and uop.done_at <= self.now

    @property
    def finished(self) -> bool:
        return self.rob.total_committed >= self._to_commit

    # ------------------------------------------------------------------ issue
    def _ready(self, uop: MicroOp) -> bool:
        """Chaining readiness: producers and guards issued.

        Producers: elements will stream in as this op consumes them.
        Guards (swap rules 1 and 2): the old value's Swap-Store / readers
        drain the register at stream rate one beat ahead of the new owner's
        writes, so issue may chain behind them too; the completion clamp in
        :meth:`_finish_issue` keeps the new owner's write-back behind their
        reads in time.  The stepper polls it; the scheduler reaches the
        same verdict through :meth:`VectorPipeline._resolve_head` and the
        memoized wake times.
        """
        delay = self.params.chain_issue_delay
        deps = list(uop.producers) + list(uop.reader_guards)
        if uop.store_guard is not None:
            deps.append(uop.store_guard)
        for p in deps:
            if p is None:
                continue
            if p.issued_at < 0 or p.issued_at + delay > self.now:
                return False
        return True

    def _head_wait_time(self, uop: MicroOp) -> Optional[float]:
        """Earliest cycle the queue head could become ready, if timestamped."""
        t = 0.0
        for p in uop.producers:
            if p is None:
                continue
            if p.issued_at < 0:
                return None  # producer not issued yet; no timestamp exists
            t = max(t, p.issued_at + self.params.chain_issue_delay)
        guards = list(uop.reader_guards)
        if uop.store_guard is not None:
            guards.append(uop.store_guard)
        for g in guards:
            if g.issued_at < 0:
                return None
            t = max(t, g.issued_at + self.params.chain_issue_delay)
        return t

    def _issue_memory_uop(self, uop: MicroOp) -> None:
        beats, fill_beats, miss_latency = self.vmu.plan(uop.inst)
        dead = self._mem_dead_time
        occupancy = dead + beats + fill_beats
        self._finish_issue(uop, occupancy, dead,
                           self._mem_first_latency + miss_latency)
        self._mem_busy_until = self.now + occupancy
        stats = self.stats
        stats.mem_busy_cycles += occupancy
        stats.mem_beats += beats
        self._count_issue(uop)
        if uop.inst.tag is _SWAP:
            self._queued_swaps.remove(uop)
            self._execute_swap(uop)
        else:
            self._execute_memory(uop)

    def _free_one_preg(self, excluded: List[int], front: bool) -> str:
        """Make the PFRL non-empty: reclaim, clean-evict, or Swap-Store."""
        if self.mapping.free_count > 0:
            return _OK
        reclaim = (self.swap_logic.reclaimable_vvr(excluded)
                   if self.aggressive_reclamation else None)
        if reclaim is not None:
            self.mapping.release(reclaim)
            self.swap_logic.note_release(reclaim)
            self.vrf.drop_mvrf(reclaim)
            return _OK
        victim = self._select_victim(excluded)
        if victim is None:
            return _STALL_VICTIM
        if self.vrf.has_mvrf_copy(victim):
            self._clean_evict(victim)
            return _OK
        if not front and len(self.mem_q) >= self.params.mem_queue_depth:
            return _STALL_QUEUE
        self._emit_swap_store(victim, front=front)
        return _CREATED

    def _finish_issue(self, uop: MicroOp, occupancy: int, dead: int,
                      latency: int) -> None:
        """Stamp issue/first-ready/done under the streaming-chaining model.

        The consumer's first element trails both its own pipeline
        (``dead + latency``) and its producers' first elements by its own
        latency; its last element trails its own stream and its producers'
        last elements likewise.  Occupancy is charged to the unit by the
        caller.
        """
        now = self.now
        uop.state = _ISSUED
        uop.issued_at = now
        self._issue_stamp += 1
        prod_first = 0
        prod_done = 0
        for p in uop.producers:
            if p is not None:
                if p.first_ready > prod_first:
                    prod_first = p.first_ready
                if p.done_at > prod_done:
                    prod_done = p.done_at
        # Swap rules in streaming form: this op's writes trail the old
        # value's store/readers, so its completion cannot precede theirs.
        guard_done = 0
        for g in uop.reader_guards:
            if g.done_at > guard_done:
                guard_done = g.done_at
        if uop.store_guard is not None and uop.store_guard.done_at > guard_done:
            guard_done = uop.store_guard.done_at
        # Comparisons rather than max(): this runs once per issued uop.
        first = now + dead + latency
        if prod_first + latency > first:
            first = prod_first + latency
        done = now + occupancy + latency
        if prod_done + latency > done:
            done = prod_done + latency
        if guard_done + 1 > done:
            done = guard_done + 1
        stream_end = first + (occupancy - dead if occupancy > dead else 0)
        if stream_end > done:
            done = stream_end
        uop.first_ready = first
        uop.done_at = done
        _heappush(self._completions, (done, uop.seq, uop))

    def _count_issue(self, uop: MicroOp) -> None:
        inst = uop.inst
        tag = inst.tag
        stats = self.stats
        if self._track_swap_state and tag is not _SWAP:
            # Swap ops never pass through pre-issue step C, so only regular
            # uops carry queued-reader pins.
            queued_readers = self._vvr_queued_readers
            for vvr in uop.src_vvrs:
                remaining = queued_readers.get(vvr, 0) - 1
                if remaining > 0:
                    queued_readers[vvr] = remaining
                else:
                    queued_readers.pop(vvr, None)
        if inst.is_arith:
            stats.arith_insts += 1
            stats.fpu_element_ops += inst.vl
        elif inst.is_load:
            if tag is _SPILL:
                stats.spill_loads += 1
            elif tag is _SWAP:
                stats.swap_loads += 1
            else:
                stats.vloads += 1
        else:
            if tag is _SPILL:
                stats.spill_stores += 1
            elif tag is _SWAP:
                stats.swap_stores += 1
            else:
                stats.vstores += 1

    # ------------------------------------------------------------------ execute
    def _execute_swap(self, uop: MicroOp) -> None:
        if uop.inst.is_store:
            victim = uop.src_vvrs[0]
            if self.vrf.generation(victim) != uop.swap_gen:
                # The generation this store was saving died while the store
                # waited in the queue (its readers all committed and the
                # register was reclaimed); the slot now belongs to a newer
                # generation and must not be overwritten.
                if self._san is not None:
                    self._san.on_swap_squashed(uop.src_pregs[0])
                return
            self.vrf.swap_out(victim, uop.src_pregs[0])
        else:
            assert uop.dst_vvr is not None and uop.dst_preg is not None
            if self.vrf.generation(uop.dst_vvr) != uop.swap_gen:
                raise AssertionError(
                    "swap-load executing for a dead VVR generation")
            self.vrf.swap_in(uop.dst_vvr, uop.dst_preg)

    # ------------------------------------------------------------------ mapping
    def _count_preissue_stall(self, outcome: str) -> None:
        if outcome == _STALL_VICTIM:
            self.stats.preissue_victim_stalls += 1
        else:
            self.stats.preissue_queue_stalls += 1

    def _select_victim(self, excluded: List[int]) -> Optional[int]:
        """Swap Logic victim choice with the pipeline's reload context."""
        return self.swap_logic.select_victim(
            excluded,
            has_queued_reader=lambda v: self._vvr_queued_readers.get(v, 0) > 0,
            rat_live=self.rat._rat,
            is_clean=self.vrf.has_mvrf_copy)

    def _clean_evict(self, victim: int) -> None:
        """Evict a VVR whose M-VRF copy is still valid: a pure remap."""
        self.mapping.evict(victim)
        self.swap_logic.note_release(victim)

    def _acquire_preg(self, excluded: List[int]) -> str:
        """Ensure the PFRL is non-empty (§III.C Swap-1, pre-issue path)."""
        return self._free_one_preg(excluded, front=False)

    def _emit_swap_store(self, victim: int, front: bool = False) -> None:
        preg = self.mapping.preg_of(victim)
        inst = Instruction(op=Op.VSE, srcs=(0,), vl=self.config.mvl,
                           mem=self.layout.mvrf_operand(victim), tag=_SWAP)
        uop = MicroOp(inst, seq=self._next_seq(), state=_PRE_ISSUED,
                      src_vvrs=(victim,), src_pregs=(preg,),
                      renamed_at=self.now, priority=front,
                      swap_gen=self.vrf.generation(victim))
        if self._san is not None:
            self._san.on_swap_store_emitted(preg)
        self.mapping.evict(victim)
        self.swap_logic.note_release(victim)
        self._pending_store_guard[preg] = uop
        self._pending_mvrf_store[victim] = uop
        self._preg_readers.setdefault(preg, []).append(uop)
        uop.validate_ordering()
        self._queued_swaps.append(uop)
        if front:
            self.mem_q.appendleft(uop)
        else:
            self.mem_q.append(uop)

    def _emit_swap_load(self, vvr: int, front: bool = False) -> None:
        preg = self.mapping.allocate(vvr)
        inst = Instruction(op=Op.VLE, dst=0, vl=self.config.mvl,
                           mem=self.layout.mvrf_operand(vvr), tag=_SWAP)
        uop = MicroOp(inst, seq=self._next_seq(), state=_PRE_ISSUED,
                      dst_vvr=vvr, dst_preg=preg, renamed_at=self.now,
                      priority=front, swap_gen=self.vrf.generation(vvr))
        self._attach_write_guards(uop, preg)
        # The load reads the M-VRF home slot; if the Swap-Store filling that
        # slot is still in flight, it is this load's data producer.
        filler = self._pending_mvrf_store.get(vvr)
        if filler is not None and not self._is_done(filler):
            uop.attach_producer(filler)
        self._pending_writer[vvr] = uop
        self.vrf.mark_pending(vvr)
        self.swap_logic.note_allocation(vvr)
        uop.validate_ordering()
        self._queued_swaps.append(uop)
        if front:
            # Priority load: jump the queue, but never ahead of the
            # Swap-Store that freed its physical register, nor ahead of the
            # Swap-Store filling its M-VRF slot — the memory queue issues in
            # order, so landing in front of either would deadlock or read a
            # slot that has not been written yet.
            idx = 0
            for dep in (uop.store_guard, filler):
                if dep is None or dep.issued_at >= 0:
                    continue
                for pos, queued in enumerate(self.mem_q):
                    if queued is dep:
                        idx = max(idx, pos + 1)
                        break
            self.mem_q.insert(idx, uop)
        else:
            self.mem_q.append(uop)

    def _attach_write_guards(self, writer: Optional[MicroOp],
                             preg: int) -> None:
        """Guard a new owner of ``preg`` against the old value's users.

        Rule 1: the Swap-Store that freed the register must have executed
        (the new owner chains behind it).  Rule 2: readers of the previous
        value that have already **issued** clamp the new owner's write-back
        behind their streaming reads; readers still waiting in a queue are
        *not* guards — their mapping went stale and they re-resolve their
        source at issue time (_ensure_operands), reloading the value from
        the M-VRF.  Restricting guards to issued micro-ops keeps the wait
        graph acyclic by construction.

        Passing ``writer=None`` just clears stale tracking (uninitialised
        reads own the register without writing it).
        """
        guard = self._pending_store_guard.pop(preg, None)
        readers = self._preg_readers.pop(preg, [])
        if writer is None:
            return
        if guard is not None:
            writer.attach_store_guard(guard)
        for reader in readers:
            if reader.issued_at >= 0 and not self._is_done(reader):
                writer.attach_reader_guard(reader)

    # ------------------------------------------------------------------ results
    def _harvest(self) -> None:
        self.stats.cycles = self.now
        self.stats.vrf_reads = self.vrf.pvrf_reads
        self.stats.vrf_writes = self.vrf.pvrf_writes
        self.stats.mvrf_reads = self.vrf.mvrf_reads
        self.stats.mvrf_writes = self.vrf.mvrf_writes
        l2 = self.memsys.l2.stats
        self.stats.l2_reads = l2.reads
        self.stats.l2_writes = l2.writes
        self.stats.l2_misses = l2.misses
        self.stats.dram_accesses = self.memsys.dram.accesses

    def _dump(self) -> str:
        lines = [
            f"pipeline deadlock at cycle {self.now + self._cycle_offset}"
            f" running {self.program.name} on {self.config.name}",
            f"committed {self.rob.total_committed}/{self._to_commit}",
            f"PFRL free={self.mapping.free_count}  "
            f"FRL free={self.rat.free_count}  ROB={self.rob.occupancy}",
        ]
        for name, queue in (("pre-issue", self.pre_issue_q),
                            ("mem", self.mem_q), ("arith", self.arith_q)):
            lines.append(f"{name} queue ({len(queue)}):")
            for uop in list(queue)[:4]:
                lines.append("  " + uop.describe())
        return "\n".join(lines)


class VectorPipeline(PipelineModel):
    """One VPU instance executing one program on one configuration.

    The span-charging scheduler over :class:`PipelineModel`: gated and
    memoized stage evaluation, event jumps, and the inlined stage bodies
    that the reference stepper's readable ones specify.
    """

    def __init__(self, *args, **kwargs) -> None:
        """Takes the :class:`PipelineModel` arguments."""
        super().__init__(*args, **kwargs)
        self._n_insts = len(self.program.insts)
        self._pre_issue_depth = self.params.pre_issue_depth
        self._mem_depth = self.params.mem_queue_depth
        self._arith_depth = self.params.arith_queue_depth
        self._swap_budget = self.params.preissue_swap_budget
        #: The run's swap-budget demand: the smallest
        #: ``preissue_swap_budget`` that reproduces it, one more than the
        #: most swap ops a pre-issue call had inserted at a budget check
        #: (0 while no Swap-Load was needed).  ``_NEVER`` once a check
        #: stopped a call: the run is *bound* by its budget.  A run that
        #: never bound is the same run at every budget >= its demand,
        #: since nothing but those checks reads the budget.
        self.swap_demand: float = 0
        #: ``(warm-up strips, period in strips, strips skipped)`` once a
        #: run extrapolated its steady state (:mod:`repro.vpu.steady`);
        #: None while it stepped in full.
        self.steady: Optional[Tuple[int, int, int]] = None
        self._arith_dead = self.params.arith_dead_time
        self._chain_delay = self.params.chain_issue_delay
        self._fifo_policy = self.swap_logic.policy is VictimPolicy.FIFO
        # Its pointer compares VVR ids, so such a run steps in full.
        self._round_robin = (self.config.two_level and self.swap_logic.policy
                             is VictimPolicy.ROUND_ROBIN)
        self._dispatch_depth = self.params.dispatch_queue_depth
        self._scalar_ratio = self.params.scalar_clock_ratio
        self._hand_off = (self.params.dispatch_scalar_cycles
                          / self._scalar_ratio)
        # Scalar dispatch wake-up: the earliest cycle _dispatch could make
        # progress again; _NEVER while blocked on a full dispatch queue
        # (rename resets it when it pops).
        self._dispatch_wake = 0.0

        # -- span-charging scheduler state --------------------------------
        # Memoized blocked memory gate.  While the memo proves the gate
        # must still report "no progress, no counters", the stage is not
        # entered at all.  Validity: same head object, same queue length,
        # wake not yet reached (or, when some dependency was unissued, no
        # issue since), and the head's source-residency version sum
        # unchanged.  A version sum of -1 marks a head whose sources cannot
        # change residency: a swap op, or any head on a single-level
        # machine.
        self._mg_head: Optional[MicroOp] = None
        self._mg_len = -1
        self._mg_wake = -1.0
        self._mg_istamp = -1
        self._mg_vsum = -1
        # (vl, beats per element) -> arith_beats at this machine's lanes.
        self._arith_beats: Dict[Tuple[int, float], int] = {}

    # ------------------------------------------------------------------ run
    def run(self, max_cycles: int = 200_000_000) -> SimStats:
        """Execute to completion; returns the accumulated statistics.

        One loop iteration evaluates one cycle; each stage is entered only
        when its O(1) gate holds (the gate mirrors the stage's no-progress
        early return, so skipping a stage is observationally identical to
        polling it).  A blocked memory gate and stalled pre-issue / rename
        heads are additionally *memoized*: while the memo proves the stage
        would report the same outcome again, only the stall counter the
        interval accrues is charged — the span-charging replay — and the
        stage body is never entered.  On a two-level machine a memo that
        depends on residency re-sums its head's source versions.  The
        arithmetic gate is probed in full whenever its unit is free.  When
        no gate holds or every entered stage reports a stall, the clock
        jumps straight to the next event.  On a run the steady-state
        tracker accepts, whole strip periods it has proven to repeat are
        skipped (module docstring).
        """
        stats = self.stats
        rob = self.rob
        rob_entries = rob._entries  # deque identity is stable
        rob_capacity = rob.capacity
        rat_frl = self.rat._frl
        completions = self._completions
        mem_q = self.mem_q
        arith_q = self.arith_q
        pre_issue_q = self.pre_issue_q
        dispatch_q = self.dispatch_q
        pre_issue_depth = self._pre_issue_depth
        mem_depth = self._mem_depth
        arith_depth = self._arith_depth
        to_commit = self._to_commit
        vvr_version = self.mapping.vvr_version
        track = self._track_swap_state
        done_state = _DONE
        # Counters charged in locals and added to ``stats`` once, when the
        # run ends or aborts.
        events = 0
        writer_stalls = 0
        queue_stalls = 0
        rob_stalls = 0
        frl_stalls = 0
        skipped = 0  # cycles jumped over
        spans = 0  # jumps
        now = self.now
        # Steady-state extrapolation (repro.vpu.steady) on runs whose
        # every step it can prove: timing-only, unsanitized, unrecorded,
        # not round-robin.  ``boundary`` is the next strip's scalar block;
        # once dispatch has fetched past it (``crossed``), the tracker
        # snapshots the machine at the top of the next cycle.
        steady = None
        boundary = self._n_insts
        crossed = False
        if not (self.functional or self._san is not None
                or self._round_robin or "_finish_issue" in vars(self)):
            from repro.vpu.steady import SteadyState
            steady = SteadyState(self, max_cycles)
            boundary = steady.boundary
        limit = max_cycles  # less the cycles jumps skipped
        try:
            while rob.total_committed < to_commit:
                if now > limit:
                    raise RuntimeError(
                        f"simulation exceeded {max_cycles} cycles "
                        f"(now={now + self._cycle_offset}, "
                        f"{rob.total_committed}/{to_commit} committed)")
                if crossed:
                    crossed = False
                    jump = steady.at_boundary(
                        now, (events, writer_stalls, queue_stalls,
                              rob_stalls, frl_stalls, skipped, spans))
                    boundary = steady.boundary
                    if jump is not None:
                        # n periods skipped: the tracker advanced the
                        # program and every counter outside this frame.
                        n, (d_events, d_writer, d_queue, d_rob, d_frl,
                            d_skipped, d_spans) = jump
                        events += n * d_events
                        writer_stalls += n * d_writer
                        queue_stalls += n * d_queue
                        rob_stalls += n * d_rob
                        frl_stalls += n * d_frl
                        skipped += n * d_skipped
                        spans += n * d_spans
                        limit = max_cycles - self._cycle_offset
                events += 1
                progress = False
                if rob_entries and rob_entries[0].state is done_state:
                    progress = self._commit()
                if completions and completions[0][0] <= now:
                    self._complete()
                    progress = True
                if mem_q and self._mem_busy_until <= now:
                    # Memoized blocked gate: while the queue composition is
                    # unchanged, the head's wake has not arrived (or no
                    # issue happened since an unissued dependency was
                    # observed), and no source changed residency, the gate
                    # must still report "blocked, nothing to count" — skip
                    # the stage body.
                    head = mem_q[0]
                    blocked = False
                    if head is self._mg_head and len(mem_q) == self._mg_len:
                        wake = self._mg_wake
                        if (now < wake if wake >= 0.0
                                else self._issue_stamp == self._mg_istamp):
                            vsum = self._mg_vsum
                            if vsum < 0:  # sources cannot move
                                blocked = True
                            else:
                                s = 0
                                for v in head.src_vvrs:
                                    s += vvr_version[v]
                                blocked = s == vsum
                    if not blocked:
                        progress |= self._issue_memory()
                if arith_q and self._arith_busy_until <= now:
                    progress |= self._issue_arith()
                if pre_issue_q:
                    # Inlined pre-issue stall memo (both kinds): re-count
                    # the stall while it provably still holds, without
                    # entering the stage.  A single-level machine's sources
                    # never change residency, so its writer stall holds
                    # exactly while the awaited producer has no P-reg.  A
                    # two-level machine's holds while no source of the head
                    # changed residency: its version sum is unchanged.
                    head = pre_issue_q[0]
                    pk = head.preissue_stall_version
                    if pk >= 0:
                        # None: the stall is a full issue queue.
                        producer = head.preissue_stall_on
                        if not track:
                            held = (producer is None
                                    or producer.dst_preg is None)
                        else:
                            s = 0
                            for v in head.src_vvrs:
                                s += vvr_version[v]
                            held = s == pk
                        if held and producer is not None:
                            writer_stalls += 1
                        elif held and (len(mem_q) >= mem_depth
                                       if head.inst.is_memory
                                       else len(arith_q) >= arith_depth):
                            queue_stalls += 1
                        else:
                            head.preissue_stall_version = -1
                            head.preissue_stall_on = None
                            progress |= self._pre_issue()
                    else:
                        progress |= self._pre_issue()
                if dispatch_q and len(pre_issue_q) < pre_issue_depth:
                    # Inlined rename stall charging (the stage's two
                    # no-progress early returns, re-checked in O(1)).
                    if len(rob_entries) >= rob_capacity:
                        rob_stalls += 1
                    elif dispatch_q[0].dst is not None and not rat_frl:
                        frl_stalls += 1
                    else:
                        progress |= self._rename()
                if now >= self._dispatch_wake:  # _NEVER once all fetched
                    progress |= self._dispatch()
                    if self._fetch_idx > boundary:
                        crossed = True
                if progress:
                    self.now = now = now + 1
                else:
                    # No stage can act: jump straight to the next event.
                    # The budget is re-checked at the loop top — one jump
                    # can leap far past max_cycles and must not execute a
                    # cycle there.  Span accounting: the covered span is
                    # the evaluated probe cycle plus the jump.
                    target = self._fast_forward()
                    skipped += target - now
                    spans += 1
                    self.now = now = target
        finally:
            stats.events_processed += events
            stats.preissue_writer_stalls += writer_stalls
            stats.preissue_queue_stalls += queue_stalls
            stats.rename_rob_stalls += rob_stalls
            stats.rename_frl_stalls += frl_stalls
            stats.cycles_skipped += skipped
            stats.spans_charged += spans
            # Every exit reports the true cycle.
            self.now += self._cycle_offset
            self._cycle_offset = 0
        self._harvest()
        if self._san is not None:
            self._san.on_run_end(self.stats)
        return self.stats

    def _fast_forward(self) -> int:
        """The earliest future event in the unified set: where ``run``
        jumps ``now`` when no stage can act.

        Every queue-head / queued-swap candidate comes from the memoized
        per-uop wake timestamps (:meth:`_ready_wake`, whose final-memo hit
        is read in place), and the swap candidates come from the
        maintained side list instead of a rescan of the whole memory queue
        — one jump is O(queued swaps) with O(1) per candidate, and O(1)
        when the memos hold.  The caller moves the clock and charges the
        span counters, so an idle event writes no ``SimStats`` field.
        """
        now = self.now
        best = _NEVER
        if self._completions:
            c = self._completions[0][0]
            if now < c < best:
                best = c
        mem_q = self.mem_q
        if mem_q:
            c = self._mem_busy_until
            if now < c < best:
                best = c
            head = mem_q[0]
            wait = head.wake_at
            if wait < 0.0:
                wait = self._ready_wake(head)
            if wait is not None and now < wait < best:
                best = wait
            # Swap ops can issue out of order past a blocked head.  (A
            # swap head contributes twice; the min is unaffected.)
            for queued in self._queued_swaps:
                wait = queued.wake_at
                if wait < 0.0:
                    wait = self._ready_wake(queued)
                if wait is not None and now < wait < best:
                    best = wait
        if self.arith_q:
            c = self._arith_busy_until
            if now < c < best:
                best = c
            head = self.arith_q[0]
            wait = head.wake_at
            if wait < 0.0:
                wait = self._ready_wake(head)
            if wait is not None and now < wait < best:
                best = wait
        if self._fetch_idx < self._n_insts:
            c = math.ceil(self._scalar_time)
            if now < c < best:
                best = c
        if best is _NEVER:
            raise DeadlockError(self._dump())
        return int(best)

    def _ready_wake(self, uop: MicroOp) -> Optional[float]:
        """Memoized :meth:`_head_wait_time`: earliest readiness timestamp.

        Once every dependency has issued the value is final (``issued_at``
        never changes after issue and the dependency set resets the memo
        when mutated); while some dependency is unissued, "unknown" stays
        valid until the next issue anywhere (the only event that can stamp
        it).
        """
        w = uop.wake_at
        if w >= 0.0:
            return w
        if w == -1.0 and uop.wake_stamp == self._issue_stamp:
            return None
        delay = self._chain_delay
        t = 0.0
        for p in uop.producers:
            if p is None:
                continue
            issued = p.issued_at
            if issued < 0:
                uop.wake_at = -1.0
                uop.wake_stamp = self._issue_stamp
                return None  # producer not issued yet; no timestamp exists
            if issued + delay > t:
                t = issued + delay
        for g in uop.reader_guards:
            issued = g.issued_at
            if issued < 0:
                uop.wake_at = -1.0
                uop.wake_stamp = self._issue_stamp
                return None
            if issued + delay > t:
                t = issued + delay
        g = uop.store_guard
        if g is not None:
            issued = g.issued_at
            if issued < 0:
                uop.wake_at = -1.0
                uop.wake_stamp = self._issue_stamp
                return None
            if issued + delay > t:
                t = issued + delay
        uop.wake_at = t
        return t

    def _gate_wake(self, uop: MicroOp) -> Optional[float]:
        """Earliest cycle a blocked memory-gate *probe* could see this head
        ready (the wake :meth:`_memoize_mem_gate` memoizes).

        Differs from :meth:`_ready_wake` on one point: the resolve fast
        path prunes producers the moment they are DONE, so for a non-swap
        head each producer's constraint expires at
        ``min(issued_at + delay, done_at)`` — the probe stops seeing the
        producer at its ``done_at`` even when the chain delay would reach
        further.  Guards are never pruned and constrain until
        ``issued_at + delay`` exactly, as do a swap head's producers
        (swap resolution has no pruning pass).
        """
        delay = self._chain_delay
        t = 0.0
        if uop.inst.tag is not _SWAP:
            for p in uop.producers:
                if p is None:
                    continue
                issued = p.issued_at
                if issued < 0:
                    return None
                w = issued + delay
                done = p.done_at
                if done < w:
                    w = done
                if w > t:
                    t = w
        else:
            for p in uop.producers:
                if p is None:
                    continue
                issued = p.issued_at
                if issued < 0:
                    return None
                if issued + delay > t:
                    t = issued + delay
        for g in uop.reader_guards:
            issued = g.issued_at
            if issued < 0:
                return None
            if issued + delay > t:
                t = issued + delay
        g = uop.store_guard
        if g is not None:
            issued = g.issued_at
            if issued < 0:
                return None
            if issued + delay > t:
                t = issued + delay
        return t

    # ------------------------------------------------------------------ commit
    def _commit(self) -> bool:
        """Retire up to ``commit_width`` completed ROB heads (gate: head is
        DONE)."""
        now = self.now
        rob = self.rob
        entries = rob._entries
        retired = 0
        width = rob.commit_width
        done_state = _DONE
        while retired < width and entries:
            head = entries[0]
            if head.state is not done_state or head.done_at > now:
                break
            # Inlined ReorderBuffer.retire (the popped entry is the head
            # just examined, so the out-of-order check cannot fire).
            if self._san is not None:
                self._san.on_commit(head)
            entries.popleft()
            head.state = _COMMITTED
            rob.total_committed += 1
            self._retire(head)
            retired += 1
        return retired > 0

    def _retire(self, uop: MicroOp) -> None:
        # Inlined RAC decrement + reclamation test (saturating-counter
        # semantics exactly as RegisterAccessCounters.decrement /
        # is_reclaimable), and the old destination's release inlined
        # (VRFMapping.release / drop_mvrf / reset / mark_valid / the FRL
        # return of RenameTable.commit): this runs once per committed
        # instruction and dominated commit cost as method calls.  A
        # single-level machine keeps only the mapping release, the valid
        # bit and the FRL return: nothing there reads the RAC, the M-VRF,
        # the generations or the FIFO order.
        vrf = self.vrf
        mapping = self.mapping
        vrlt = mapping._vrlt
        valid = vrf._valid
        track = self._track_swap_state
        if track:
            counts = self.rac._counts
            saturated = self.rac._saturated
            generation = vrf._generation
            mvrf_valid = vrf._mvrf_valid
            mvrf = vrf._mvrf
            fifo = self._fifo_policy
            aggressive = self.aggressive_reclamation
            for vvr in uop.src_vvrs:
                if saturated[vvr]:
                    continue  # saturated: no decrement, never reclaimable
                count = counts[vvr]
                if count == 0:
                    raise RuntimeError(f"RAC underflow on VVR {vvr}: "
                                       f"update protocol violated")
                counts[vvr] = count = count - 1
                if count == 0 and aggressive and vrlt[vvr] and valid[vvr]:
                    mapping.release(vvr)
                    if fifo:
                        self.swap_logic.note_release(vvr)
                    # drop_mvrf: the generation is dead.
                    mvrf.pop(vvr, None)
                    mvrf_valid.discard(vvr)
                    generation[vvr] += 1
        old = uop.old_dst_vvr  # set exactly when dst_vvr is
        if old is not None:
            # VRFMapping.release: the sanitizer sees the evicted state
            # first, then the released one, as release() shows it.
            prmt = mapping._prmt
            preg = prmt[old]  # None unless the VVR is resident
            if preg is not None:
                vrlt[old] = False
                mapping._owner[preg] = None
                mapping._pfrl.append(preg)
                prmt[old] = None
            san = self._san
            if san is not None and preg is not None:
                mapping._in_mvrf[old] = True
                san.on_map_evict(old, preg)
            mapping._in_mvrf[old] = False
            if san is not None:
                san.on_map_release(old, preg)
            if track:
                mapping.vvr_version[old] += 1
                if fifo:
                    self.swap_logic.note_release(old)
                mvrf.pop(old, None)  # drop_mvrf
                mvrf_valid.discard(old)
                generation[old] += 1
                counts[old] = 0  # RAC reset
                saturated[old] = False
            valid[old] = True  # mark_valid
            self.rat._frl.append(old)  # RenameTable.commit
        if uop.inst.is_memory:
            self._inflight_mem -= 1
        self.stats.committed += 1

    # ------------------------------------------------------------------ complete
    def _complete(self) -> None:
        """Flip due micro-ops to DONE (gate: completion heap top is due)."""
        completions = self._completions
        now = self.now
        heappop = _heappop
        valid = self.vrf._valid
        pending_writer = self._pending_writer
        done_state = _DONE
        while completions and completions[0][0] <= now:
            uop = heappop(completions)[2]
            uop.state = done_state
            dst_vvr = uop.dst_vvr
            if dst_vvr is not None:
                valid[dst_vvr] = True  # mark_valid
                if pending_writer.get(dst_vvr) is uop:
                    del pending_writer[dst_vvr]
            inst = uop.inst
            if inst.tag is _SWAP and inst.is_store:
                victim = uop.src_vvrs[0]
                if self._pending_mvrf_store.get(victim) is uop:
                    del self._pending_mvrf_store[victim]

    # ------------------------------------------------------------------ issue
    def _issue_memory(self) -> bool:
        """Issue the memory-queue head (gate: queue non-empty, unit free)."""
        uop = self.mem_q[0]
        code = self._resolve_head(uop)
        if code == _R_READY:
            self.mem_q.popleft()
            self._issue_memory_uop(uop)
            return True
        if code == _R_CREATED:
            return True  # a priority swap op now heads the memory queue
        if code == _R_VICTIM:
            # Victim-stall outcomes depend on RAC state that can change
            # without a mapping transition, so they are never memoized:
            # the stall is re-counted by a real probe every cycle.
            self.stats.issue_victim_stalls += 1
            return self._issue_swap_bypass()
        if self._issue_swap_bypass():
            return True
        # Head waits on timestamps only (_R_WAIT) and no queued swap is
        # ready: memoize the closed gate so re-probes charge nothing in
        # O(1) until something observable changes.
        self._memoize_mem_gate(uop)
        return False

    def _memoize_mem_gate(self, head: MicroOp) -> None:
        wake = self._gate_wake(head)
        if wake is not None:
            for cand in self._queued_swaps:
                if cand is head:
                    continue
                w = self._ready_wake(cand)
                if w is None:
                    wake = None
                    break
                if w < wake:
                    wake = w
        if wake is None:
            self._mg_wake = -1.0
            self._mg_istamp = self._issue_stamp
        else:
            self._mg_wake = wake
        self._mg_head = head
        self._mg_len = len(self.mem_q)
        if head.inst.tag is _SWAP or not self._track_swap_state:
            self._mg_vsum = -1
        else:
            vvr_version = self.mapping.vvr_version
            s = 0
            for v in head.src_vvrs:
                s += vvr_version[v]
            self._mg_vsum = s

    def _issue_swap_bypass(self) -> bool:
        """Issue a ready swap op from behind a blocked memory-queue head.

        Swap operations move data between the P-VRF and the M-VRF only —
        they can never alias application memory — so when the in-order head
        is stalled, the memory unit may service a younger ready swap op
        instead.  This both resolves head-waits-on-queued-swap chains (the
        head's own source may be coming back via a Swap-Load sitting behind
        it) and overlaps swap traffic with dependency stalls.
        """
        if not self._queued_swaps:
            return False
        mem_q = self.mem_q
        now = self.now
        for idx in range(1, len(mem_q)):
            cand = mem_q[idx]
            if cand.inst.tag is not _SWAP:
                continue
            # Memoized readiness: ready iff every dependency issued and the
            # latest wake timestamp has arrived (exactly _ready()).
            wake = self._ready_wake(cand)
            if wake is None or wake > now:
                continue
            del mem_q[idx]
            self._issue_memory_uop(cand)
            return True
        return False

    def _issue_arith(self) -> bool:
        """Issue the arithmetic-queue head (gate: queue non-empty, unit
        free)."""
        uop = self.arith_q[0]
        code = self._resolve_head(uop)
        if code != _R_READY:
            if code == _R_CREATED:
                return True
            if code == _R_VICTIM:
                self.stats.issue_victim_stalls += 1
            return False  # or _R_WAIT: a pure timestamp wait
        self.arith_q.popleft()
        inst = uop.inst
        info = inst.info
        key = (inst.vl, info.beats_per_element)
        beats = self._arith_beats.get(key)
        if beats is None:
            beats = self._arith_beats[key] = arith_beats(*key,
                                                         self.config.lanes)
        dead = self._arith_dead
        occupancy = dead + beats
        self._finish_issue(uop, occupancy, dead, info.latency)
        self._arith_busy_until = self.now + occupancy
        # Inlined _count_issue for an arithmetic uop.
        stats = self.stats
        stats.arith_busy_cycles += occupancy
        if self._track_swap_state:
            queued_readers = self._vvr_queued_readers
            for vvr in uop.src_vvrs:
                remaining = queued_readers.get(vvr, 0) - 1
                if remaining > 0:
                    queued_readers[vvr] = remaining
                else:
                    queued_readers.pop(vvr, None)
        stats.arith_insts += 1
        stats.fpu_element_ops += inst.vl
        self._execute_arith(uop)
        return True

    def _resolve_head(self, uop: MicroOp) -> int:
        """Fused issue probe: operand resolution + chaining readiness.

        Returns ``_R_READY`` / ``_R_WAIT`` / ``_R_CREATED`` (a priority swap
        op was generated) / ``_R_VICTIM`` (no legal swap victim).  Producer
        readiness is computed during the same pass that prunes completed
        producers, and guard readiness is checked after destination
        allocation (which is what attaches guards), preserving the exact
        evaluation order of the original resolve-then-ready sequence.

        Issue-time operand resolution (§VIII: registers "at issue time").

        Sources were resolved optimistically at pre-issue, but a mapping can
        have gone stale if the Swap Logic evicted the VVR while this
        instruction waited in its queue; such sources are re-resolved here,
        generating a **priority Swap-Load** at the memory-queue front.  The
        destination physical register is assigned here (not at queue entry),
        so queued instructions hold no registers and P-VRF pressure tracks
        live architectural values, not window depth.  When the PFRL is empty
        the Swap Mechanism first reclaims an RAC==0 register, then evicts a
        clean victim for free, and only then creates a **priority
        Swap-Store** (Swap-1; issue rule 1 makes the new owner trail it).

        Source re-resolution is memoized against the sources' per-VVR
        residency versions, seeded when pre-issue mapped the sources: while
        none of this uop's sources changes residency, the sources cannot go
        stale, the reader bookkeeping cannot change, and the pre-issue
        producer links stay correct — the only effect a full re-resolution
        could have is replacing now-completed producers with ``None``, which
        the fast path performs directly.  Destination allocation may evict
        *other* VVRs (sources are excluded), so it never invalidates the
        uop's own memo.  A single-level machine never evicts or reclaims,
        so there the fast path always applies and no version is summed.
        """
        mapping = self.mapping
        now = self.now
        delay = self._chain_delay
        ready = True
        if uop.inst.tag is not _SWAP:
            if self._track_swap_state:
                vvr_version = mapping.vvr_version
                vsum = 0
                for v in uop.src_vvrs:
                    vsum += vvr_version[v]
                fresh = uop.resolved_version == vsum
            else:
                # Single-level: pre-issue mapped every source, and none can
                # change residency before this uop issues.
                fresh = True
            if fresh:
                producers = uop.producers
                for i, p in enumerate(producers):
                    if p is not None:
                        state = p.state
                        if (state is _DONE or state is _COMMITTED
                                or (state is _ISSUED and p.done_at <= now)):
                            producers[i] = None
                            uop.wake_at = -2.0  # dependency set changed
                        elif p.issued_at < 0 or p.issued_at + delay > now:
                            ready = False
            else:
                refreshed = []
                for vvr in uop.src_vvrs:
                    if not mapping.in_pvrf(vvr):
                        if not mapping.in_mvrf(vvr):
                            raise AssertionError(
                                f"source VVR {vvr} of {uop.describe()} has "
                                f"neither a physical register nor an M-VRF "
                                f"home")
                        excluded = list(uop.src_vvrs)
                        if uop.dst_vvr is not None:
                            excluded.append(uop.dst_vvr)
                        outcome = self._free_one_preg(excluded, front=True)
                        if outcome == _STALL_VICTIM:
                            return _R_VICTIM
                        if outcome != _OK:
                            return _R_CREATED
                        self._emit_swap_load(vvr, front=True)
                        return _R_CREATED
                    refreshed.append(mapping.preg_of(vvr))
                new_pregs = tuple(refreshed)
                # Rebuild the producer links: a source was evicted and
                # Swap-Loaded back (possibly into the same physical
                # register) while this instruction waited, and its value now
                # comes from that in-flight Swap-Load.
                uop.producers = []
                for vvr in uop.src_vvrs:
                    producer = self._pending_writer.get(vvr)
                    uop.attach_producer(
                        producer if producer is not None
                        and not self._is_done(producer) else None)
                if new_pregs != uop.src_pregs:
                    uop.src_pregs = new_pregs
                    for preg in new_pregs:
                        readers = self._preg_readers.setdefault(preg, [])
                        if uop not in readers:
                            readers.append(uop)
                # The rebuild itself performs no mapping transition, so the
                # entry sum still describes the sources.
                uop.resolved_version = vsum
                for p in uop.producers:
                    if p is not None and (p.issued_at < 0
                                          or p.issued_at + delay > now):
                        ready = False
                        break
        else:
            for p in uop.producers:
                if p is not None and (p.issued_at < 0
                                      or p.issued_at + delay > now):
                    ready = False
                    break

        if uop.dst_vvr is not None and uop.dst_preg is None:
            created = False
            if not mapping._pfrl:
                excluded = [*uop.src_vvrs, uop.dst_vvr]
                outcome = self._free_one_preg(excluded, front=True)
                if outcome == _CREATED:
                    created = True
                elif outcome != _OK:
                    return _R_VICTIM
            # Inlined VRFMapping.allocate (the PFRL is non-empty here).
            dst = uop.dst_vvr
            if mapping._vrlt[dst]:
                raise RuntimeError(f"VVR {dst} is already mapped in the "
                                   f"P-VRF")
            preg = mapping._pfrl.popleft()
            mapping._prmt[dst] = preg
            mapping._vrlt[dst] = True
            mapping._in_mvrf[dst] = False
            mapping._owner[preg] = dst
            if self._san is not None:
                self._san.on_map_alloc(dst, preg)
            if self._track_swap_state:
                mapping.vvr_version[dst] += 1
                self._attach_write_guards(uop, preg)
            uop.dst_preg = preg
            if created:
                return _R_CREATED
        if not ready:
            return _R_WAIT
        # Guard readiness last: destination allocation (just above) is what
        # attaches guards, matching the resolve-then-ready original order.
        for g in uop.reader_guards:
            if g.issued_at < 0 or g.issued_at + delay > now:
                return _R_WAIT
        g = uop.store_guard
        if g is not None and (g.issued_at < 0 or g.issued_at + delay > now):
            return _R_WAIT
        return _R_READY

    def _src_version_sum(self, uop: MicroOp) -> int:
        vvr_version = self.mapping.vvr_version
        vsum = 0
        for v in uop.src_vvrs:
            vsum += vvr_version[v]
        return vsum

    # ------------------------------------------------------------------ execute
    def _execute_arith(self, uop: MicroOp) -> None:
        inst = uop.inst
        assert uop.dst_preg is not None
        if self._san is not None:
            self._san.on_execute(uop)
        if not self.functional:
            # Counters only (identical to read_preg per source plus one
            # write_preg, without the per-call overhead).
            vrf = self.vrf
            vl = inst.vl
            vrf.pvrf_reads += vl * len(uop.src_pregs)
            vrf.pvrf_writes += vl
            return
        # Zero-copy source views: every evaluator builds a fresh output
        # array, and write_preg copies, so no view outlives this call.
        vrf = self.vrf
        vl = inst.vl
        values = []
        for preg in uop.src_pregs:
            values.append(vrf.read_preg_view(preg, vl))
        vrf.write_preg(uop.dst_preg,
                       self._evaluate_arith(inst.op, values, inst.scalar, vl),
                       vl)

    def _execute_memory(self, uop: MicroOp) -> None:
        inst = uop.inst
        mem = inst.mem
        assert mem is not None
        if self._san is not None:
            self._san.on_execute(uop)
        if not self.functional:
            # Counters only, mirroring the functional path's VRF traffic.
            vrf = self.vrf
            vl = inst.vl
            if inst.is_load:
                assert uop.dst_preg is not None
                if mem.indexed:
                    vrf.pvrf_reads += vl
                vrf.pvrf_writes += vl
            else:
                vrf.pvrf_reads += vl * (2 if mem.indexed else 1)
            return
        # Functional path on zero-copy views: layout.store / write_preg copy
        # on write, so the views are consumed before any buffer mutates.
        vrf = self.vrf
        if inst.is_load:
            assert uop.dst_preg is not None
            if mem.indexed:
                index = vrf.read_preg_view(uop.src_pregs[0], inst.vl)
                data = self.layout.load(mem, inst.vl, index)
            else:
                data = self.layout.load_view(mem, inst.vl)
            vrf.write_preg(uop.dst_preg, data, inst.vl)
            return
        # Store: data always comes from srcs[0]; gather index from srcs[1].
        data = vrf.read_preg_view(uop.src_pregs[0], inst.vl)
        index = None
        if mem.indexed:
            index = vrf.read_preg_view(uop.src_pregs[1], inst.vl)
        assert data is not None
        self.layout.store(mem, inst.vl, data, index)

    # ------------------------------------------------------------------ pre-issue
    def _pre_issue(self) -> bool:
        """Advance the second-level mapping (gate: pre-issue queue
        non-empty, and no stall memo on the head).

        A head waiting on an unissued producer cannot unblock until that
        source is allocated a physical register, and a head stalled on a
        full issue queue re-checks only the queue depth.  On a two-level
        machine the stall is memoized against the head's sources' residency
        versions (an allocation bumps the source's version; an eviction may
        move another source).  On a single-level machine no source ever
        moves, so the memo records the awaited producer and holds while its
        ``dst_preg`` is unset.  While the memo holds, :meth:`run` re-counts
        the stall — exactly what a full re-evaluation would do — without
        entering the stage, and it clears a memo that no longer holds
        before entering.
        """
        uop = self.pre_issue_q[0]
        mapping = self.mapping
        src_vvrs = uop.src_vvrs
        excluded: Optional[List[int]] = None  # built lazily; contents fixed

        # Step A: map sources; evicted sources need a Swap-Load each.  Swap
        # generation is combinational with the mapping update, so mapping can
        # complete in the same cycle as dispatch, but the memory queue
        # accepts at most `preissue_swap_budget` inserted swap ops per cycle.
        budget = self._swap_budget
        vrlt = mapping._vrlt
        for vvr in src_vvrs:
            if vrlt[vvr]:
                continue
            if excluded is None:
                excluded = list(src_vvrs)
                if uop.dst_vvr is not None:
                    excluded.append(uop.dst_vvr)
            if mapping._in_mvrf[vvr]:
                if budget <= 0:
                    self.swap_demand = _NEVER
                    return True  # resume next cycle
                outcome = self._acquire_preg(excluded)
                if outcome == _CREATED:
                    budget -= 1
                    if budget <= 0:
                        self.swap_demand = _NEVER
                        return True
                    outcome = self._acquire_preg(excluded)
                # Every budget check of this Swap-Load passed; at the last
                # one the call had inserted ``_swap_budget - budget`` ops.
                demand = self._swap_budget - budget + 1
                if demand > self.swap_demand:
                    self.swap_demand = demand
                if outcome != _OK:
                    self._count_preissue_stall(outcome)
                    return False
                self._emit_swap_load(vvr)
                budget -= 1
                continue
            producer = self._pending_writer.get(vvr)
            if producer is not None:
                # The producer has not issued yet, so the VVR has no physical
                # register (destinations are assigned at issue time).  Wait
                # in order; the producer sits ahead in an issue queue.
                self.stats.preissue_writer_stalls += 1
                uop.preissue_stall_version = (
                    self._src_version_sum(uop) if self._track_swap_state
                    else 0)
                uop.preissue_stall_on = producer
                return False
            # Never-defined source: allocate and read the SRAM reset state.
            outcome = self._acquire_preg(excluded)
            if outcome == _CREATED:
                return True
            if outcome != _OK:
                self._count_preissue_stall(outcome)
                return False
            preg = mapping.allocate(vvr)
            if self._san is not None:
                # Reading the reset state of a never-defined source is
                # legal, not a read-before-write.
                self._san.on_reset_alloc(preg)
            self._attach_write_guards(None, preg)  # drop stale guards
            if self._track_swap_state:
                self.swap_logic.note_allocation(vvr)

        # Step B (destination mapping) happens at issue time — see
        # _resolve_head.  Step C: dispatch into the issue queue.
        if uop.inst.is_memory:
            target = self.mem_q
            full = len(target) >= self._mem_depth
        else:
            target = self.arith_q
            full = len(target) >= self._arith_depth
        if full:
            self.stats.preissue_queue_stalls += 1
            uop.preissue_stall_version = (
                self._src_version_sum(uop) if self._track_swap_state else 0)
            return False

        # One pass over the sources records their pregs and producer links
        # and, on swapping machines, their reader pins and the sum of their
        # residency versions that seeds the issue-time resolution memo: the
        # links and pregs recorded here stay correct until a source changes
        # residency, which only a two-level machine can make happen.
        # It also checks validate_ordering's invariant for the uop's
        # queue-entry seq: guards attach only at issue, so the producers
        # are its only dependencies here.
        seq = self._seq + 1  # inlined _next_seq
        prmt = mapping._prmt
        vvr_version = mapping.vvr_version
        now = self.now
        pending_writer = self._pending_writer
        producers = uop.producers
        track = self._track_swap_state
        preg_readers = self._preg_readers
        queued_readers = self._vvr_queued_readers
        pregs = []
        vsum = 0
        for vvr in src_vvrs:
            preg = prmt[vvr]
            pregs.append(preg)
            producer = pending_writer.get(vvr)
            if producer is not None:
                state = producer.state
                if (state is _DONE or state is _COMMITTED
                        or (state is _ISSUED and producer.done_at <= now)):
                    producer = None
                elif not producer.priority and (producer.seq < 0
                                                or producer.seq >= seq):
                    raise ordering_error(seq, producer.seq)
            producers.append(producer)
            if track:
                vsum += vvr_version[vvr]
                preg_readers.setdefault(preg, []).append(uop)
                queued_readers[vvr] = queued_readers.get(vvr, 0) + 1
        uop.src_pregs = tuple(pregs)
        if track:
            uop.resolved_version = vsum
        # The destination physical register is assigned at issue time
        # (_resolve_head); uop.dst_preg stays None until then.
        uop.state = _PRE_ISSUED
        self._seq = uop.seq = seq
        self.pre_issue_q.popleft()
        target.append(uop)
        return True

    # ------------------------------------------------------------------ rename
    def _rename(self) -> bool:
        """First-level rename of the dispatch-queue head (gate: queue
        non-empty, pre-issue queue not full, and neither of the stage's
        stalls — a full ROB, or an empty FRL for a destination — which
        :meth:`run` charges itself)."""
        rob = self.rob
        rat = self.rat
        inst = self.dispatch_q.popleft()
        # A dispatch-queue slot opened up: let the scalar core re-evaluate
        # (it runs after rename within the same cycle, as before).
        self._dispatch_wake = 0.0

        # Inlined RAT lookups and saturating RAC updates (semantics of
        # RenameTable.rename_sources / RegisterAccessCounters.increment and
        # .decrement): this is once-per-instruction work on the hot path.
        # Only the Swap Mechanism reads the RAC, so a single-level machine
        # skips it.
        rat_map = rat._rat
        track = self._track_swap_state
        counts = self.rac._counts
        saturated = self.rac._saturated
        vvrs = []
        if track:
            for logical in inst.srcs:
                vvr = rat_map[logical]
                vvrs.append(vvr)
                if not saturated[vvr]:
                    if counts[vvr] >= RAC_MAX:
                        saturated[vvr] = True
                    else:
                        counts[vvr] += 1
        else:
            for logical in inst.srcs:
                vvrs.append(rat_map[logical])
        src_vvrs = tuple(vvrs)
        dst_vvr = old_vvr = None
        if inst.dst is not None:
            # Inlined RenameTable.rename_destination (FRL checked above).
            old_vvr = rat_map[inst.dst]
            dst_vvr = rat._frl.popleft()
            rat_map[inst.dst] = dst_vvr
            if self._san is not None:
                self._san.on_rename()
            self.vrf._valid[dst_vvr] = False  # mark_pending
            if track:
                if not saturated[dst_vvr]:
                    if counts[dst_vvr] >= RAC_MAX:
                        saturated[dst_vvr] = True
                    else:
                        counts[dst_vvr] += 1
                if not saturated[old_vvr]:
                    count = counts[old_vvr]
                    if count == 0:
                        raise RuntimeError(f"RAC underflow on VVR {old_vvr}: "
                                           f"update protocol violated")
                    counts[old_vvr] = count - 1
                # Aggressive reclamation case 1 at rename time, guarded by
                # the paper's condition (b): no older vector memory
                # instruction may be in flight (they are the recovery-event
                # sources).
                if (self.aggressive_reclamation
                        and self._inflight_mem == 0
                        and not saturated[old_vvr] and counts[old_vvr] == 0
                        and self.mapping._vrlt[old_vvr]
                        and self.vrf._valid[old_vvr]):
                    self.mapping.release(old_vvr)
                    self.swap_logic.note_release(old_vvr)
                    self.vrf.drop_mvrf(old_vvr)  # generation is dead

        uop = MicroOp(inst, src_vvrs, dst_vvr, old_vvr, self.now)
        if dst_vvr is not None:
            self._pending_writer[dst_vvr] = uop
        # Inlined ReorderBuffer.allocate (capacity was checked above).
        entries = rob._entries
        uop.rob_index = rob.total_committed + len(entries)
        entries.append(uop)
        if inst.is_memory:
            self._inflight_mem += 1
        self.pre_issue_q.append(uop)
        return True

    # ------------------------------------------------------------------ dispatch
    def _dispatch(self) -> bool:
        """Scalar-core hand-off (gate: the wake-up time has arrived).

        The wake-up is ``_NEVER`` once every instruction is fetched; a
        rename that frees a queue slot re-arms it, and the call that
        finds nothing left to fetch is a no-progress no-op."""
        insts = self.program.insts
        n = self._n_insts
        dispatch_q = self.dispatch_q
        depth = self._dispatch_depth
        ratio = self._scalar_ratio
        hand_off = self._hand_off
        now = self.now
        start = idx = self._fetch_idx
        scalar_time = self._scalar_time
        blocks = 0
        while idx < n:
            inst = insts[idx]
            if inst.is_scalar:
                assert inst.scalar is not None
                scalar_time += inst.scalar / ratio
                blocks += 1
                idx += 1
                continue
            if len(dispatch_q) >= depth or scalar_time > now:
                break
            dispatch_q.append(inst)
            idx += 1
            scalar_time += hand_off
        self._fetch_idx = idx
        self._scalar_time = scalar_time
        if blocks:
            self.stats.scalar_blocks += blocks
        # Next wake-up: blocked on the queue -> woken by rename; otherwise
        # the first cycle the scalar core will have handed over the next
        # instruction.  (After the loop the head, if any, is non-scalar.)
        if idx >= n or len(dispatch_q) >= depth:
            self._dispatch_wake = _NEVER
        else:
            self._dispatch_wake = math.ceil(scalar_time)
        return idx > start
