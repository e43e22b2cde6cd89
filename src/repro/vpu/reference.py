"""Reference stepper: the poll-every-stage-every-cycle AVA pipeline.

:class:`ReferencePipeline` is the independent oracle for the span-charging
scheduler in :class:`repro.vpu.pipeline.VectorPipeline`.  Both subclass
:class:`repro.vpu.pipeline.PipelineModel`, which owns the machine state and
the shared model methods (swap emission, victim selection, write guards,
issue stamping and counting, harvest), so a model fix lands once.  What
this module keeps is what the scheduler must be checked against:

* the naive per-cycle stepper — every stage is re-evaluated every stepped
  cycle, and the clock only fast-forwards when *no* stage makes progress;
* the un-inlined stage bodies (rename, dispatch, pre-issue, issue-time
  operand resolution, complete, commit/retire, arithmetic and memory
  execution), written against the core structures' public methods.  They
  are the readable spec of the paper's pipeline; the scheduler's inlined,
  memoized copies must agree with them.

Keep this file simple enough to audit against the paper: optimisations
belong in the scheduler.  ``tests/vpu/test_pipeline_equivalence.py``
asserts the two produce byte-identical statistics, functional output and
per-uop issue timelines across every workload and a grid of
configurations and scenarios.

Stage order per cycle (resources freed early in the cycle are visible to
later stages, classic reverse-pipeline evaluation):

1. **commit** — up to ``commit_width`` finished ROB heads retire: RAC source
   decrements, old-destination VVRs return to the FRL, aggressive register
   reclamation frees physical registers whose counts reached zero;
2. **complete** — issued micro-ops whose last element wrote back flip to
   DONE and set their VVR valid bit;
3. **issue** — the memory and arithmetic queue heads issue in order (each
   queue in-order, the pair decoupled = the paper's "light out-of-order"),
   subject to chaining readiness and the two swap issue rules;
4. **pre-issue** — the second-level mapping (§III.C steps A/B/C): one action
   per cycle — either generating one swap operation or dispatching the head
   micro-op into its queue;
5. **rename** — first-level renaming (logical -> VVR) at one instruction per
   cycle, stalling on an empty FRL or a full ROB;
6. **dispatch** — the 2 GHz scalar core feeds the VPU's dispatch queue and
   absorbs the scalar loop-control blocks.

When a cycle makes no progress the clock fast-forwards to the next
timestamped event; if no event exists the pipeline raises
:class:`DeadlockError` with a diagnostic dump (the dependency-ordering
invariant in :mod:`repro.core.uop` makes this unreachable for well-formed
programs, and the property tests lean on that).
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional

from repro.core.uop import MicroOp, UopState
from repro.isa.instructions import Tag
from repro.isa.opcodes import evaluate_arith
from repro.sim.stats import SimStats
from repro.vpu.pipeline import (_CREATED, _OK, _STALL_VICTIM, DeadlockError,
                                PipelineModel)


class ReferencePipeline(PipelineModel):
    """One VPU instance executing one program, stepped cycle by cycle."""

    _sanitizer_tag = " (reference)"

    # ------------------------------------------------------------------ run
    def run(self, max_cycles: int = 200_000_000) -> SimStats:
        """Execute to completion; returns the accumulated statistics."""
        while not self.finished:
            if self.now > max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"(now={self.now}, {self.rob.total_committed}/"
                    f"{self._to_commit} committed)")
            progress = self._step()
            self.stats.events_processed += 1
            if progress:
                self.now += 1
            else:
                self._fast_forward()
        self._harvest()
        if self._san is not None:
            self._san.on_run_end(self.stats)
        return self.stats

    def _step(self) -> bool:
        progress = self._commit()
        progress |= self._complete()
        progress |= self._issue_memory()
        progress |= self._issue_arith()
        progress |= self._pre_issue()
        progress |= self._rename()
        progress |= self._dispatch()
        return progress

    def _fast_forward(self) -> None:
        candidates: List[float] = []
        if self._completions:
            candidates.append(self._completions[0][0])
        if self.mem_q:
            candidates.append(self._mem_busy_until)
            wait = self._head_wait_time(self.mem_q[0])
            if wait is not None:
                candidates.append(wait)
            # Swap ops can issue out of order past a blocked head.
            for queued in self.mem_q:
                if queued.inst.tag is Tag.SWAP:
                    wait = self._head_wait_time(queued)
                    if wait is not None:
                        candidates.append(wait)
        if self.arith_q:
            candidates.append(self._arith_busy_until)
            wait = self._head_wait_time(self.arith_q[0])
            if wait is not None:
                candidates.append(wait)
        if self._fetch_idx < len(self.program.insts):
            candidates.append(math.ceil(self._scalar_time))
        future = [c for c in candidates if c > self.now]
        if not future:
            raise DeadlockError(self._dump())
        target = int(min(future))
        self.stats.fast_forward_cycles += target - self.now
        self.stats.cycles_skipped += target - self.now
        # Span accounting: one stalled interval disposed of in one step.
        # The covered span is the evaluated probe cycle plus the jump.
        self.stats.spans_charged += 1
        self.stats.span_cycles += target - self.now + 1
        self.now = target
        if self._san is not None:
            self._san.on_span(self.stats)

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

    # ------------------------------------------------------------------ commit
    def _commit(self) -> bool:
        ready = self.rob.committable(self.now)
        if not ready:
            return False
        for uop in ready:
            self._retire(uop)
        return True

    def _retire(self, uop: MicroOp) -> None:
        self.rob.retire(uop, self.now)
        for vvr in uop.src_vvrs:
            self.rac.decrement(vvr)
            if (self.aggressive_reclamation and self.rac.is_reclaimable(vvr)
                    and self.mapping.in_pvrf(vvr)
                    and self.vrf.is_valid(vvr)):
                self.mapping.release(vvr)
                self.swap_logic.note_release(vvr)
                self.vrf.drop_mvrf(vvr)  # generation is dead
        if uop.dst_vvr is not None:
            assert uop.old_dst_vvr is not None
            old = uop.old_dst_vvr
            self.mapping.release(old)
            self.swap_logic.note_release(old)
            self.vrf.drop_mvrf(old)
            self.rac.reset(old)
            self.vrf.mark_valid(old)
            self.vrf.commit_valid(old)
            self.vrf.commit_valid(uop.dst_vvr)
            self.rat.commit(uop.inst.dst, uop.dst_vvr, old)
        if uop.inst.is_memory:
            self._inflight_mem -= 1
        self.stats.committed += 1

    # ------------------------------------------------------------------ complete
    def _complete(self) -> bool:
        progress = False
        while self._completions and self._completions[0][0] <= self.now:
            _, _, uop = heapq.heappop(self._completions)
            uop.state = UopState.DONE
            if uop.dst_vvr is not None:
                self.vrf.mark_valid(uop.dst_vvr)
                if self._pending_writer.get(uop.dst_vvr) is uop:
                    del self._pending_writer[uop.dst_vvr]
            if uop.inst.tag is Tag.SWAP and uop.inst.is_store:
                victim = uop.src_vvrs[0]
                if self._pending_mvrf_store.get(victim) is uop:
                    del self._pending_mvrf_store[victim]
            progress = True
        return progress

    # ------------------------------------------------------------------ issue
    def _ready(self, uop: MicroOp) -> bool:
        """Chaining readiness: producers and guards issued.

        Producers: elements will stream in as this op consumes them.
        Guards (swap rules 1 and 2): the old value's Swap-Store / readers
        drain the register at stream rate one beat ahead of the new owner's
        writes, so issue may chain behind them too; the completion clamp in
        :meth:`_finish_issue` keeps the new owner's write-back behind their
        reads in time.
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

    def _issue_memory(self) -> bool:
        if not self.mem_q or self._mem_busy_until > self.now:
            return False
        uop = self.mem_q[0]
        outcome = self._ensure_operands(uop)
        if outcome == _CREATED:
            return True  # a priority swap op now heads the memory queue
        if outcome == _STALL_VICTIM:
            self.stats.issue_victim_stalls += 1
            return self._issue_swap_bypass()
        if not self._ready(uop):
            return self._issue_swap_bypass()
        self.mem_q.popleft()
        self._issue_memory_uop(uop)
        return True

    def _issue_swap_bypass(self) -> bool:
        """Issue a ready swap op from behind a blocked memory-queue head.

        Swap operations move data between the P-VRF and the M-VRF only —
        they can never alias application memory — so when the in-order head
        is stalled, the memory unit may service a younger ready swap op
        instead.  This both resolves head-waits-on-queued-swap chains (the
        head's own source may be coming back via a Swap-Load sitting behind
        it) and overlaps swap traffic with dependency stalls.
        """
        for idx in range(1, len(self.mem_q)):
            cand = self.mem_q[idx]
            if cand.inst.tag is not Tag.SWAP:
                continue
            if not self._ready(cand):
                continue
            del self.mem_q[idx]
            self._issue_memory_uop(cand)
            return True
        return False

    def _issue_arith(self) -> bool:
        if not self.arith_q or self._arith_busy_until > self.now:
            return False
        uop = self.arith_q[0]
        outcome = self._ensure_operands(uop)
        if outcome == _CREATED:
            return True
        if outcome == _STALL_VICTIM:
            self.stats.issue_victim_stalls += 1
            return False
        if not self._ready(uop):
            return False
        self.arith_q.popleft()
        info = uop.inst.info
        beats = self.params.arith_beats(uop.inst.vl, info.beats_per_element)
        dead = self.params.arith_dead_time
        occupancy = dead + beats
        self._finish_issue(uop, occupancy, dead, info.latency)
        self._arith_busy_until = self.now + occupancy
        self.stats.arith_busy_cycles += occupancy
        self._count_issue(uop)
        self._execute_arith(uop)
        return True

    def _ensure_operands(self, uop: MicroOp) -> str:
        """Issue-time operand resolution (§VIII: registers "at issue time").

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
        """
        created = False
        if uop.inst.tag is not Tag.SWAP:
            refreshed = []
            for vvr in uop.src_vvrs:
                if not self.mapping.in_pvrf(vvr):
                    if not self.mapping.in_mvrf(vvr):
                        raise AssertionError(
                            f"source VVR {vvr} of {uop.describe()} has "
                            f"neither a physical register nor an M-VRF home")
                    excluded = list(uop.src_vvrs)
                    if uop.dst_vvr is not None:
                        excluded.append(uop.dst_vvr)
                    outcome = self._free_one_preg(excluded, front=True)
                    if outcome == _CREATED:
                        return _CREATED
                    if outcome != _OK:
                        return outcome
                    self._emit_swap_load(vvr, front=True)
                    return _CREATED
                refreshed.append(self.mapping.preg_of(vvr))
            new_pregs = tuple(refreshed)
            # Always rebuild the producer links: a source may have been
            # evicted and Swap-Loaded back (possibly into the same physical
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

        if uop.dst_vvr is None or uop.dst_preg is not None:
            return _OK
        excluded = list(uop.src_vvrs) + [uop.dst_vvr]
        if self.mapping.free_count == 0:
            outcome = self._free_one_preg(excluded, front=True)
            if outcome == _CREATED:
                created = True
            elif outcome != _OK:
                return outcome
        preg = self.mapping.allocate(uop.dst_vvr)
        self._attach_write_guards(uop, preg)
        uop.dst_preg = preg
        return _CREATED if created else _OK

    # ------------------------------------------------------------------ execute
    def _execute_arith(self, uop: MicroOp) -> None:
        inst = uop.inst
        if self._san is not None:
            self._san.on_execute(uop)
        values = [self.vrf.read_preg(p, inst.vl) for p in uop.src_pregs]
        assert uop.dst_preg is not None
        if self.functional:
            result = evaluate_arith(inst.op, values, inst.scalar, inst.vl)
            self.vrf.write_preg(uop.dst_preg, result, inst.vl)
        else:
            self.vrf.write_preg(uop.dst_preg, None, inst.vl)  # counters only

    def _execute_memory(self, uop: MicroOp) -> None:
        inst = uop.inst
        mem = inst.mem
        assert mem is not None
        if self._san is not None:
            self._san.on_execute(uop)
        if inst.is_load:
            assert uop.dst_preg is not None
            if self.functional:
                index = None
                if mem.indexed:
                    index = self.vrf.read_preg(uop.src_pregs[0], inst.vl)
                data = self.layout.load(mem, inst.vl, index)
                self.vrf.write_preg(uop.dst_preg, data, inst.vl)
            else:
                if mem.indexed:
                    self.vrf.read_preg(uop.src_pregs[0], inst.vl)
                self.vrf.write_preg(uop.dst_preg, None, inst.vl)
            return
        # Store: data always comes from srcs[0]; gather index from srcs[1].
        data = self.vrf.read_preg(uop.src_pregs[0], inst.vl)
        index = None
        if mem.indexed:
            index = self.vrf.read_preg(uop.src_pregs[1], inst.vl)
        if self.functional:
            assert data is not None
            self.layout.store(mem, inst.vl, data, index)

    # ------------------------------------------------------------------ pre-issue
    def _pre_issue(self) -> bool:
        if not self.pre_issue_q:
            return False
        uop = self.pre_issue_q[0]
        excluded = list(uop.src_vvrs)
        if uop.dst_vvr is not None:
            excluded.append(uop.dst_vvr)

        # Step A: map sources; evicted sources need a Swap-Load each.  Swap
        # generation is combinational with the mapping update, so mapping can
        # complete in the same cycle as dispatch, but the memory queue
        # accepts at most `preissue_swap_budget` inserted swap ops per cycle.
        budget = self.params.preissue_swap_budget
        for vvr in uop.src_vvrs:
            if self.mapping.in_pvrf(vvr):
                continue
            if self.mapping.in_mvrf(vvr):
                if budget <= 0:
                    return True  # resume next cycle
                outcome = self._acquire_preg(excluded)
                if outcome == _CREATED:
                    budget -= 1
                    if budget <= 0:
                        return True
                    outcome = self._acquire_preg(excluded)
                if outcome != _OK:
                    self._count_preissue_stall(outcome)
                    return False
                self._emit_swap_load(vvr)
                budget -= 1
                continue
            if vvr in self._pending_writer:
                # The producer has not issued yet, so the VVR has no physical
                # register (destinations are assigned at issue time).  Wait
                # in order; the producer sits ahead in an issue queue.
                self.stats.preissue_writer_stalls += 1
                return False
            # Never-defined source: allocate and read the SRAM reset state.
            outcome = self._acquire_preg(excluded)
            if outcome == _CREATED:
                return True
            if outcome != _OK:
                self._count_preissue_stall(outcome)
                return False
            preg = self.mapping.allocate(vvr)
            if self._san is not None:
                # Reading the reset state of a never-defined source is
                # legal, not a read-before-write.
                self._san.on_reset_alloc(preg)
            self._attach_write_guards(None, preg)  # drop stale guards
            self.swap_logic.note_allocation(vvr)

        # Step B (destination mapping) happens at issue time — see
        # _ensure_dst_preg.  Step C: dispatch into the issue queue.
        target = self.mem_q if uop.inst.is_memory else self.arith_q
        depth = (self.params.mem_queue_depth if uop.inst.is_memory
                 else self.params.arith_queue_depth)
        if len(target) >= depth:
            self.stats.preissue_queue_stalls += 1
            return False

        uop.src_pregs = tuple(self.mapping.preg_of(v) for v in uop.src_vvrs)
        for vvr in uop.src_vvrs:
            producer = self._pending_writer.get(vvr)
            uop.attach_producer(
                producer if producer is not None
                and not self._is_done(producer) else None)
        for preg in uop.src_pregs:
            self._preg_readers.setdefault(preg, []).append(uop)
        if self._track_swap_state:
            # Released by _count_issue under the same flag; nothing reads
            # the pins on a machine that can never evict.
            for vvr in uop.src_vvrs:
                self._vvr_queued_readers[vvr] = (
                    self._vvr_queued_readers.get(vvr, 0) + 1)
        # The destination physical register is assigned at issue time
        # (_ensure_dst_preg); uop.dst_preg stays None until then.
        uop.state = UopState.PRE_ISSUED
        uop.pre_issued_at = self.now
        uop.seq = self._next_seq()
        uop.validate_ordering()
        self.pre_issue_q.popleft()
        target.append(uop)
        return True

    # ------------------------------------------------------------------ rename
    def _rename(self) -> bool:
        if not self.dispatch_q:
            return False
        if len(self.pre_issue_q) >= self.params.pre_issue_depth:
            return False
        if self.rob.full:
            self.stats.rename_rob_stalls += 1
            return False
        inst = self.dispatch_q[0]
        if inst.dst is not None and not self.rat.can_rename_dst():
            self.stats.rename_frl_stalls += 1
            return False
        self.dispatch_q.popleft()

        src_vvrs = self.rat.rename_sources(inst.srcs)
        for vvr in src_vvrs:
            self.rac.increment(vvr)
        dst_vvr = old_vvr = None
        if inst.dst is not None:
            dst_vvr, old_vvr = self.rat.rename_destination(inst.dst)
            self.rac.increment(dst_vvr)
            self.rac.decrement(old_vvr)
            self.vrf.mark_pending(dst_vvr)
            # Aggressive reclamation case 1 at rename time, guarded by the
            # paper's condition (b): no older vector memory instruction may
            # be in flight (they are the recovery-event sources).
            if (self.aggressive_reclamation
                    and self.rac.is_reclaimable(old_vvr)
                    and self.mapping.in_pvrf(old_vvr)
                    and self.vrf.is_valid(old_vvr)
                    and self._inflight_mem == 0):
                self.mapping.release(old_vvr)
                self.swap_logic.note_release(old_vvr)
                self.vrf.drop_mvrf(old_vvr)  # generation is dead

        uop = MicroOp(inst, src_vvrs=src_vvrs,
                      dst_vvr=dst_vvr, old_dst_vvr=old_vvr,
                      renamed_at=self.now)
        if dst_vvr is not None:
            self._pending_writer[dst_vvr] = uop
        self.rob.allocate(uop)
        if inst.is_memory:
            self._inflight_mem += 1
        self.pre_issue_q.append(uop)
        return True

    # ------------------------------------------------------------------ dispatch
    def _dispatch(self) -> bool:
        progress = False
        insts = self.program.insts
        while self._fetch_idx < len(insts):
            inst = insts[self._fetch_idx]
            if inst.is_scalar:
                assert inst.scalar is not None
                self._scalar_time += self.params.scalar_to_vpu(inst.scalar)
                self.stats.scalar_blocks += 1
                self._fetch_idx += 1
                progress = True
                continue
            if len(self.dispatch_q) >= self.params.dispatch_queue_depth:
                break
            if self._scalar_time > self.now:
                break
            self.dispatch_q.append(inst)
            self._fetch_idx += 1
            self._scalar_time += self.params.scalar_to_vpu(
                self.params.dispatch_scalar_cycles)
            progress = True
        return progress
