"""Pipeline fundamentals on the baseline configuration."""

import numpy as np
import pytest

from repro import Simulator, ava_config, native_config
from repro.core.uop import MicroOp, UopState
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Op
from repro.isa.program import Program
from repro.vpu.pipeline import VectorPipeline
from tests.conftest import axpy_body, compile_kernel


def run_axpy(config, n=256, functional=True):
    program = compile_kernel(axpy_body(2.0), config, n, {"x": n, "y": n})
    sim = Simulator(config, program, functional=functional)
    x = np.arange(n, dtype=float)
    y = np.ones(n)
    if functional:
        sim.set_data("x", x)
        sim.set_data("y", y)
    sim.warm_caches()
    return sim.run(), x, y


def test_axpy_executes_correctly():
    result, x, y = run_axpy(native_config(1))
    assert np.allclose(result.buffer("y"), 2.0 * x + y)


def test_all_instructions_commit():
    result, _, _ = run_axpy(native_config(1), n=128)
    stats = result.stats
    assert stats.committed == stats.vector_insts
    assert stats.cycles > 0


def test_instruction_counts_match_static_mix():
    result, _, _ = run_axpy(native_config(1), n=256)
    s = result.stats
    assert s.vloads == 2 * 256 // 16
    assert s.vstores == 256 // 16
    assert s.arith_insts == 256 // 16
    assert s.memory_fraction == pytest.approx(0.75)


def test_longer_vectors_are_faster():
    base, _, _ = run_axpy(native_config(1), functional=False)
    fast, _, _ = run_axpy(native_config(8), functional=False)
    assert fast.cycles < base.cycles


def test_deterministic_cycles():
    a, _, _ = run_axpy(ava_config(4), functional=False)
    b, _, _ = run_axpy(ava_config(4), functional=False)
    assert a.cycles == b.cycles


def test_functional_mode_does_not_change_timing():
    f, _, _ = run_axpy(ava_config(4), functional=True)
    t, _, _ = run_axpy(ava_config(4), functional=False)
    assert f.cycles == t.cycles


def test_program_validation_at_construction():
    from repro import rg_config
    from tests.conftest import high_pressure_body

    config = native_config(1)
    # A register-hungry binary compiled for 32 architectural registers...
    program = compile_kernel(high_pressure_body(18), config, 64,
                             {"x": 64, "out": 64})
    assert len(program.registers_used()) > 4
    # ...runs on any 32-register machine...
    VectorPipeline(ava_config(1), program)
    # ...but not on an RG-LMUL8 machine with 4 architectural registers.
    with pytest.raises(ValueError):
        VectorPipeline(rg_config(8), program)


def test_max_cycles_guard():
    config = native_config(1)
    program = compile_kernel(axpy_body(), config, 2048,
                             {"x": 2048, "y": 2048})
    sim = Simulator(config, program)
    with pytest.raises(RuntimeError):
        sim.run(max_cycles=10)


def test_busy_accounting_is_consistent():
    result, _, _ = run_axpy(native_config(1), functional=False)
    s = result.stats
    assert 0 < s.mem_busy_cycles <= s.cycles
    assert 0 < s.arith_busy_cycles <= s.cycles
    # axpy is memory bound: the memory unit dominates.
    assert s.mem_busy_cycles > s.arith_busy_cycles


def _renamed_add(config):
    """A pipeline whose pre-issue head is a renamed ``vadd`` with both
    sources resident, so pre-issue runs straight through to queue entry."""
    pipe = VectorPipeline(config, Program(name="t"))
    pipe.dispatch_q.append(Instruction(op=Op.VADD, dst=3, srcs=(1, 2), vl=8))
    assert pipe._rename()
    uop = pipe.pre_issue_q[0]
    for vvr in uop.src_vvrs:
        pipe.mapping.allocate(vvr)
    return pipe, uop


@pytest.mark.parametrize("offset", [1, 2, None])
def test_pre_issue_rejects_a_producer_that_entered_no_earlier(offset):
    """Pre-issue checks the queue-entry ordering invariant inside its
    producer loop: a pending producer whose seq is not below the entering
    uop's (or that never entered a queue) is a broken invariant."""
    pipe, uop = _renamed_add(native_config(1))
    entering = pipe._seq + 1
    seq = -1 if offset is None else pipe._seq + offset
    forged = MicroOp(uop.inst, seq=seq, state=UopState.PRE_ISSUED)
    pipe._pending_writer[uop.src_vvrs[0]] = forged
    with pytest.raises(AssertionError,
                       match=f"^dependency ordering violated: "
                             f"uop#{entering} depends on uop#{seq}$"):
        pipe._pre_issue()


def test_pre_issue_accepts_an_older_producer():
    pipe, uop = _renamed_add(native_config(1))
    older = MicroOp(uop.inst, seq=pipe._seq, state=UopState.PRE_ISSUED)
    pipe._pending_writer[uop.src_vvrs[0]] = older
    assert pipe._pre_issue()
    assert uop.producers[0] is older and uop.seq == older.seq + 1


def test_both_swap_emits_validate_ordering(monkeypatch):
    """Only regular uops get the check folded into pre-issue; swap
    operations still run :meth:`MicroOp.validate_ordering` on entry."""
    checked = []
    validate = MicroOp.validate_ordering

    def spy(uop):
        checked.append(uop)
        validate(uop)

    monkeypatch.setattr(MicroOp, "validate_ordering", spy)
    pipe = VectorPipeline(ava_config(8), Program(name="t"))
    pipe.mapping.allocate(5)
    pipe._emit_swap_store(5)
    pipe._emit_swap_load(5)
    assert [u.inst.op for u in checked] == [Op.VSE, Op.VLE]
    assert checked == list(pipe.mem_q)
