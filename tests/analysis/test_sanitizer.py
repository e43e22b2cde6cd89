"""Unit tests for the microarchitectural sanitizer: every check fires on a
hand-crafted violation, and the clean path accumulates evidence."""

import pytest

from repro.analysis.sanitizer import PipelineSanitizer, SanitizerError
from repro.core.config import ava_config, native_config
from repro.vpu.pipeline import VectorPipeline
from repro.vpu.reference import ReferencePipeline
from repro.workloads import get_workload


class _Inst:
    def __init__(self, is_arith=True, is_load=False):
        self.is_arith = is_arith
        self.is_load = is_load


class _Uop:
    def __init__(self, src_pregs=(), dst_preg=0, rob_index=0, done_at=0,
                 inst=None):
        self.src_pregs = list(src_pregs)
        self.dst_preg = dst_preg
        self.rob_index = rob_index
        self.done_at = done_at
        self.inst = inst or _Inst()

    def describe(self):
        return f"stub(rob={self.rob_index})"


class _Stats:
    def __init__(self, swap_loads=0, swap_stores=0):
        self.swap_loads = swap_loads
        self.swap_stores = swap_stores

    @property
    def swap_insts(self):
        return self.swap_loads + self.swap_stores


class _Rat:
    def __init__(self, rat, frl):
        self._rat = rat
        self._frl = frl


def _sanitizer(cycle=100, two_level=True):
    san = PipelineSanitizer(label="unit", two_level=two_level)
    san.bind(lambda: cycle)
    return san


def _check(excinfo, name):
    assert excinfo.value.check == name
    assert f"sanitizer:{name} [unit] at cycle 100" in str(excinfo.value)


# ---------------------------------------------------------------------------
# VRF value-lifetime checks.
# ---------------------------------------------------------------------------
def test_read_of_unmapped_register_fails():
    san = _sanitizer()
    with pytest.raises(SanitizerError) as exc:
        san.on_execute(_Uop(src_pregs=[3]))
    _check(exc, "vrf-read-unmapped")
    assert "uop=stub(rob=0)" in str(exc.value)


def test_read_before_producer_write_fails():
    san = _sanitizer()
    san.on_map_alloc(vvr=7, preg=3)  # destination mapped, never written
    with pytest.raises(SanitizerError) as exc:
        san.on_execute(_Uop(src_pregs=[3]))
    _check(exc, "vrf-read-before-write")


def test_write_then_read_is_clean():
    san = _sanitizer()
    san.on_map_alloc(vvr=7, preg=3)
    san.on_execute(_Uop(dst_preg=3))  # producer writes at cycle 100
    san2 = _sanitizer(cycle=101)
    san2._preg = san._preg  # same shadow state, later cycle
    san2.on_execute(_Uop(src_pregs=[3], dst_preg=4, inst=_Inst()))
    assert san.checks_run > 0


def test_reset_alloc_classifies_legal_unwritten_read():
    san = _sanitizer()
    san.on_map_alloc(vvr=7, preg=3)
    san.on_reset_alloc(preg=3)  # pre-issue: never-defined source, SRAM zeros
    san.on_execute(_Uop(src_pregs=[3], inst=_Inst(is_arith=False)))


def test_double_write_same_cycle_fails():
    san = _sanitizer()
    san.on_map_alloc(vvr=7, preg=3)
    san.on_execute(_Uop(dst_preg=3))
    with pytest.raises(SanitizerError) as exc:
        san.on_execute(_Uop(dst_preg=3, rob_index=1))
    _check(exc, "vrf-double-write")


def test_swap_in_counts_as_a_write():
    san = _sanitizer()
    san.on_map_alloc(vvr=7, preg=3)
    san.on_swap_in(vvr=7, preg=3)  # Swap-Load fills the register
    san.on_execute(_Uop(src_pregs=[3], inst=_Inst(is_arith=False)))


# ---------------------------------------------------------------------------
# Swap-Store read ordering.
# ---------------------------------------------------------------------------
def test_overwrite_before_swap_store_read_fails():
    san = _sanitizer()
    san.on_map_alloc(vvr=7, preg=3)
    san.on_execute(_Uop(dst_preg=3))
    san.on_swap_store_emitted(preg=3)  # eviction freed it, store in flight
    san.on_map_alloc(vvr=9, preg=3)  # new owner
    with pytest.raises(SanitizerError) as exc:
        san.on_execute(_Uop(dst_preg=3, rob_index=1))
    _check(exc, "swap-store-overwrite")


def test_swap_store_read_then_overwrite_is_clean():
    san = _sanitizer(cycle=100)
    san.on_map_alloc(vvr=7, preg=3)
    san.on_execute(_Uop(dst_preg=3))
    san.on_swap_store_emitted(preg=3)
    san.on_swap_out(vvr=7, preg=3)  # the streaming read happened
    san.on_map_alloc(vvr=9, preg=3)
    san2 = _sanitizer(cycle=101)
    san2._preg, san2._pending_swap_reads = san._preg, san._pending_swap_reads
    san2.on_execute(_Uop(dst_preg=3, rob_index=1))


def test_unexpected_swap_store_read_fails():
    san = _sanitizer()
    with pytest.raises(SanitizerError) as exc:
        san.on_swap_out(vvr=7, preg=3)
    _check(exc, "swap-store-unexpected")


def test_squash_consumes_the_pending_read():
    san = _sanitizer()
    san.on_swap_store_emitted(preg=3)
    san.on_swap_squashed(preg=3)  # generation died in flight
    with pytest.raises(SanitizerError):
        san.on_swap_squashed(preg=3)  # second squash has nothing to consume


# ---------------------------------------------------------------------------
# ROB / RAT checks.
# ---------------------------------------------------------------------------
def test_out_of_order_commit_fails():
    san = _sanitizer()
    san.on_commit(_Uop(rob_index=0, done_at=90))
    with pytest.raises(SanitizerError) as exc:
        san.on_commit(_Uop(rob_index=2, done_at=90))
    _check(exc, "rob-out-of-order")


def test_early_commit_fails():
    san = _sanitizer()
    with pytest.raises(SanitizerError) as exc:
        san.on_commit(_Uop(rob_index=0, done_at=150))
    _check(exc, "rob-early-commit")


def test_aliased_rat_fails():
    san = _sanitizer()
    san.bind(lambda: 100, rat=_Rat(rat=[5, 5, 6], frl=[7]))
    with pytest.raises(SanitizerError) as exc:
        san.on_rename()
    _check(exc, "rat-aliased")


def test_duplicate_frl_entry_fails():
    san = _sanitizer()
    san.bind(lambda: 100, rat=_Rat(rat=[5, 6], frl=[7, 7]))
    with pytest.raises(SanitizerError) as exc:
        san.on_rename()
    _check(exc, "rat-frl-duplicate")


def test_mapped_register_on_the_frl_fails():
    san = _sanitizer()
    san.bind(lambda: 100, rat=_Rat(rat=[5, 6], frl=[6, 7]))
    with pytest.raises(SanitizerError) as exc:
        san.on_rename()
    _check(exc, "rat-frl-live")


def test_consistent_rat_is_clean():
    san = _sanitizer()
    san.bind(lambda: 100, rat=_Rat(rat=[5, 6], frl=[7, 8]))
    san.on_rename()
    assert san.checks_run == 1


# ---------------------------------------------------------------------------
# Single-level runs never swap (the premise of their swap-knob-blind key).
# ---------------------------------------------------------------------------
def test_single_level_run_with_swaps_fails():
    san = _sanitizer(two_level=False)
    san.on_run_end(_Stats())
    for swaps in ({"swap_loads": 1}, {"swap_stores": 2}):
        with pytest.raises(SanitizerError) as exc:
            san.on_run_end(_Stats(**swaps))
        _check(exc, "single-level-swap")


@pytest.mark.parametrize("pipeline", [VectorPipeline, ReferencePipeline])
def test_pipelines_check_the_single_level_premise_at_run_end(pipeline):
    """The sanitizer learns ``two_level`` from the machine when installed,
    and both pipelines hand it the final stats: a swapping run that claims
    a single-level machine fails."""
    assert pipeline(native_config(2), _lavamd(native_config(2)),
                    sanitize=True)._san.two_level is False
    config = ava_config(8)
    pipe = pipeline(config, _lavamd(config), sanitize=True)
    assert pipe._san.two_level is True
    pipe._san.two_level = False
    with pytest.raises(SanitizerError) as exc:
        pipe.run()
    assert exc.value.check == "single-level-swap"


def _lavamd(config):
    workload = get_workload("lavamd")
    workload.n_elements = 512
    return workload.compile(config).program
