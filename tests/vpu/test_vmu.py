"""Vector Memory Unit access planning."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import native_config
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Op
from repro.isa.operands import data_ref
from repro.isa.program import Program
from repro.memory.hierarchy import MemorySystem
from repro.sim.layout import MemoryLayout
from repro.vpu.vmu import VectorMemoryUnit


def make_vmu(n_elems=1024):
    config = native_config(1)
    program = Program(name="t", buffers={"x": n_elems}, mvl=16)
    memsys = MemorySystem()
    layout = MemoryLayout(program, config)
    return VectorMemoryUnit(memsys, layout), memsys


def unit_load(vl, base=0):
    return Instruction(op=Op.VLE, dst=0, vl=vl, mem=data_ref("x", base))


def test_unit_stride_beats_are_line_granular():
    """512-bit interface: 8 x 64-bit elements per beat."""
    vmu, _ = make_vmu()
    assert vmu.plan(unit_load(16))[0] == 2
    assert vmu.plan(unit_load(128, base=128))[0] == 16
    assert vmu.plan(unit_load(8, base=512))[0] == 1


def test_strided_access_costs_one_beat_per_element():
    vmu, memsys = make_vmu(4096)
    inst = Instruction(op=Op.VLSE, dst=0, vl=16,
                       mem=data_ref("x", 0, stride=9))
    beats, _, _ = vmu.plan(inst)
    assert beats == 16
    assert memsys.l2.stats.read_misses > 2  # cold: one miss per line


def test_zero_stride_touches_one_line():
    vmu, memsys = make_vmu()
    inst = Instruction(op=Op.VLSE, dst=0, vl=16,
                       mem=data_ref("x", 5, stride=0))
    beats, _, _ = vmu.plan(inst)
    assert beats == 16
    assert memsys.l2.stats.read_misses == 1
    assert memsys.l2.stats.reads == 16  # every element is still probed


def test_indexed_access_costs_one_beat_per_element():
    vmu, _ = make_vmu(4096)
    inst = Instruction(op=Op.VLXE, dst=0, srcs=(1,), vl=16,
                       mem=data_ref("x", 0, indexed=True))
    assert vmu.plan(inst)[0] == 16


def test_cold_misses_split_bandwidth_and_latency():
    vmu, memsys = make_vmu()
    _, fill_beats, miss_latency = vmu.plan(unit_load(16))
    assert memsys.l2.stats.read_misses == 2
    assert fill_beats == 2 * memsys.dram.config.line_transfer
    assert miss_latency == memsys.dram.config.latency


def test_warm_access_has_no_dram_cost():
    vmu, memsys = make_vmu()
    vmu.plan(unit_load(16))
    _, fill_beats, miss_latency = vmu.plan(unit_load(16))
    assert memsys.l2.stats.read_misses == 2  # the first access's only
    assert fill_beats == 0
    assert miss_latency == 0


def test_store_allocates_lines():
    vmu, memsys = make_vmu()
    inst = Instruction(op=Op.VSE, srcs=(0,), vl=16, mem=data_ref("x"))
    vmu.plan(inst)
    assert memsys.l2.stats.write_misses == 2
    assert vmu.plan(inst) == (2, 0, 0)
    assert memsys.l2.stats.write_misses == 2


def test_first_element_latency_is_l2_latency():
    vmu, memsys = make_vmu()
    assert vmu.first_element_latency == memsys.config.l2.latency


@settings(max_examples=300, deadline=None)
@given(base=st.integers(0, 4096), stride=st.integers(-40, 40),
       vl=st.integers(1, 64))
def test_strided_line_count_matches_unique_lines(base, stride, vl):
    """A cold strided access misses once per distinct line it touches (its
    line indices are monotonic, so no line is left and revisited)."""
    vmu, memsys = make_vmu(4096)
    inst = Instruction(op=Op.VLSE, dst=0, vl=vl,
                       mem=data_ref("x", base, stride=stride))
    addr = vmu.layout.base_addr(inst.mem)
    lines = (addr + np.arange(vl, dtype=np.int64) * stride * 8) // 64
    _, fill_beats, _ = vmu.plan(inst)
    assert memsys.l2.stats.read_misses == np.unique(lines).size
    assert fill_beats == (np.unique(lines).size
                          * memsys.dram.config.line_transfer)
