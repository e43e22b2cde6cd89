"""Machine configurations: Tables I, II, III."""

import pytest

from repro.core.config import (
    MachineMode,
    ava_config,
    baseline_config,
    native_config,
    pvrf_registers,
    rg_config,
    table1_rows,
    with_physical_registers,
)


def test_table1_exact():
    """Table I verbatim."""
    assert table1_rows() == [(64, 16), (32, 32), (21, 48), (16, 64),
                             (12, 80), (10, 96), (9, 112), (8, 128)]


def test_pvrf_registers_bounds():
    assert pvrf_registers(16) == 64
    assert pvrf_registers(8) == 64  # capped at the renamed-register count
    with pytest.raises(ValueError):
        pvrf_registers(0)
    with pytest.raises(ValueError):
        pvrf_registers(2048)


def test_native_vrf_scales_with_mvl():
    """Table II: VRF 8 KB (X1) through 64 KB (X8)."""
    sizes = [native_config(s).vrf_bytes for s in (1, 2, 3, 4, 8)]
    assert sizes == [k * 1024 for k in (8, 16, 24, 32, 64)]


def test_ava_vrf_is_always_8kb():
    for scale in (1, 2, 3, 4, 8):
        cfg = ava_config(scale)
        # The usable capacity is n_physical x MVL; the odd MVLs (48, 80...)
        # leave a sliver of the 8 KB structure unused (Table I rounds down).
        assert 0.95 * 8 * 1024 <= cfg.vrf_bytes <= 8 * 1024
        assert cfg.n_logical == 32
        assert cfg.n_vvr == 64


def test_ava_mvrf_holds_the_remainder():
    cfg = ava_config(8)
    assert cfg.two_level
    assert cfg.n_physical == 8
    # 56 VVRs x 128 elements x 8 bytes.
    assert cfg.mvrf_bytes == 56 * 128 * 8


def test_ava_x1_is_single_level():
    cfg = ava_config(1)
    assert not cfg.two_level
    assert cfg.mvrf_bytes == 0


def test_rg_divides_architectural_registers():
    """§II: LMUL divides both logical and physical registers."""
    for lmul in (1, 2, 4, 8):
        cfg = rg_config(lmul)
        assert cfg.n_logical == 32 // lmul
        assert cfg.n_physical == 64 // lmul
        assert cfg.mvl == 16 * lmul
        assert cfg.mode is MachineMode.RG
        assert not cfg.two_level


def test_rg_rejects_illegal_lmul():
    with pytest.raises(ValueError):
        rg_config(3)


def test_native_rejects_illegal_scale():
    with pytest.raises(ValueError):
        native_config(5)


def test_baseline_is_native_x1():
    assert baseline_config().name == "NATIVE X1"
    assert baseline_config().mvl == 16


def test_ablation_override():
    cfg = with_physical_registers(ava_config(8), 12)
    assert cfg.n_physical == 12
    assert "12-preg" in cfg.name


def test_describe_mentions_mvrf_only_when_two_level():
    assert "M-VRF" in ava_config(8).describe()
    assert "M-VRF" not in native_config(8).describe()
