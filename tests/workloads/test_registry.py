"""The pluggable workload registry: decorator, discovery, selection."""

from typing import Dict

import numpy as np
import pytest

from repro.core.config import native_config
from repro.experiments.engine import Cell, CellExecutor, SweepSpec, cell_key
from repro.isa.builder import KernelBody, KernelBuilder
from repro.workloads import (
    ALL_WORKLOAD_NAMES,
    EXTENDED_WORKLOAD_NAMES,
    WORKLOAD_NAMES,
    Workload,
    all_workloads,
    get_workload,
    register_workload,
    registered_names,
    select_workloads,
    unregister_workload,
)
from repro.workloads import registry as registry_module
from repro.workloads.axpy import Axpy


def _tiny_workload_class(class_name: str = "Tiny",
                         workload_name: str = "tiny-test-kernel"):
    """A minimal out-of-tree workload (NOT auto-registered)."""

    class Tiny(Workload):
        name = workload_name
        domain = "Testing"
        model = "Synthetic"
        n_elements = 64
        loop_alu_insts = 2

        def build_kernel(self) -> KernelBody:
            kb = KernelBuilder()
            kb.store(kb.load("a") * 3.0, "b")
            return kb.build()

        def init_data(self, rng: np.random.Generator
                      ) -> Dict[str, np.ndarray]:
            return {"a": rng.standard_normal(self.n_elements),
                    "b": np.zeros(self.n_elements)}

        def reference(self, data: Dict[str, np.ndarray]
                      ) -> Dict[str, np.ndarray]:
            return {"b": data["a"] * 3.0}

    Tiny.__qualname__ = Tiny.__name__ = class_name
    return Tiny


# ---------------------------------------------------------------------------
# the frozen Table-IV view
# ---------------------------------------------------------------------------
def test_table_iv_view_is_frozen():
    assert WORKLOAD_NAMES == ["axpy", "blackscholes", "lavamd",
                              "particlefilter", "somier", "swaptions"]
    assert EXTENDED_WORKLOAD_NAMES == ["jacobi2d", "pathfinder", "spmv",
                                       "streamcluster"]
    assert ALL_WORKLOAD_NAMES == WORKLOAD_NAMES + EXTENDED_WORKLOAD_NAMES
    # all_workloads() is the paper view: six, in paper order, even though
    # the registry holds more.
    assert [w.name for w in all_workloads()] == WORKLOAD_NAMES
    assert set(ALL_WORKLOAD_NAMES) <= set(registered_names())


# ---------------------------------------------------------------------------
# decorator API
# ---------------------------------------------------------------------------
def test_register_workload_roundtrip():
    cls = _tiny_workload_class()
    register_workload(cls)
    try:
        instance = get_workload("tiny-test-kernel")
        assert isinstance(instance, cls)
        assert "tiny-test-kernel" in registered_names()
        assert "tiny-test-kernel" not in WORKLOAD_NAMES  # paper view frozen
    finally:
        assert unregister_workload("tiny-test-kernel")
    with pytest.raises(KeyError):
        get_workload("tiny-test-kernel")


def test_register_workload_with_explicit_name():
    cls = _tiny_workload_class()
    register_workload(name="tiny-alias")(cls)
    try:
        assert isinstance(get_workload("tiny-alias"), cls)
    finally:
        unregister_workload("tiny-alias")


def test_reregistering_the_same_class_is_idempotent():
    register_workload(Axpy)
    assert isinstance(get_workload("axpy"), Axpy)


def test_name_collision_with_builtin_raises():
    impostor = _tiny_workload_class(class_name="FakeAxpy",
                                    workload_name="axpy")
    with pytest.raises(ValueError, match="already registered"):
        register_workload(impostor)
    assert isinstance(get_workload("axpy"), Axpy)  # builtin untouched


def test_register_rejects_non_workloads():
    with pytest.raises(TypeError):
        register_workload(int)
    with pytest.raises(ValueError, match="no 'name'"):
        register_workload(type("Anon", (Workload,), {}))


# ---------------------------------------------------------------------------
# entry-point discovery
# ---------------------------------------------------------------------------
class _FakeEntryPoint:
    def __init__(self, name, obj, broken=False):
        self.name = name
        self._obj = obj
        self._broken = broken

    def load(self):
        if self._broken:
            raise ImportError("broken plugin")
        return self._obj


def test_entry_point_discovery(monkeypatch):
    cls = _tiny_workload_class(workload_name="tiny-entry-point")
    entries = [_FakeEntryPoint("tiny-entry-point", cls),
               _FakeEntryPoint("broken", None, broken=True),
               _FakeEntryPoint("axpy", _tiny_workload_class(
                   class_name="FakeAxpy", workload_name="axpy"))]

    class _FakeEntryPoints:
        def select(self, group):
            assert group == "repro.workloads"
            return entries

    from importlib import metadata
    monkeypatch.setattr(metadata, "entry_points", lambda: _FakeEntryPoints())
    try:
        loaded = registry_module.discover_workloads(force=True)
        # The well-formed plugin loads; the broken one and the
        # builtin-shadowing one are skipped without breaking the suite.
        assert loaded == ["tiny-entry-point"]
        assert isinstance(get_workload("tiny-entry-point"), cls)
        assert isinstance(get_workload("axpy"), Axpy)
    finally:
        unregister_workload("tiny-entry-point")


# ---------------------------------------------------------------------------
# plugins flow through the engine
# ---------------------------------------------------------------------------
def test_registered_kernel_flows_through_spec_and_cache_keys(tmp_path):
    cls = _tiny_workload_class()
    register_workload(cls)
    try:
        config = native_config(1)
        spec = SweepSpec(workloads=("axpy", "tiny-test-kernel"),
                         configs=(config,), check=True)
        cells = spec.cells()
        keys = [cell_key(c) for c in cells]
        assert len(set(keys)) == len(keys)  # no collisions across names

        results = CellExecutor().run_spec(spec)
        assert [r.cell.workload_name for r in results] == [
            "axpy", "tiny-test-kernel"]
        assert all(r.correct is True for r in results)
    finally:
        unregister_workload("tiny-test-kernel")


# ---------------------------------------------------------------------------
# CLI-style selection
# ---------------------------------------------------------------------------
def test_select_workloads_views():
    assert select_workloads() == WORKLOAD_NAMES
    assert select_workloads("all") == WORKLOAD_NAMES
    assert select_workloads("all", extended=True) == ALL_WORKLOAD_NAMES
    assert select_workloads("extended") == ALL_WORKLOAD_NAMES
    assert select_workloads("spmv") == ["spmv"]
    assert select_workloads("somier, jacobi2d") == ["somier", "jacobi2d"]


def test_select_workloads_drops_repeats_in_first_occurrence_order():
    assert select_workloads("axpy,axpy") == ["axpy"]
    assert select_workloads("somier, axpy,somier ,axpy") == ["somier",
                                                            "axpy"]


def test_select_workloads_rejects_unknown_names():
    with pytest.raises(KeyError, match="doom"):
        select_workloads("axpy,doom")
    with pytest.raises(KeyError):
        select_workloads(" , ")
