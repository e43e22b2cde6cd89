"""The pluggable workload registry: decorator, lookup, selection."""

from typing import Dict

import numpy as np
import pytest

from repro.core.config import native_config
from repro.experiments.engine import Cell, CellExecutor, cell_key
from repro.isa.builder import KernelBody, KernelBuilder
from repro.sim.scenario import Scenario
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
)
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


def test_init_data_returns_exactly_the_buffers():
    """Every registered kernel's data matches its buffers: the same names,
    in the same order, with the same lengths."""
    for name in registered_names():
        workload = get_workload(name)
        data = workload.init_data(np.random.default_rng(0))
        assert ([(buf, len(values)) for buf, values in data.items()]
                == list(workload.buffers.items())), name


# ---------------------------------------------------------------------------
# decorator API
# ---------------------------------------------------------------------------
def test_register_workload_roundtrip(registries):
    cls = _tiny_workload_class()
    register_workload(cls)
    instance = get_workload("tiny-test-kernel")
    assert isinstance(instance, cls)
    assert "tiny-test-kernel" in registered_names()
    assert "tiny-test-kernel" not in WORKLOAD_NAMES  # paper view frozen
    registries()  # restore: the name is gone again
    with pytest.raises(KeyError):
        get_workload("tiny-test-kernel")


def test_register_workload_with_explicit_name(registries):
    cls = _tiny_workload_class()
    register_workload(name="tiny-alias")(cls)
    assert isinstance(get_workload("tiny-alias"), cls)


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
# plugins flow through the engine
# ---------------------------------------------------------------------------
def test_registered_kernel_flows_through_spec_and_cache_keys(registries):
    register_workload(_tiny_workload_class())
    cells = [Cell(name, Scenario(native_config(1)), check=True)
             for name in ("axpy", "tiny-test-kernel")]
    keys = [cell_key(c) for c in cells]
    assert len(set(keys)) == len(keys)  # no collisions across names

    results = CellExecutor().run(cells)
    assert [r.cell.workload_name for r in results] == [
        "axpy", "tiny-test-kernel"]
    assert all(r.correct is True for r in results)


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
