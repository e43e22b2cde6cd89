"""The trace store: exact round-trips, content keys, fallbacks.

No command uses the store; these tests cover the module while the
benchmark ledger still hooks it.  A stored trace is *exactly* the program
that was compiled — serialize -> load -> simulate produces byte-identical
stats JSON and functional buffers versus a fresh compile — and any
damaged or stale entry reads as a miss, never an error.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.signature import CompileSignature
from repro.compiler.store import TRACE_SCHEMA, TraceStore, trace_key
from repro.core.config import ava_config, native_config
from repro.experiments.engine import program_fingerprint
from repro.sim.simulator import Simulator
from repro.workloads.registry import ALL_WORKLOAD_NAMES, get_workload

#: MVL 16 / 64 / 128 — short, mid and the most swap-intensive point; the
#: same golden grid the extended-suite check=True tests sweep.
MVL_GRID = [native_config(1), ava_config(4), ava_config(8)]


def _functional_run(workload, config, program):
    sim = Simulator(config, program, functional=True)
    rng = np.random.default_rng(42)
    data = workload.init_data(rng)
    for name, values in data.items():
        sim.set_data(name, values)
    return sim.run()


# ---------------------------------------------------------------------------
# round-trip byte-identity over the golden 10-workload x MVL grid
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_WORKLOAD_NAMES)
def test_round_trip_is_byte_identical(name, tmp_path):
    """serialize -> load -> simulate == fresh compile -> simulate, exactly."""
    store = TraceStore(tmp_path / "traces")
    for config in MVL_GRID:
        workload = get_workload(name)
        fresh = workload.compile(config)
        key = store.key(workload, fresh.signature)
        store.put_trace(key, fresh)
        loaded = store.load(key)
        assert loaded is not None
        # The artifact itself is exact: same fingerprint, same JSON form,
        # same allocation record, stable through a second serialization.
        assert (program_fingerprint(loaded.program)
                == program_fingerprint(fresh.program))
        assert (json.dumps(loaded.program.to_dict(), sort_keys=True)
                == json.dumps(fresh.program.to_dict(), sort_keys=True))
        assert loaded.allocation.to_dict() == fresh.allocation.to_dict()
        assert loaded.signature == fresh.signature

        # And so is its execution: byte-identical stats JSON and exactly
        # equal functional output buffers.
        fresh_result = _functional_run(workload, config, fresh.program)
        loaded_result = _functional_run(workload, config, loaded.program)
        assert (json.dumps(fresh_result.stats.to_dict(), sort_keys=True)
                == json.dumps(loaded_result.stats.to_dict(), sort_keys=True))
        for buf in fresh.program.buffers:
            assert np.array_equal(fresh_result.buffer(buf),
                                  loaded_result.buffer(buf))


# ---------------------------------------------------------------------------
# property: exact round-trip over random valid compile signatures
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(mvl=st.integers(min_value=1, max_value=256),
       n_logical=st.integers(min_value=8, max_value=32))
def test_round_trip_over_random_signatures(tmp_path_factory, mvl, n_logical):
    signature = CompileSignature(mvl=mvl, n_logical=n_logical)
    workload = get_workload("axpy")
    store = TraceStore(tmp_path_factory.mktemp("traces"))
    fresh = workload.compile(signature)
    key = store.key(workload, signature)
    store.put_trace(key, fresh)
    loaded = store.load(key)
    assert loaded is not None
    assert loaded.signature == signature
    assert loaded.program.to_dict() == fresh.program.to_dict()
    assert loaded.allocation.to_dict() == fresh.allocation.to_dict()
    assert (program_fingerprint(loaded.program)
            == program_fingerprint(fresh.program))


# ---------------------------------------------------------------------------
# the content address
# ---------------------------------------------------------------------------
def test_key_separates_signatures_and_workload_shapes():
    workload = get_workload("axpy")
    sig = CompileSignature(mvl=64, n_logical=32)
    assert trace_key(workload, sig) == trace_key(get_workload("axpy"), sig)
    assert (trace_key(workload, sig)
            != trace_key(workload, CompileSignature(mvl=128, n_logical=32)))
    assert (trace_key(workload, sig)
            != trace_key(workload, CompileSignature(mvl=64, n_logical=16)))
    shrunk = get_workload("axpy")
    shrunk.n_elements = 128
    assert trace_key(workload, sig) != trace_key(shrunk, sig)
    assert (trace_key(workload, sig)
            != trace_key(get_workload("somier"), sig))


def test_native_and_ava_share_a_key_per_scale():
    """The narrowed compile key: simulation-side axes never reach it."""
    workload = get_workload("axpy")
    assert (trace_key(workload, CompileSignature.from_config(native_config(4)))
            == trace_key(workload,
                         CompileSignature.from_config(ava_config(4))))


# ---------------------------------------------------------------------------
# damaged / stale entries read as misses, never errors
# ---------------------------------------------------------------------------
def _wrapped(payload: dict) -> str:
    """A properly checksummed store entry, as ``put`` would write it."""
    import hashlib
    body = json.dumps(payload)
    return json.dumps({"sha256": hashlib.sha256(body.encode()).hexdigest(),
                       "body": body})


def _bitrot(path):
    """Flip a body byte under the original checksum: the quarantine path."""
    raw = path.read_text()
    flipped = "0" if raw[-10] != "0" else "1"
    path.write_text(raw[:-10] + flipped + raw[-9:])


@pytest.mark.parametrize("damage", [
    lambda path: path.write_text("not json {"),
    lambda path: path.write_text(path.read_text()[:40]),  # truncated
    _bitrot,
    lambda path: path.write_text(_wrapped(
        {"schema": TRACE_SCHEMA - 1, "program": {}, "allocation": {}})),
    lambda path: path.write_text(_wrapped({"schema": TRACE_SCHEMA,
                                           "program": {"insts": [
                                               {"op": "vbogus", "vl": 1}]},
                                           "allocation": {}})),
    lambda path: path.write_text(json.dumps(  # pre-checksum format
        {"schema": TRACE_SCHEMA - 1, "program": {}, "allocation": {}})),
], ids=["garbage", "truncated", "bitrot", "stale-schema", "mangled-program",
        "legacy-unwrapped"])
def test_damaged_entries_read_as_misses(tmp_path, damage):
    store = TraceStore(tmp_path / "traces")
    workload = get_workload("axpy")
    compiled = workload.compile(native_config(1))
    key = store.key(workload, compiled.signature)
    store.put_trace(key, compiled)
    damage(store.path(key))
    assert store.load(key) is None  # a miss, not an exception
    # A fresh put overwrites the damaged entry: the next store hits.
    store.put_trace(key, compiled)
    reloaded = TraceStore(store.root).load(key)
    assert reloaded is not None
    assert reloaded.program.to_dict() == compiled.program.to_dict()


# ---------------------------------------------------------------------------
# persistence across store instances sharing a root
# ---------------------------------------------------------------------------
def test_traces_persist_across_store_instances(tmp_path):
    workload = get_workload("axpy")
    first = TraceStore(tmp_path / "traces")
    compiled = {}
    for config in MVL_GRID:
        fresh = workload.compile(config)
        key = first.key(workload, fresh.signature)
        first.put_trace(key, fresh)
        compiled[key] = fresh
    assert first.stats()[0] == len(MVL_GRID)

    second = TraceStore(tmp_path / "traces")
    for key, fresh in compiled.items():
        loaded = second.load(key)
        assert loaded is not None
        assert (program_fingerprint(loaded.program)
                == program_fingerprint(fresh.program))
    assert second.quarantined == 0
