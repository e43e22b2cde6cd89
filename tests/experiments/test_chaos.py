"""Chaos-hardened execution: every injected fault must degrade gracefully.

Three layers under test, all driven through :mod:`repro.faults`:

* the cache (`AtomicJsonStore`): checksummed entries, quarantine-on-read,
  degraded in-memory operation when the directory is unwritable,
  atomic commits that concurrent writers never tear, and a ``clear()``
  that never deletes a just-committed entry;
* the executor: bounded retry-with-backoff for infrastructure faults
  (fail-fast for deterministic ones), per-cell deadlines inline and via
  the pool watchdog, and retry accounting that keeps a retried cell at
  ONE cache miss;
* the ``repro chaos`` harness: clean / faulted / warm runs of the same
  sweep must render byte-identical output with zero failed cells.
"""

import io
import json
import threading
import time
from pathlib import Path

import pytest

from repro import faults
from repro.core.config import ava_config, native_config
from repro.experiments.chaos import run_chaos
from repro.experiments.engine import (CACHE_SCHEMA, Cell,
                                      CellExecutionError, CellExecutor,
                                      CellResult, ResultCache)
from repro.faults import (CACHE_CORRUPT, CACHE_ENOSPC, CACHE_READONLY,
                          CELL_HANG, WORKER_CRASH, FaultPlan, FaultSpec)
from repro.sim.scenario import Scenario

from tests.experiments.test_streaming import _small_axpy


def _cell(config=None, n_elements: int = 256) -> Cell:
    return Cell(_small_axpy(n_elements),
                Scenario(config or native_config(1)))


# ---------------------------------------------------------------------------
# cache integrity: checksums, quarantine, verify
# ---------------------------------------------------------------------------
def test_checksummed_entries_round_trip(tmp_path):
    store = ResultCache(tmp_path)
    payload = {"schema": CACHE_SCHEMA, "stats": {"cycles": 7}, "energy": {"total": 1.0}}
    store.put("k", payload)
    assert store.get("k") == payload
    wrapper = json.loads(store.path("k").read_text())
    assert set(wrapper) == {"sha256", "body"}


def test_bitrot_is_quarantined_and_reads_as_a_miss(tmp_path):
    store = ResultCache(tmp_path)
    payload = {"schema": CACHE_SCHEMA, "stats": {"cycles": 7}, "energy": {"total": 1.0}}
    store.put("k", payload)
    raw = store.path("k").read_text()
    rotten = raw.replace('cycles\\": 7', 'cycles\\": 9')  # body is escaped
    assert rotten != raw
    store.path("k").write_text(rotten)
    assert store.get("k") is None
    assert store.quarantined == 1
    assert not store.path("k").exists()
    assert (store.quarantine_dir() / "k.json").exists()


def test_legacy_plain_payload_is_a_miss_but_not_quarantined(tmp_path):
    store = ResultCache(tmp_path)
    store.path("k").parent.mkdir(parents=True, exist_ok=True)
    store.path("k").write_text(json.dumps({"schema": CACHE_SCHEMA, "stats": {},
                                           "energy": {}}))
    assert store.get("k") is None
    assert store.quarantined == 0
    assert store.path("k").exists()  # stale, not corrupt: left in place


def test_verify_classifies_the_whole_damage_taxonomy(tmp_path):
    store = ResultCache(tmp_path)
    ok = {"schema": CACHE_SCHEMA, "stats": {}, "energy": {}}
    store.put("good", ok)
    store.put("rotten", ok)
    raw = store.path("rotten").read_text()
    store.path("rotten").write_text(raw[:-20] + raw[-18:])
    store.path("legacy").write_text(json.dumps(ok))
    store.put("stale", {"schema": -1, "stats": {}, "energy": {}})
    counts = store.verify()
    assert counts == {"entries": 4, "ok": 1, "quarantined": 1, "stale": 1,
                      "legacy": 1}
    assert (store.quarantine_dir() / "rotten.json").exists()


# ---------------------------------------------------------------------------
# degraded operation: unwritable cache directories
# ---------------------------------------------------------------------------
def test_readonly_cache_degrades_to_memory_with_one_warning(recwarn, tmp_path):
    plan = FaultPlan(specs=[FaultSpec(kind=CACHE_READONLY, site="results",
                                      times=99)])
    store = ResultCache(tmp_path / "cache")
    payload = {"schema": CACHE_SCHEMA, "stats": {}, "energy": {}}
    with faults.injected(plan):
        store.put("a", payload)
        store.put("b", payload)
    warned = [w for w in recwarn.list if "unwritable" in str(w.message)]
    assert len(warned) == 1  # warn once, not per write
    assert store.get("a") == payload  # served from the in-memory overlay
    assert store.get("b") == payload
    assert not list((tmp_path / "cache").glob("*.json"))


def test_enospc_mid_write_leaves_no_partial_entry(recwarn, tmp_path):
    plan = FaultPlan(specs=[FaultSpec(kind=CACHE_ENOSPC, site="results",
                                      ordinal=0)])
    store = ResultCache(tmp_path / "cache")
    payload = {"schema": CACHE_SCHEMA, "stats": {}, "energy": {}}
    with faults.injected(plan):
        store.put("a", payload)  # hits ENOSPC mid-write
        store.put("b", payload)  # the next write finds space again
    assert len([w for w in recwarn.list
                if "unwritable" in str(w.message)]) == 1
    assert store.get("a") == payload  # overlay
    assert store.get("b") == payload  # disk
    on_disk = {p.name for p in (tmp_path / "cache").glob("*")}
    assert on_disk == {"b.json"}  # no a.json and, crucially, no *.tmp


def test_degraded_sweep_completes_with_correct_results(recwarn, tmp_path):
    """A sweep against a read-only cache dir: every cell still simulates
    and renders; the run is merely unpersisted."""
    plan = FaultPlan(specs=[FaultSpec(kind=CACHE_READONLY, site="results",
                                      times=99)])
    cells = [_cell(native_config(1)), _cell(ava_config(8))]
    executor = CellExecutor(cache=ResultCache(tmp_path / "cache"))
    with faults.injected(plan):
        results = executor.run(cells)
    assert all(isinstance(r, CellResult) and r.stats.cycles > 0
               for r in results)
    assert executor.stats.cells_failed == 0
    assert len([w for w in recwarn.list
                if "unwritable" in str(w.message)]) == 1
    # Within the same executor the overlay serves warm requests.
    rerun = executor.run(cells)
    assert executor.stats.cache_hits == 2
    assert [r.stats.cycles for r in rerun] == [r.stats.cycles
                                               for r in results]


def test_corrupt_write_is_quarantined_then_resimulated(tmp_path):
    """cache-corrupt -> verify-on-read quarantines -> the cell re-simulates
    with identical output."""
    plan = FaultPlan(specs=[FaultSpec(kind=CACHE_CORRUPT, site="results",
                                      ordinal=0)])
    cell = _cell()
    first = CellExecutor(cache=ResultCache(tmp_path / "cache"))
    with faults.injected(plan):
        poisoned = first.run([cell])[0]

    second = CellExecutor(cache=ResultCache(tmp_path / "cache"))
    replayed = second.run([cell])[0]
    assert second.stats.cache_hits == 0  # the corrupt entry was no hit
    assert second.stats.cache_quarantined == 1
    assert replayed.stats.cycles == poisoned.stats.cycles
    quarantine = tmp_path / "cache" / "quarantine"
    assert len(list(quarantine.glob("*.json"))) == 1

    third = CellExecutor(cache=ResultCache(tmp_path / "cache"))
    assert isinstance(third.run([cell])[0], CellResult)
    assert third.stats.cache_hits == 1  # the rewrite healed the store


# ---------------------------------------------------------------------------
# concurrent writers: atomic commits
# ---------------------------------------------------------------------------
def _payload(tag: str, n: int = 4096) -> dict:
    return {"schema": CACHE_SCHEMA, "stats": {}, "energy": {}, "pad": tag * n}


def test_concurrent_writers_never_tear_an_entry(tmp_path):
    """Two writers committing the same keys against one directory: every
    read returns one writer's payload whole — never a mix, never a
    quarantine — and verify() afterwards finds every entry intact."""
    root = tmp_path / "shared"
    whole = {_payload(tag)["pad"] for tag in "ab"}
    errors = []

    def writer(tag: str) -> None:
        try:
            store = ResultCache(root)
            for i in range(200):
                key = f"k{i % 4}"
                store.put(key, _payload(tag))
                got = store.get(key)
                # The atomic-rename contract: the other writer may have
                # replaced the entry since, but only ever whole.
                if got is None or got.get("pad") not in whole:
                    raise AssertionError(f"torn read for {key}: {got}")
            assert store.quarantined == 0
        except BaseException as exc:  # noqa: BLE001 — reported to the test
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(t,)) for t in "ab"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    counts = ResultCache(root).verify()
    assert counts["entries"] == counts["ok"] == 4
    assert counts["quarantined"] == 0


def test_store_is_unbounded_and_reads_leave_entries_untouched(tmp_path):
    """Nothing is evicted however much is written, and a read writes
    nothing: every entry keeps its bytes and its mtime."""
    store = ResultCache(tmp_path)
    keys = [f"k{i}" for i in range(40)]
    for key in keys:
        store.put(key, _payload(key))
    before = {key: (store.path(key).stat().st_mtime_ns,
                    store.path(key).read_bytes()) for key in keys}
    time.sleep(0.01)
    for key in keys:
        assert store.get(key)["pad"] == _payload(key)["pad"]
    assert store.stats()[0] == len(keys)
    assert {key: (store.path(key).stat().st_mtime_ns,
                  store.path(key).read_bytes()) for key in keys} == before


def test_clear_spares_entries_committed_after_it_started(tmp_path):
    import os
    store = ResultCache(tmp_path)
    store.put("old", {"schema": CACHE_SCHEMA, "stats": {}, "energy": {}})
    store.put("fresh", {"schema": CACHE_SCHEMA, "stats": {}, "energy": {}})
    # A concurrent writer committing while clear() runs lands with a
    # LATER mtime than the clear's start; model that with a future stamp.
    future = time.time() + 30
    os.utime(store.path("fresh"), (future, future))
    removed = store.clear()
    assert removed == 1
    assert not store.path("old").exists()
    assert store.path("fresh").exists()  # the just-committed entry lives


# ---------------------------------------------------------------------------
# retry budget: transient faults retry, deterministic failures fail fast
# ---------------------------------------------------------------------------
def test_transient_fault_retries_and_counts_one_miss(tmp_path):
    cell = _cell()
    plan = FaultPlan(specs=[FaultSpec(kind=WORKER_CRASH, attempt=0)])
    snapshots = []
    executor = CellExecutor(cache=ResultCache(tmp_path / "cache"),
                            backoff_s=0.0,
                            progress=lambda p: snapshots.append(
                                (p.misses, p.retries)))
    with faults.injected(plan):
        result = executor.run([cell])[0]
    assert isinstance(result, CellResult)
    assert executor.stats.retries == 1
    assert executor.stats.cache_misses == 1  # ONE miss, not one per attempt
    assert executor.stats.cells_failed == 0
    assert snapshots[-1] == (1, 1)


def test_deterministic_cell_errors_fail_fast(tmp_path):
    from tests.experiments.test_streaming import RaisingAxpy, _arm
    executor = CellExecutor(cache=ResultCache(tmp_path / "cache"),
                            retries=3, backoff_s=0.0)
    with pytest.raises(CellExecutionError):
        executor.run([Cell(_arm(RaisingAxpy(), armed=True),
                           Scenario(native_config(1)), check=True)])
    assert executor.stats.retries == 0  # no budget burned reproducing it


def test_retry_budget_exhausts_into_a_cell_error():
    plan = FaultPlan(specs=[FaultSpec(kind=WORKER_CRASH, attempt=None,
                                      times=99)])
    executor = CellExecutor(retries=2, backoff_s=0.0)
    with faults.injected(plan):
        with pytest.raises(CellExecutionError) as err:
            executor.run([_cell()])
    assert err.value.errors[0].error.startswith("TransientFaultError")
    assert executor.stats.retries == 2  # the whole budget, then fail
    assert executor.stats.cells_failed == 1


# ---------------------------------------------------------------------------
# deadlines: inline SIGALRM and the pool watchdog
# ---------------------------------------------------------------------------
def test_inline_deadline_interrupts_a_hang_and_the_retry_lands():
    plan = FaultPlan(specs=[FaultSpec(kind=CELL_HANG, attempt=0,
                                      delay_s=30.0)])
    executor = CellExecutor(deadline_s=0.3, retries=1, backoff_s=0.0)
    started = time.monotonic()
    with faults.injected(plan):
        result = executor.run([_cell()])[0]
    assert time.monotonic() - started < 10  # the hang died at ~0.3s
    assert isinstance(result, CellResult)
    assert executor.stats.timeouts == 1
    assert executor.stats.retries == 1


def test_pool_watchdog_kills_a_hung_worker_and_retries(tmp_path):
    cells = [_cell(config) for config in (native_config(1), ava_config(2),
                                          ava_config(4), ava_config(8))]
    hang_label = cells[0].label()
    plan = FaultPlan(specs=[FaultSpec(kind=CELL_HANG, match=hang_label,
                                      attempt=0, delay_s=30.0)])
    executor = CellExecutor(jobs=2, cache=ResultCache(tmp_path / "cache"),
                            deadline_s=1.0, retries=3, backoff_s=0.0)
    started = time.monotonic()
    with faults.injected(plan), executor:
        results = executor.run(cells)
    assert time.monotonic() - started < 30  # watchdog, not the 30s hang
    assert all(isinstance(r, CellResult) for r in results)
    assert executor.stats.timeouts >= 1
    assert executor.stats.retries >= 1
    assert executor.stats.cells_failed == 0
    # Every cell's one miss was cached despite the carnage.
    assert executor.stats.cache_misses == 4


def test_broken_pool_respawn_preserves_attempt_counts(tmp_path):
    """A cell that crashes its worker on attempts 0 AND 1 must terminate:
    the respawned pool resubmits with the attempt count intact (were it
    reset, the attempt-gated crash would fire forever)."""
    cells = [_cell(native_config(1)), _cell(ava_config(8))]
    crash_label = cells[0].label()
    plan = FaultPlan(specs=[FaultSpec(kind=WORKER_CRASH, match=crash_label,
                                      attempt=[0, 1], times=2)])
    executor = CellExecutor(jobs=2, cache=ResultCache(tmp_path / "cache"),
                            retries=3, backoff_s=0.0)
    with faults.injected(plan), executor:
        results = executor.run(cells)
    assert all(isinstance(r, CellResult) for r in results)
    # The crasher was charged exactly twice; the innocent bystander at
    # most twice (once per wave it was in flight for) — and the budget
    # of 3 was never exceeded, proving attempts survived the respawns.
    assert 2 <= executor.stats.retries <= 4
    assert executor.stats.cells_failed == 0
    assert executor.stats.cache_misses == 2  # still one miss per cell


# ---------------------------------------------------------------------------
# the chaos harness end to end
# ---------------------------------------------------------------------------
def test_chaos_triple_run_is_byte_identical(tmp_path):
    spec = {"name": "chaos-test", "workloads": ["axpy"],
            "machines": ["native-x1", "ava-x8"]}
    out = io.StringIO()
    code = run_chaos(spec, seed=2, jobs=2, cache_dir=tmp_path / "cache",
                     deadline_s=1.0, backoff_s=0.0, out=out)
    text = out.getvalue()
    assert code == 0, text
    assert "byte-identical stdout across clean/faulted/warm runs" in text
    assert "; 0 failed cells;" in text
    # The faulted cache quarantined its corrupted entry on the warm pass.
    quarantine = Path(tmp_path / "cache") / "chaos" / "faulted" / "quarantine"
    assert len(list(quarantine.glob("*.json"))) == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_chaos_counts_one_compile_per_pair_at_every_jobs(jobs, capsys,
                                                         tmp_path):
    """A retried pair job compiles its program again instead of replaying
    one an earlier attempt stored, so the faulted run's engine line counts
    one compile per pair: the smoke grid's two, at every ``--jobs``."""
    from repro.__main__ import main

    spec = Path(__file__).resolve().parents[2] / "examples" / "sweep_smoke.json"
    code = main(["chaos", str(spec), "--seed", "7", "--deadline", "1.5",
                 "--cache-stats", "--jobs", jobs,
                 "--cache-dir", str(tmp_path / "cache")])
    captured = capsys.readouterr()
    assert code == 0, captured.out
    engine_line = captured.err.splitlines()[0]
    assert engine_line.endswith(", 2 kernel compiles"), engine_line
    assert "resilience:" in captured.err  # the plan's faults did fire
