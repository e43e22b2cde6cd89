"""Streaming execution: incremental caching, failure isolation, resume.

The contract under test: every completed cell is written to the cache the
moment it lands, so interrupting a grid — a raising cell, an OOM-killed
worker, Ctrl-C — never discards finished work; rerunning the same grid
replays the completed cells as hits and re-executes only what is missing.
"""

import io
import os
import signal
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.compiler.signature import CompileSignature
from repro.core.config import ava_config, native_config
from repro.experiments import engine
from repro.experiments.engine import (
    Cell,
    CellError,
    CellExecutionError,
    CellExecutor,
    CellResult,
    Progress,
    ProgressRenderer,
    ResultCache,
    RunRecord,
    SweepSpec,
    average_speedups,
)
from repro.power.mcpat import McPatModel
from repro.sim.stats import SimStats
from repro.vpu.params import DEFAULT_TIMING
from repro.workloads import get_workload
from repro.workloads.axpy import Axpy


# ---------------------------------------------------------------------------
# poison workloads (module-level so worker processes can unpickle them)
# ---------------------------------------------------------------------------
class RaisingAxpy(Axpy):
    """Compiles like axpy, then raises instead of simulating.

    ``armed`` starts False so the compile-time buffer-shape probe (which
    also calls ``init_data``) can run; :func:`_arm` caches the shapes and
    then flips it, so the poison only fires inside ``_execute_cell``.
    """

    name = "raising-axpy"
    armed = False

    def init_data(self, rng):
        if self.armed:
            raise RuntimeError("injected failure")
        return super().init_data(rng)


class DieWhenFlagged(Axpy):
    """Simulates a SIGKILL-ed worker (OOM killer): hard-exits the process.

    While ``flag_path`` exists the workload waits until ``neighbours``
    cache entries have landed in ``watch_dir`` (so the test
    deterministically has completed-and-cached neighbours, and none of
    them is still in flight to share the crash), then dies without
    cleanup.  With the flag removed it behaves exactly like axpy — same
    kernel, same cache key — which is how the rerun proves the failed
    cell re-executes.
    """

    name = "dying-axpy"
    flag_path = ""
    watch_dir = ""
    neighbours = 1

    def init_data(self, rng):
        if self.flag_path and os.path.exists(self.flag_path):
            deadline = time.time() + 30
            while time.time() < deadline:
                landed = list(Path(self.watch_dir).glob("*.json"))
                if len(landed) >= self.neighbours:
                    break
                time.sleep(0.01)
            os._exit(13)
        return super().init_data(rng)


class DieInCompile(Axpy):
    """Hard-exits the pool worker that compiles it — once.

    The compile deletes ``flag_path`` before ``os._exit``, so the retry
    after the pool breaks compiles normally and the test stays
    deterministic.  Inline compiles (the parent process) never die.
    """

    name = "dying-compile-axpy"
    flag_path = ""

    def compile(self, target):
        if (engine._IN_POOL_WORKER and self.flag_path
                and os.path.exists(self.flag_path)):
            os.unlink(self.flag_path)
            os._exit(13)
        return super().compile(target)


class HangInCompile(Axpy):
    """A compile that never finishes: only a deadline can end it."""

    name = "hanging-compile-axpy"

    def compile(self, target):
        time.sleep(60)
        return super().compile(target)


class FlakyCompile(Axpy):
    """A compile that hits a transient I/O error once.

    It deletes ``flag_path`` before raising, so the retry compiles
    normally wherever it runs (parent or pool worker).
    """

    name = "flaky-compile-axpy"
    flag_path = ""

    def compile(self, target):
        if self.flag_path and os.path.exists(self.flag_path):
            os.unlink(self.flag_path)
            raise OSError("transient compile-host hiccup")
        return super().compile(target)


class CompileRaises(Axpy):
    """Builds its kernel (so the cell has a key), then fails to compile it
    deterministically."""

    name = "compile-raises-axpy"

    def compile(self, target):
        raise ValueError("register allocation failed")


class CompileBomb(Axpy):
    """A kernel whose *compile* raises — isolation must start before any
    simulation, not just inside ``_execute_cell``."""

    name = "compile-bomb"

    def build_kernel(self):
        raise ValueError("kernel does not build")


def _arm(workload: Axpy, **attributes) -> Axpy:
    """Cache the compile-time buffer shapes, then enable the poison."""
    _ = workload.buffers
    for name, value in attributes.items():
        setattr(workload, name, value)
    return workload


def _small_axpy(n_elements: int = 256) -> Axpy:
    workload = get_workload("axpy")
    workload.n_elements = n_elements
    return workload


def _grid_40() -> SweepSpec:
    """A cheap 40-cell grid: 4 machines x 10 timing variants of tiny axpy."""
    return SweepSpec(
        workloads=(_small_axpy(),),
        configs=(native_config(1), ava_config(2), ava_config(4),
                 ava_config(8)),
        params=tuple(replace(DEFAULT_TIMING, arith_dead_time=i)
                     for i in range(10)))


# ---------------------------------------------------------------------------
# failure isolation: a raising cell becomes a CellError
# ---------------------------------------------------------------------------
def test_raising_cell_does_not_discard_the_batch(tmp_path):
    cells = [Cell(workload="axpy", config=native_config(1)),
             Cell(workload=_arm(RaisingAxpy(), armed=True),
                  config=native_config(1)),
             Cell(workload="axpy", config=ava_config(2))]
    executor = CellExecutor(cache=ResultCache(tmp_path / "cache"))
    with pytest.raises(CellExecutionError) as err:
        executor.run(cells)
    assert "1 of 3 cells failed" in str(err.value)
    assert "RuntimeError: injected failure" in str(err.value)
    assert err.value.completed == 2
    assert [e.label() for e in err.value.errors] == ["raising-axpy@NATIVE X1"]
    # Both healthy cells were cached before the failure surfaced ...
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2
    assert executor.stats.cells_failed == 1
    assert "1 cells failed" in executor.stats.summary()

    # ... so the rerun replays them and re-executes only the failure.
    warm = CellExecutor(cache=ResultCache(tmp_path / "cache"))
    with pytest.raises(CellExecutionError):
        warm.run(cells)
    assert warm.stats.cache_hits == 2
    assert warm.stats.cache_misses == 1
    assert warm.stats.sims_executed == 0  # the raise happens mid-simulation


def test_errors_return_mode_yields_cell_errors_in_place(tmp_path):
    cells = [Cell(workload="axpy", config=native_config(1)),
             Cell(workload=_arm(RaisingAxpy(), armed=True),
                  config=native_config(1))]
    executor = CellExecutor(cache=ResultCache(tmp_path / "cache"))
    results = executor.run(cells, errors="return")
    assert isinstance(results[0], CellResult)
    assert isinstance(results[1], CellError)
    assert results[1].error == "RuntimeError: injected failure"
    assert "injected failure" in results[1].tb  # worker traceback captured
    assert results[1].key  # the key is known, so a rerun can resume


def test_raising_cell_is_isolated_under_a_parallel_pool(tmp_path):
    cells = [Cell(workload="axpy", config=cfg)
             for cfg in (native_config(1), ava_config(2), ava_config(4))]
    cells.insert(1, Cell(workload=_arm(RaisingAxpy(), armed=True),
                         config=native_config(1)))
    with CellExecutor(jobs=2, cache=ResultCache(tmp_path / "cache")) as ex:
        results = ex.run(cells, errors="return")
        assert sum(isinstance(r, CellError) for r in results) == 1
        assert isinstance(results[1], CellError)
        assert len(list((tmp_path / "cache").glob("*.json"))) == 3
    assert ex._pool is None  # the context manager shut the pool down


def test_compile_failure_is_isolated_per_cell(tmp_path):
    """One unbuildable kernel must not abort the grid — and two cells
    sharing the failing (workload, config) pair share one CellError while
    the reported counts stay per cell."""
    bomb = CompileBomb()
    cells = [Cell(workload="axpy", config=native_config(1)),
             Cell(workload=bomb, config=native_config(1)),
             Cell(workload=bomb, config=native_config(1), warm=False)]
    executor = CellExecutor(cache=ResultCache(tmp_path / "cache"))
    results = executor.run(cells, errors="return")
    assert isinstance(results[0], CellResult)
    assert isinstance(results[1], CellError)
    assert results[2] is results[1]  # one compile attempt, one shared error
    assert results[1].error == "ValueError: kernel does not build"
    assert results[1].key == ""  # no program, hence nothing to cache under
    assert executor.stats.compiles == 1  # only the successful axpy compile
    assert executor.stats.cells_failed == 2
    assert executor.stats.sims_executed == 1
    # The healthy cell was cached; reruns retry the failed compile.
    assert len(list((tmp_path / "cache").glob("*.json"))) == 1
    warm = CellExecutor(cache=ResultCache(tmp_path / "cache"))
    with pytest.raises(CellExecutionError) as err:
        warm.run(cells)
    assert "2 of 3 cells failed" in str(err.value)  # per cell, not per key
    assert "1 completed and cached" in str(err.value)
    assert len(err.value.errors) == 1  # one distinct failure
    assert warm.stats.cache_hits == 1


def test_compile_failure_is_isolated_under_a_parallel_pool(tmp_path):
    cells = [Cell(workload="axpy", config=cfg)
             for cfg in (native_config(1), ava_config(2))]
    cells.append(Cell(workload=CompileBomb(), config=native_config(1)))
    with CellExecutor(jobs=2, cache=ResultCache(tmp_path / "cache")) as ex:
        results = ex.run(cells, errors="return")
        assert [isinstance(r, CellError) for r in results] == [
            False, False, True]
        assert len(list((tmp_path / "cache").glob("*.json"))) == 2


def test_run_spec_and_run_one_expose_the_errors_knob():
    spec = SweepSpec(workloads=(_arm(RaisingAxpy(), armed=True),),
                     configs=(native_config(1),))
    results = CellExecutor().run_spec(spec, errors="return")
    assert isinstance(results[0], CellError)
    one = CellExecutor().run_one(spec.cells()[0], errors="return")
    assert isinstance(one, CellError)


def test_run_rejects_unknown_errors_mode():
    with pytest.raises(ValueError):
        CellExecutor().run([], errors="bogus")


# ---------------------------------------------------------------------------
# interrupt / resume: finished cells replay as hits
# ---------------------------------------------------------------------------
def test_interrupted_40_cell_grid_resumes_from_cache(tmp_path):
    """The acceptance scenario: a --jobs 4 40-cell grid killed mid-run.

    The interrupt arrives through the progress callback (exactly what a
    Ctrl-C in the render loop looks like to the engine) after the 10th
    cell lands; because every payload is cached before ``done`` advances,
    the rerun must replay exactly those 10 cells as hits and re-execute
    the remaining 30 — ``cache_misses`` strictly below the grid size.
    """
    spec = _grid_40()

    def interrupt_after_10(progress: Progress) -> None:
        if progress.done >= 10:
            raise KeyboardInterrupt

    cold = CellExecutor(jobs=4, cache=ResultCache(tmp_path / "cache"),
                        progress=interrupt_after_10)
    with pytest.raises(KeyboardInterrupt):
        cold.run_spec(spec)
    assert cold._pool is None  # interrupted pool was discarded
    cached = len(list((tmp_path / "cache").glob("*.json")))
    assert cached == 10

    warm = CellExecutor(jobs=4, cache=ResultCache(tmp_path / "cache"))
    results = warm.run_spec(spec)
    assert len(results) == 40
    assert warm.stats.cache_hits == 10
    assert warm.stats.cache_misses == 30
    assert warm.stats.cache_misses < len(spec)
    warm.close()


def test_worker_death_preserves_completed_cells_and_resumes(tmp_path):
    """An OOM-killed worker breaks the pool, not the completed work."""
    cache_dir = tmp_path / "cache"
    flag = tmp_path / "die.flag"
    flag.write_text("armed")
    dying = _arm(DieWhenFlagged(), flag_path=str(flag),
                 watch_dir=str(cache_dir), neighbours=4)

    goods = [Cell(workload="axpy", config=cfg)
             for cfg in (native_config(1), ava_config(2), ava_config(4),
                         ava_config(8))]
    cells = goods + [Cell(workload=dying, config=native_config(1))]

    executor = CellExecutor(jobs=2, cache=ResultCache(cache_dir))
    with pytest.raises(CellExecutionError) as err:
        executor.run(cells)
    assert any("BrokenProcessPool" in e.error for e in err.value.errors)
    assert executor._pool is None  # the broken pool was discarded
    cached = len(list(cache_dir.glob("*.json")))
    assert cached == 4  # the dying cell waited for its neighbours to land

    # The executor survives the death: the next batch gets a fresh pool.
    # (Its two cells use a different key, so `cached` stays grid-only.)
    survivors = executor.run(
        [Cell(workload=_small_axpy(128), config=cfg)
         for cfg in (native_config(1), ava_config(2))])
    assert all(isinstance(r, CellResult) for r in survivors)
    executor.close()

    # Disarm the poison: same cells, same keys, no death.  Every cell
    # completed before the crash replays as a hit; the rest re-execute.
    flag.unlink()
    warm = CellExecutor(jobs=2, cache=ResultCache(cache_dir))
    results = warm.run(cells)
    assert all(isinstance(r, CellResult) for r in results)
    assert warm.stats.cache_hits == cached
    assert warm.stats.cache_misses == len(cells) - cached
    assert warm.stats.cache_misses < len(cells)
    warm.close()


def test_worker_death_during_compile_fan_out_is_retried(tmp_path):
    """A worker killed mid-compile is reclaimed like one killed
    mid-simulation: every compile in the batch is charged and retried,
    never failed as collateral."""
    flag = tmp_path / "die.flag"
    flag.write_text("armed")
    dying = DieInCompile()
    dying.flag_path = str(flag)
    cells = [Cell(workload=dying, config=native_config(1))] + [
        Cell(workload="lavamd", config=cfg)
        for cfg in (native_config(1), ava_config(2), ava_config(4),
                    ava_config(8))]
    pairs = {(cell.workload, CompileSignature.from_config(cell.config))
             for cell in cells}
    with CellExecutor(jobs=2, retries=3) as executor:
        results = executor.run(cells, errors="return")
    assert not flag.exists()  # the poison fired
    assert all(isinstance(r, CellResult) for r in results)
    assert executor.stats.retries >= 1
    assert executor.stats.compiles == len(pairs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_deadline_bounds_a_hung_compile(jobs):
    """The per-cell deadline covers the compile, not just the simulation:
    inline the alarm interrupts it, pooled the watchdog kills the worker.
    A healthy compile sharing the batch is collateral, never charged."""
    cells = [Cell(workload=HangInCompile(), config=native_config(1)),
             Cell(workload="axpy", config=native_config(1))]
    with CellExecutor(jobs=jobs, deadline_s=0.5, retries=0) as executor:
        start = time.monotonic()
        results = executor.run(cells, errors="return")
    assert time.monotonic() - start < 30
    assert isinstance(results[0], CellError)
    assert results[0].error.startswith("CellDeadlineExceeded")
    assert isinstance(results[1], CellResult)
    assert executor.stats.timeouts == 1
    assert executor.stats.retries == 0
    assert executor.stats.compiles == 1


def test_inline_compile_deadline_disarms_its_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    executor = CellExecutor(deadline_s=0.3, retries=0)
    result = executor.run_one(Cell(workload=HangInCompile(),
                                   config=native_config(1)), errors="return")
    assert isinstance(result, CellError)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("jobs", [1, 2])
def test_transient_compile_failure_is_retried(jobs, tmp_path):
    flag = tmp_path / "flaky.flag"
    flag.write_text("armed")
    flaky = FlakyCompile()
    flaky.flag_path = str(flag)
    cells = [Cell(workload=flaky, config=native_config(1)),
             Cell(workload="axpy", config=ava_config(8))]
    with CellExecutor(jobs=jobs, retries=2, backoff_s=0.01) as executor:
        results = executor.run(cells)
    assert not flag.exists()  # the fault fired
    assert all(isinstance(r, CellResult) for r in results)
    assert executor.stats.retries == 1
    assert executor.stats.compiles == 2
    assert executor.stats.sims_executed == 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_deterministic_compile_failure_fails_fast(jobs):
    """A compile that raises the same way every time is not charged to
    the retry budget: it fails on its first attempt."""
    cells = [Cell(workload=CompileRaises(), config=native_config(1)),
             Cell(workload="axpy", config=ava_config(8))]
    with CellExecutor(jobs=jobs, retries=3, backoff_s=0.01) as executor:
        results = executor.run(cells, errors="return")
    assert isinstance(results[0], CellError)
    assert results[0].error == "ValueError: register allocation failed"
    assert isinstance(results[1], CellResult)
    assert executor.stats.retries == 0
    assert executor.stats.compiles == 1
    assert executor.stats.cells_failed == 1


def test_inline_interrupt_preserves_cache_without_a_pool(tmp_path):
    """jobs=1 streams too: each inline cell is cached as it completes."""
    spec = SweepSpec(workloads=(_small_axpy(),),
                     configs=(native_config(1), ava_config(2),
                              ava_config(4), ava_config(8)))

    def interrupt_after_2(progress: Progress) -> None:
        if progress.done >= 2:
            raise KeyboardInterrupt

    cold = CellExecutor(cache=ResultCache(tmp_path / "cache"),
                        progress=interrupt_after_2)
    with pytest.raises(KeyboardInterrupt):
        cold.run_spec(spec)
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2

    warm = CellExecutor(cache=ResultCache(tmp_path / "cache"))
    warm.run_spec(spec)
    assert warm.stats.cache_hits == 2
    assert warm.stats.cache_misses == 2


# ---------------------------------------------------------------------------
# persistent pool + fanned-out compiles
# ---------------------------------------------------------------------------
def test_pool_persists_across_batches_and_closes():
    executor = CellExecutor(jobs=2)
    spec = SweepSpec(workloads=(_small_axpy(),),
                     configs=(native_config(1), ava_config(2)))
    executor.run_spec(spec)
    pool = executor._pool
    assert pool is not None
    executor.run_spec(SweepSpec(workloads=(_small_axpy(),),
                                configs=(ava_config(4), ava_config(8))))
    assert executor._pool is pool  # reused, not respawned per batch
    executor.close()
    assert executor._pool is None
    executor.close()  # idempotent


def test_parallel_compiles_match_serial_results_and_counts(tmp_path):
    spec = SweepSpec(workloads=("axpy", "blackscholes"),
                     configs=(native_config(1), ava_config(8)))
    serial = CellExecutor()
    serial_results = serial.run_spec(spec)
    with CellExecutor(jobs=2) as parallel:
        parallel_results = parallel.run_spec(spec)
        # Fanning compiles over the pool must not change the accounting:
        # one compile per distinct (workload, config) pair ...
        assert parallel.stats.compiles == serial.stats.compiles == 4
    # ... or any byte of the results.
    for a, b in zip(serial_results, parallel_results):
        assert a.stats == b.stats
        assert a.energy == b.energy


# ---------------------------------------------------------------------------
# progress reporting
# ---------------------------------------------------------------------------
def test_progress_callback_sees_every_landing(tmp_path):
    spec = SweepSpec(workloads=(_small_axpy(),),
                     configs=(native_config(1), ava_config(2)))
    snapshots = []

    def record(progress: Progress) -> None:
        snapshots.append((progress.label, progress.done, progress.hits,
                          progress.misses, progress.failed))

    cold = CellExecutor(cache=ResultCache(tmp_path / "cache"),
                        progress=record)
    cold.run_spec(spec, label="demo")
    assert snapshots[0] == ("demo", 0, 0, 2, 0)  # post-scan snapshot
    assert snapshots[-1] == ("demo", 2, 0, 2, 0)
    assert [s[1] for s in snapshots] == sorted(s[1] for s in snapshots)

    snapshots.clear()
    warm = CellExecutor(cache=ResultCache(tmp_path / "cache"),
                        progress=record)
    warm.run_spec(spec, label="replay")
    # A full-hit batch is done at the scan: one final snapshot.
    assert snapshots == [("replay", 2, 2, 0, 0)]


def test_progress_rate_and_elapsed_are_sane():
    progress = Progress(total=4)
    assert progress.rate == 0.0
    progress.done = 2
    assert progress.rate > 0.0
    assert progress.elapsed >= 0.0


def test_progress_renderer_writes_in_place_lines():
    stream = io.StringIO()
    renderer = ProgressRenderer(stream=stream, min_interval_s=0.0)
    progress = Progress(total=3, label="grid")
    progress.done, progress.misses = 1, 3
    renderer(progress)
    progress.done, progress.failed = 3, 1
    renderer(progress)
    text = stream.getvalue()
    assert text.startswith("\rgrid: 1/3 cells")
    assert "| 3 misses" in text
    assert "1 FAILED" in text
    assert text.endswith("\n")  # a finished batch terminates its own line
    renderer.close()  # nothing pending: must not add another newline
    assert stream.getvalue() == text


def test_progress_renderer_close_terminates_interrupted_lines():
    stream = io.StringIO()
    renderer = ProgressRenderer(stream=stream, min_interval_s=0.0)
    progress = Progress(total=5)
    progress.done = 1
    renderer(progress)
    assert not stream.getvalue().endswith("\n")
    renderer.close()
    assert stream.getvalue().endswith("\n")
    renderer.close()
    assert stream.getvalue().count("\n") == 1


# ---------------------------------------------------------------------------
# satellite: orphaned tempfiles are reaped
# ---------------------------------------------------------------------------
def _age(path: Path, seconds: float) -> None:
    old = time.time() - seconds
    os.utime(path, (old, old))


def test_clear_reaps_orphaned_tmp_files(tmp_path):
    root = tmp_path / "cache"
    root.mkdir()
    (root / "entry.json").write_text("{}")
    orphan = root / "orphan.tmp"
    orphan.write_text("partial write")
    _age(orphan, 2 * ResultCache.CLEAR_GRACE_S)
    live = root / "live.tmp"
    live.write_text("concurrent writer mid-put")  # fresh: never raced
    assert ResultCache(root).clear() == 2
    assert list(root.iterdir()) == [live]


def test_put_reaps_stale_orphans_but_spares_live_writers(tmp_path):
    root = tmp_path / "cache"
    root.mkdir()
    stale = root / "stale.tmp"
    stale.write_text("killed writer")
    _age(stale, 2 * ResultCache.TMP_MAX_AGE_S)
    fresh = root / "fresh.tmp"
    fresh.write_text("concurrent writer, mid-put")

    cache = ResultCache(root)
    cache.put("k1", {"schema": 1})
    assert not stale.exists()  # orphan reaped opportunistically
    assert fresh.exists()  # a live writer is never raced

    # The sweep runs once per cache instance, not once per put.
    stale2 = root / "stale2.tmp"
    stale2.write_text("killed writer")
    _age(stale2, 2 * ResultCache.TMP_MAX_AGE_S)
    cache.put("k2", {"schema": 1})
    assert stale2.exists()
    assert ResultCache(root).sweep_orphans() == 1


# ---------------------------------------------------------------------------
# satellite: the umask is read once per process
# ---------------------------------------------------------------------------
def test_put_never_flips_the_umask_after_the_first_read(tmp_path,
                                                        monkeypatch):
    import repro.cachefs as cachefs

    previous = os.umask(0o022)
    try:
        monkeypatch.setattr(cachefs, "_PROCESS_UMASK", None)
        assert cachefs.process_umask() == 0o022
        flips = []
        monkeypatch.setattr(cachefs.os, "umask", flips.append)
        cache = ResultCache(tmp_path / "cache")
        cache.put("k", {"schema": 1})
        assert flips == []  # concurrent executors can never race the flip
        import stat
        mode = stat.S_IMODE((cache.root / "k.json").stat().st_mode)
        assert mode == 0o644
    finally:
        os.umask(previous)


# ---------------------------------------------------------------------------
# satellite: ragged Figure-4 series are a renderer bug, not an average
# ---------------------------------------------------------------------------
def _record(speedup: float) -> RunRecord:
    stats = SimStats(cycles=100)
    record = RunRecord(config=native_config(1), stats=stats,
                       energy=McPatModel().energy(native_config(1), stats))
    record.speedup = speedup
    return record


def test_average_speedups_rejects_ragged_series():
    ragged = {"axpy": [_record(1.0), _record(2.0)],
              "somier": [_record(1.5)]}
    with pytest.raises(ValueError, match="ragged"):
        average_speedups(ragged)


def test_average_speedups_still_averages_aligned_series():
    aligned = {"axpy": [_record(2.0)], "somier": [_record(4.0)]}
    assert average_speedups(aligned) == [3.0]
    # A left-to-right sum, as Figure 4 renders: np.mean differs in the
    # last bit on these ten.
    ten = [2.16, 1.31, 2.0, 0.4, 1.34, 1.92, 0.88, 2.39, 2.29, 0.46]
    assert average_speedups({str(i): [_record(s)] for i, s in enumerate(
        ten)}) == [sum(ten) / len(ten)]


# ---------------------------------------------------------------------------
# satellite: SimStats.from_dict copies meta both ways
# ---------------------------------------------------------------------------
def test_simstats_from_dict_copies_meta():
    source = {"cycles": 7, "meta": {"shared": 1}}
    stats = SimStats.from_dict(source)
    stats.meta["shared"] = 2
    assert source["meta"]["shared"] == 1  # the caller's dict is never aliased
    assert "meta" in source  # and from_dict never mutates its argument
