"""Streaming execution: incremental caching, failure isolation, resume.

The contract under test: every completed cell is written to the cache the
moment it lands, so interrupting a grid — a raising cell, an OOM-killed
worker, Ctrl-C — never discards finished work; rerunning the same grid
replays the completed cells as hits and re-executes only what is missing.
"""

import io
import os
import pickle
import signal
import time
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from repro.compiler.signature import CompileSignature
from repro.core.config import ava_config, native_config
from repro.experiments import engine
from repro.experiments.engine import (
    Cell,
    CellExecutionError,
    CellExecutor,
    CellResult,
    Progress,
    ProgressRenderer,
    ResultCache,
    SweepSpec,
    average_speedups,
    figure3_spec,
)
from repro.isa.program import Program
from repro.sim.scenario import Scenario
from repro.sim.simulator import Simulator
from repro.vpu.params import DEFAULT_TIMING
from repro.workloads import get_workload
from repro.workloads.axpy import Axpy
from repro.workloads.base import Workload


# ---------------------------------------------------------------------------
# poison workloads (module-level so worker processes can unpickle them)
# ---------------------------------------------------------------------------
class RaisingAxpy(Axpy):
    """Compiles like axpy, then raises instead of simulating.

    Compiling never calls ``init_data``, and only a checked cell loads
    data, so the poison fires only inside a checked cell's ``_run_cell``;
    ``armed`` starts False so an unarmed instance simulates like axpy,
    and :func:`_arm` flips it.
    """

    name = "raising-axpy"
    armed = False

    def init_data(self, rng):
        if self.armed:
            raise RuntimeError("injected failure")
        return super().init_data(rng)


class DieWhenFlagged(Axpy):
    """Simulates a SIGKILL-ed worker (OOM killer): hard-exits the process.

    The poison sits in ``init_data``, so it fires only in a checked cell.
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


class RaisingReference(Axpy):
    """Simulates like axpy, but its reference raises, so only a checked
    cell fails — a cell sharing its program stays healthy."""

    name = "raising-reference-axpy"

    def reference(self, data):
        raise RuntimeError("reference failed")


class MissingBufferAxpy(Axpy):
    """Its ``init_data`` omits a buffer the kernel references."""

    name = "missing-buffer-axpy"

    def init_data(self, rng):
        data = super().init_data(rng)
        del data["y"]
        return data


class CompileBomb(Axpy):
    """A kernel whose *compile* raises — isolation must start before any
    simulation, not just inside ``_run_cell``."""

    name = "compile-bomb"

    def build_kernel(self):
        raise ValueError("kernel does not build")


def _arm(workload: Axpy, **attributes) -> Axpy:
    """Enable the poison."""
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
def test_init_data_not_matching_the_buffers_fails_the_cell():
    """A missing array must not silently stay zero in functional mode."""
    cell = Cell(MissingBufferAxpy(), Scenario(native_config(1)), check=True)
    with pytest.raises(CellExecutionError) as err:
        CellExecutor().run([cell])
    assert ("ValueError: workload 'missing-buffer-axpy': init_data returned"
            in str(err.value))


def test_raising_cell_does_not_discard_the_batch(tmp_path):
    cells = [Cell("axpy", Scenario(native_config(1))),
             Cell(_arm(RaisingAxpy(), armed=True),
                  Scenario(native_config(1)), check=True),
             Cell("axpy", Scenario(ava_config(2)))]
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


def test_cell_error_names_the_failed_cell_and_its_traceback(tmp_path):
    cells = [Cell("axpy", Scenario(native_config(1))),
             Cell(_arm(RaisingAxpy(), armed=True),
                  Scenario(native_config(1)), check=True)]
    executor = CellExecutor(cache=ResultCache(tmp_path / "cache"))
    with pytest.raises(CellExecutionError) as err:
        executor.run(cells)
    [error] = err.value.errors
    assert error.cell is cells[1]
    assert error.error == "RuntimeError: injected failure"
    assert "injected failure" in error.tb  # worker traceback captured
    assert error.key  # the key is known, so a rerun can resume


def test_raising_cell_is_isolated_under_a_parallel_pool(tmp_path):
    cells = [Cell("axpy", Scenario(cfg))
             for cfg in (native_config(1), ava_config(2), ava_config(4))]
    cells.insert(1, Cell(_arm(RaisingAxpy(), armed=True),
                         Scenario(native_config(1)), check=True))
    with CellExecutor(jobs=2, cache=ResultCache(tmp_path / "cache")) as ex:
        with pytest.raises(CellExecutionError) as err:
            ex.run(cells)
        assert [e.cell for e in err.value.errors] == [cells[1]]
        assert len(list((tmp_path / "cache").glob("*.json"))) == 3
    assert ex._pool is None  # the context manager shut the pool down


@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_simulation_fails_only_its_key_in_a_pair_job(jobs,
                                                             tmp_path):
    """Two keys share one pair job; the one whose simulation raises fails
    alone, and the other is cached."""
    workload = RaisingReference()
    cells = [Cell(workload, Scenario(native_config(1)), check=True),
             Cell(workload, Scenario(native_config(1))),
             Cell("axpy", Scenario(ava_config(8)))]
    with CellExecutor(jobs=jobs,
                      cache=ResultCache(tmp_path / "cache")) as executor:
        with pytest.raises(CellExecutionError) as err:
            executor.run(cells)
    [error] = err.value.errors
    assert error.cell is cells[0]
    assert error.error == "RuntimeError: reference failed"
    assert "reference failed" in error.tb
    assert executor.stats.compiles == 2
    assert executor.stats.sims_executed == 2
    assert executor.stats.retries == 0
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2


def test_compile_failure_is_isolated_per_cell(tmp_path):
    """One unbuildable kernel must not abort the grid — and two cells
    sharing the failing (workload, config) pair share one CellError while
    the reported counts stay per cell."""
    bomb = CompileBomb()
    cells = [Cell("axpy", Scenario(native_config(1))),
             Cell(bomb, Scenario(native_config(1))),
             Cell(bomb, Scenario(native_config(1)), warm=False)]
    executor = CellExecutor(cache=ResultCache(tmp_path / "cache"))
    with pytest.raises(CellExecutionError) as err:
        executor.run(cells)
    [error] = err.value.errors  # one compile attempt, one shared error
    assert "2 of 3 cells failed" in str(err.value)
    assert error.error == "ValueError: kernel does not build"
    assert error.key == ""  # no program, hence nothing to cache under
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
    cells = [Cell("axpy", Scenario(cfg))
             for cfg in (native_config(1), ava_config(2))]
    cells.append(Cell(CompileBomb(), Scenario(native_config(1))))
    with CellExecutor(jobs=2, cache=ResultCache(tmp_path / "cache")) as ex:
        with pytest.raises(CellExecutionError) as err:
            ex.run(cells)
        assert [e.cell for e in err.value.errors] == [cells[2]]
        assert len(list((tmp_path / "cache").glob("*.json"))) == 2


def test_failed_spec_cell_raises_under_its_batch_label():
    """A sweep runs as ``run(spec.cells(), label=...)``; its failed cell
    raises after the drain and the last snapshot counts it under the
    batch's label.  The poison needs data, so the spec's cell is checked."""
    spec = SweepSpec(workloads=(_arm(RaisingAxpy(), armed=True),),
                     configs=(native_config(1),))
    cells = [replace(cell, check=True) for cell in spec.cells()]
    snapshots = []
    executor = CellExecutor(progress=lambda p: snapshots.append(
        (p.label, p.done, p.failed)))
    with pytest.raises(CellExecutionError) as err:
        executor.run(cells, label="spec")
    assert [e.cell for e in err.value.errors] == cells
    assert snapshots[-1] == ("spec", 1, 1)
    assert executor.stats.cells_failed == 1


def test_empty_batch_returns_no_results():
    executor = CellExecutor()
    assert executor.run([]) == []
    assert executor.stats.cells_requested == 0
    assert executor.stats.sims_executed == 0


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
    cells = _grid_40().cells()

    def interrupt_after_10(progress: Progress) -> None:
        if progress.done >= 10:
            raise KeyboardInterrupt

    cold = CellExecutor(jobs=4, cache=ResultCache(tmp_path / "cache"),
                        progress=interrupt_after_10)
    with pytest.raises(KeyboardInterrupt):
        cold.run(cells)
    assert cold._pool is None  # interrupted pool was discarded
    cached = len(list((tmp_path / "cache").glob("*.json")))
    assert cached == 10

    warm = CellExecutor(jobs=4, cache=ResultCache(tmp_path / "cache"))
    results = warm.run(cells)
    assert len(results) == 40
    assert warm.stats.cache_hits == 10
    assert warm.stats.cache_misses == 30
    warm.close()


def test_worker_death_preserves_completed_cells_and_resumes(tmp_path):
    """An OOM-killed worker breaks the pool, not the completed work."""
    cache_dir = tmp_path / "cache"
    flag = tmp_path / "die.flag"
    flag.write_text("armed")
    dying = _arm(DieWhenFlagged(), flag_path=str(flag),
                 watch_dir=str(cache_dir), neighbours=4)

    goods = [Cell("axpy", Scenario(cfg))
             for cfg in (native_config(1), ava_config(2), ava_config(4),
                         ava_config(8))]
    cells = goods + [Cell(dying, Scenario(native_config(1)), check=True)]

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
        [Cell(_small_axpy(128), Scenario(cfg))
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


def test_worker_death_during_a_pair_compile_is_retried(tmp_path):
    """A worker killed mid-compile is reclaimed like one killed
    mid-simulation: every pair job in flight is charged and retried,
    never failed as collateral."""
    flag = tmp_path / "die.flag"
    flag.write_text("armed")
    dying = DieInCompile()
    dying.flag_path = str(flag)
    cells = [Cell(dying, Scenario(native_config(1)))] + [
        Cell("lavamd", Scenario(cfg))
        for cfg in (native_config(1), ava_config(2), ava_config(4),
                    ava_config(8))]
    pairs = {(cell.workload, CompileSignature.from_config(cell.config))
             for cell in cells}
    with CellExecutor(jobs=2, retries=3) as executor:
        results = executor.run(cells)
    assert not flag.exists()  # the poison fired
    assert len(results) == len(cells)
    assert executor.stats.retries >= 1
    assert executor.stats.compiles == len(pairs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_deadline_bounds_a_hung_compile(jobs):
    """The job deadline covers the compile, not just the simulations:
    inline the alarm interrupts it, pooled the watchdog kills the worker.
    A healthy pair job sharing the batch is collateral, never charged."""
    cells = [Cell(HangInCompile(), Scenario(native_config(1))),
             Cell("axpy", Scenario(native_config(1)))]
    with CellExecutor(jobs=jobs, deadline_s=0.5, retries=0) as executor:
        start = time.monotonic()
        with pytest.raises(CellExecutionError) as err:
            executor.run(cells)
    assert time.monotonic() - start < 30
    [error] = err.value.errors
    assert error.cell is cells[0]
    assert error.error.startswith("CellDeadlineExceeded")
    assert err.value.completed == 1
    assert executor.stats.timeouts == 1
    assert executor.stats.retries == 0
    assert executor.stats.compiles == 1


def test_inline_compile_deadline_disarms_its_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    executor = CellExecutor(deadline_s=0.3, retries=0)
    with pytest.raises(CellExecutionError):
        executor.run([Cell(HangInCompile(), Scenario(native_config(1)))])
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("jobs", [1, 2])
def test_transient_compile_failure_is_retried(jobs, tmp_path):
    flag = tmp_path / "flaky.flag"
    flag.write_text("armed")
    flaky = FlakyCompile()
    flaky.flag_path = str(flag)
    cells = [Cell(flaky, Scenario(native_config(1))),
             Cell("axpy", Scenario(ava_config(8)))]
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
    cells = [Cell(CompileRaises(), Scenario(native_config(1))),
             Cell("axpy", Scenario(ava_config(8)))]
    with CellExecutor(jobs=jobs, retries=3, backoff_s=0.01) as executor:
        with pytest.raises(CellExecutionError) as err:
            executor.run(cells)
    [error] = err.value.errors
    assert error.cell is cells[0]
    assert error.error == "ValueError: register allocation failed"
    assert err.value.completed == 1
    assert executor.stats.retries == 0
    assert executor.stats.compiles == 1
    assert executor.stats.cells_failed == 1


def test_inline_interrupt_preserves_cache_without_a_pool(tmp_path):
    """jobs=1 streams too: each inline cell is cached as it completes."""
    cells = SweepSpec(workloads=(_small_axpy(),),
                      configs=(native_config(1), ava_config(2),
                               ava_config(4), ava_config(8))).cells()

    def interrupt_after_2(progress: Progress) -> None:
        if progress.done >= 2:
            raise KeyboardInterrupt

    cold = CellExecutor(cache=ResultCache(tmp_path / "cache"),
                        progress=interrupt_after_2)
    with pytest.raises(KeyboardInterrupt):
        cold.run(cells)
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2

    warm = CellExecutor(cache=ResultCache(tmp_path / "cache"))
    warm.run(cells)
    assert warm.stats.cache_hits == 2
    assert warm.stats.cache_misses == 2


# ---------------------------------------------------------------------------
# persistent pool + pair jobs
# ---------------------------------------------------------------------------
def test_inline_jobs_hold_one_program_at_a_time(monkeypatch):
    """At jobs=1 each pair job compiles its program where it simulates,
    so no Simulator is ever built while another job's program lives."""
    programs = []
    alive_at_build = []
    compile_, init = Workload.compile, Simulator.__init__

    def tracked_compile(self, target):
        compiled = compile_(self, target)
        programs.append(weakref.ref(compiled.program))
        return compiled

    def counted_init(self, *args, **kwargs):
        alive_at_build.append(sum(ref() is not None for ref in programs))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Workload, "compile", tracked_compile)
    monkeypatch.setattr(Simulator, "__init__", counted_init)
    executor = CellExecutor()
    executor.run(figure3_spec([_small_axpy()]).cells())
    assert executor.stats.compiles == len(programs) == 8
    assert len(alive_at_build) == executor.stats.sims_executed == 14
    assert max(alive_at_build) == 1


class _ProgramFinder(pickle.Pickler):
    """Pickles an object graph and counts the Programs inside it."""

    found = 0

    def reducer_override(self, obj):
        if isinstance(obj, Program):
            self.found += 1
        return NotImplemented


def test_pool_jobs_carry_cells_not_programs(monkeypatch):
    from concurrent.futures import ProcessPoolExecutor

    submitted = []
    submit = ProcessPoolExecutor.submit

    def spy(self, fn, *args, **kwargs):
        submitted.append(args)
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", spy)
    spec = SweepSpec(workloads=(_small_axpy(),),
                     configs=(native_config(1), ava_config(2), ava_config(8)))
    with CellExecutor(jobs=2) as executor:
        executor.run(spec.cells())
    finder = _ProgramFinder(io.BytesIO())
    finder.dump(submitted)
    assert finder.found == 0
    assert len(submitted) == executor.stats.compiles == 3  # one per pair

def test_pool_persists_across_batches_and_closes():
    executor = CellExecutor(jobs=2)
    spec = SweepSpec(workloads=(_small_axpy(),),
                     configs=(native_config(1), ava_config(2)))
    executor.run(spec.cells())
    pool = executor._pool
    assert pool is not None
    executor.run(SweepSpec(workloads=(_small_axpy(),),
                           configs=(ava_config(4), ava_config(8))).cells())
    assert executor._pool is pool  # reused, not respawned per batch
    executor.close()
    assert executor._pool is None
    executor.close()  # idempotent


def test_parallel_compiles_match_serial_results_and_counts(tmp_path):
    spec = SweepSpec(workloads=("axpy", "blackscholes"),
                     configs=(native_config(1), ava_config(8)))
    serial = CellExecutor()
    serial_results = serial.run(spec.cells())
    with CellExecutor(jobs=2) as parallel:
        parallel_results = parallel.run(spec.cells())
        # Compiling in pair jobs over the pool must not change the
        # accounting: one compile per distinct (workload, config) pair ...
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
    cold.run(spec.cells(), label="demo")
    assert snapshots[0] == ("demo", 0, 0, 2, 0)  # post-scan snapshot
    assert snapshots[-1] == ("demo", 2, 0, 2, 0)
    assert [s[1] for s in snapshots] == sorted(s[1] for s in snapshots)

    snapshots.clear()
    warm = CellExecutor(cache=ResultCache(tmp_path / "cache"),
                        progress=record)
    warm.run(spec.cells(), label="replay")
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
def test_average_speedups_rejects_ragged_series():
    with pytest.raises(ValueError, match="ragged"):
        average_speedups({"axpy": [1.0, 2.0], "somier": [1.5]})


def test_average_speedups_still_averages_aligned_series():
    assert average_speedups({"axpy": [2.0], "somier": [4.0]}) == [3.0]
    # A left-to-right sum, as Figure 4 renders: np.mean differs in the
    # last bit on these ten.
    ten = [2.16, 1.31, 2.0, 0.4, 1.34, 1.92, 0.88, 2.39, 2.29, 0.46]
    assert average_speedups({str(i): [s] for i, s in enumerate(
        ten)}) == [sum(ten) / len(ten)]
