"""The unified experiment-execution engine: specs, cache, executor."""

from dataclasses import replace

import pytest

from repro.core.config import ava_config, native_config
from repro.core.swap import VictimPolicy
from repro.experiments.engine import (
    CACHE_SCHEMA,
    Cell,
    CellExecutor,
    CellPolicy,
    ExecutorStats,
    ResultCache,
    SweepSpec,
    cell_key,
    make_executor,
    program_fingerprint,
)
from repro.power.mcpat import EnergyReport, McPatModel
from repro.sim.scenario import Scenario, build_scenario
from repro.sim.stats import SimStats
from repro.vpu.params import DEFAULT_TIMING, TimingParams
from repro.workloads import get_workload
from repro.workloads.registry import registered_names


def _key(cell: Cell) -> str:
    return cell_key(cell)


# ---------------------------------------------------------------------------
# sweep specs
# ---------------------------------------------------------------------------
def test_sweep_spec_enumerates_full_grid_deterministically():
    spec = SweepSpec(
        workloads=("axpy", "blackscholes"),
        configs=(native_config(1), ava_config(8)),
        policies=(CellPolicy(), CellPolicy(aggressive_reclamation=False)),
    )
    cells = spec.cells()
    assert len(cells) == 8
    # Workload outermost, policy innermost, always the same order.
    assert cells[0].workload_name == "axpy"
    assert cells[-1].workload_name == "blackscholes"
    assert cells == spec.cells()


def test_chunk_by_workload_owns_the_stride_arithmetic():
    spec = SweepSpec(
        workloads=("axpy", "blackscholes"),
        configs=(native_config(1),),
        policies=(CellPolicy(), CellPolicy(aggressive_reclamation=False)),
    )
    chunks = spec.chunk_by_workload(spec.cells())
    assert [name for name, _ in chunks] == ["axpy", "blackscholes"]
    assert all(len(chunk) == 2 for _, chunk in chunks)
    assert all(c.workload_name == name
               for name, chunk in chunks for c in chunk)
    with pytest.raises(ValueError):
        spec.chunk_by_workload(spec.cells()[:-1])


# ---------------------------------------------------------------------------
# cache keying
# ---------------------------------------------------------------------------
def test_cell_key_is_stable_across_recompiles():
    cell = Cell("axpy", Scenario(native_config(1)))
    assert _key(cell) == _key(cell)


def test_cell_key_misses_on_any_input_change():
    base = Cell("axpy", Scenario(ava_config(8)))
    variants = [
        Cell("axpy", Scenario(ava_config(4))),  # config field
        Cell("blackscholes", Scenario(ava_config(8))),  # program
        Cell("axpy", Scenario(ava_config(8), timing=replace(
            TimingParams(), arith_dead_time=4))),
        Cell("axpy", Scenario(ava_config(8), policy=CellPolicy(
            victim_policy=VictimPolicy.FIFO))),
        Cell("axpy", Scenario(ava_config(8), policy=CellPolicy(
            aggressive_reclamation=False))),
        replace(base, check=True),
        replace(base, warm=False),
    ]
    keys = [_key(v) for v in variants]
    assert len(set(keys + [_key(base)])) == len(variants) + 1


def test_cell_key_sees_the_workload_compile_inputs():
    """A resized instance keeps its name and scenario; only its compile
    fingerprint tells the key apart from the registered kernel."""
    small = get_workload("axpy")
    small.n_elements = 128
    config = native_config(1)
    named = Cell("axpy", Scenario(config))
    assert _key(Cell(small, Scenario(config))) != _key(named)
    assert _key(Cell(get_workload("axpy"), Scenario(config))) == \
        _key(named)


def test_cell_key_includes_the_code_fingerprint(monkeypatch):
    """A package source edit must invalidate every cached result."""
    import repro.experiments.engine as engine

    cell = Cell("axpy", Scenario(native_config(1)))
    before = _key(cell)
    monkeypatch.setattr(engine, "_CODE_FINGERPRINT", "simulated-code-edit")
    assert _key(cell) != before


def _figure3_signatures():
    from repro.compiler.signature import CompileSignature
    from repro.experiments.configs import figure3_series
    return sorted({CompileSignature.from_config(c) for c in figure3_series()},
                  key=lambda sig: (sig.mvl, sig.n_logical))


@pytest.mark.parametrize("name", registered_names())
def test_compile_fingerprint_pins_the_program(name):
    """The key hashes the compile fingerprint instead of the program, so
    equal fingerprints must compile to equal programs — checked against
    the full program hash for every figure3 compile signature."""
    signatures = _figure3_signatures()
    assert len(signatures) == 8
    first, second = get_workload(name), get_workload(name)
    assert first.compile_fingerprint() == second.compile_fingerprint()
    for signature in signatures:
        assert (program_fingerprint(first.compile(signature).program)
                == program_fingerprint(second.compile(signature).program))


@pytest.mark.parametrize("attribute, value", [
    ("n_elements", 1024), ("fixed_avl", 24), ("loop_alu_insts", 9)])
def test_compile_fingerprint_sees_the_strip_shape(attribute, value):
    base = get_workload("axpy")
    changed = get_workload("axpy")
    assert getattr(changed, attribute) != value
    setattr(changed, attribute, value)
    assert changed.compile_fingerprint() != base.compile_fingerprint()


def test_program_fingerprint_ignores_instruction_uids():
    workload = get_workload("axpy")
    config = native_config(1)
    first = workload.compile(config).program
    second = get_workload("axpy").compile(config).program
    assert [i.uid for i in first.insts] != [i.uid for i in second.insts]
    assert program_fingerprint(first) == program_fingerprint(second)


# ---------------------------------------------------------------------------
# JSON round-trips
# ---------------------------------------------------------------------------
def test_simstats_roundtrip():
    stats = SimStats(cycles=123, vloads=4, swap_loads=2, config_name="c",
                     program_name="p")
    assert SimStats.from_dict(stats.to_dict()) == stats
    with pytest.raises(ValueError):
        SimStats.from_dict({"cycles": 1, "bogus": 2})


def test_energy_report_roundtrip_is_exact():
    stats = SimStats(cycles=1000, l2_reads=10, vrf_reads=20,
                     fpu_element_ops=30)
    report = McPatModel().energy(ava_config(8), stats)
    clone = EnergyReport.from_dict(report.to_dict())
    assert clone == report  # float-exact, not approximate
    with pytest.raises(ValueError):
        EnergyReport.from_dict({**report.to_dict(), "bogus": 1.0})


# ---------------------------------------------------------------------------
# cache behaviour
# ---------------------------------------------------------------------------
def test_cache_hit_and_miss_counters(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cell = Cell("axpy", Scenario(native_config(1)))

    cold = CellExecutor(cache=cache)
    first = cold.run([cell])[0]
    assert cold.stats.sims_executed == 1
    assert cold.stats.cache_misses == 1
    assert cold.stats.cache_hits == 0

    warm = CellExecutor(cache=ResultCache(tmp_path / "cache"))
    second = warm.run([cell])[0]
    assert warm.stats.sims_executed == 0
    assert warm.stats.cache_hits == 1
    assert warm.stats.cache_misses == 0
    assert second.stats == first.stats
    assert second.energy == first.energy


def test_changed_knob_is_a_cache_miss(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    executor = CellExecutor(cache=cache)
    executor.run([Cell("axpy", Scenario(ava_config(8)))])
    executor.run([Cell("axpy", Scenario(
        ava_config(8), policy=CellPolicy(aggressive_reclamation=False)))])
    assert executor.stats.sims_executed == 2
    assert executor.stats.cache_hits == 0


def _swap_knob_cells(machine: str, budgets=(1, 6),
                     victims=(VictimPolicy.RAC_MIN, VictimPolicy.FIFO)):
    return [Cell("axpy", build_scenario(
                machine,
                timing=replace(DEFAULT_TIMING, preissue_swap_budget=budget),
                policy=CellPolicy(victim_policy=victim)))
            for budget in budgets for victim in victims]


def test_single_level_machine_simulates_once_across_swap_only_knobs(
        tmp_path):
    """NATIVE X8 never swaps, so the pre-issue swap budget and the victim
    policy are keyed at their defaults: four cells, one simulation, one
    cache entry — and each result still carries its own cell."""
    cells = _swap_knob_cells("native-x8")
    executor = CellExecutor(cache=ResultCache(tmp_path / "cache"))
    results = executor.run(cells)
    assert executor.stats.cache_misses == 4
    assert executor.stats.sims_executed == 1
    assert [r.cell for r in results] == cells
    assert all(r.stats == results[0].stats for r in results)
    assert len({cell_key(r.cell) for r in results}) == 1

    rerun = CellExecutor(cache=ResultCache(tmp_path / "cache"))
    [unseen_budget] = _swap_knob_cells("native-x8", budgets=(4,),
                                       victims=(VictimPolicy.ROUND_ROBIN,))
    hit = rerun.run([unseen_budget])[0]
    assert rerun.stats.cache_hits == 1
    assert rerun.stats.sims_executed == 0
    assert hit.cell == unseen_budget
    assert hit.stats == results[0].stats


def test_single_level_machine_simulates_once_across_reclamation():
    """NATIVE X1 never reclaims early, so cells differing only in
    ``aggressive_reclamation`` are one simulation with two results."""
    cells = [Cell("axpy", build_scenario(
                 "native-x1", policy=CellPolicy(aggressive_reclamation=on)))
             for on in (True, False)]
    executor = CellExecutor()
    results = executor.run(cells)
    assert executor.stats.cache_misses == 2
    assert executor.stats.sims_executed == 1
    assert [r.cell for r in results] == cells
    assert results[0].stats == results[1].stats


def test_two_level_machine_keys_every_swap_only_knob(tmp_path):
    """AVA X8 has a Swap Mechanism: the same four knob settings are four
    keys and four cache entries.  axpy never swaps, so its budget never
    binds: each victim policy simulates once and its other budget reuses
    that run."""
    cells = _swap_knob_cells("ava-x8")
    cache = ResultCache(tmp_path / "cache")
    executor = CellExecutor(cache=cache)
    executor.run(cells)
    assert len({cell_key(cell) for cell in cells}) == 4
    assert cache.stats()[0] == 4
    assert executor.stats.sims_executed == 2
    assert executor.stats.sims_reused == 2


def _budget_cells(workload: str, budgets=(1, 4)):
    return [Cell(workload, build_scenario(
                "ava-x8",
                timing=replace(DEFAULT_TIMING, preissue_swap_budget=budget)))
            for budget in budgets]


def test_budget_that_never_binds_simulates_once(tmp_path):
    """axpy never swaps on AVA X8, so no budget check is ever reached:
    the budget-4 key lands the budget-1 run's payload under its own key."""
    cells = _budget_cells("axpy")
    cache = ResultCache(tmp_path / "cache")
    executor = CellExecutor(cache=cache)
    results = executor.run(cells)
    assert [r.cell for r in results] == cells
    assert executor.stats.sims_executed == 1
    assert executor.stats.sims_reused == 1
    assert cache.stats()[0] == 2
    stored = [cache.get(cell_key(cell)) for cell in cells]
    assert stored[0]["stats"] == stored[1]["stats"]
    assert results[0].stats == results[1].stats
    assert results[0].stats.swap_loads == 0


def test_budget_that_binds_simulates_each_key():
    """blackscholes swaps on AVA X8 and a budget of 1 stops pre-issue, so
    its run says nothing about budget 4: both keys simulate."""
    executor = CellExecutor()
    results = executor.run(_budget_cells("blackscholes"))
    assert executor.stats.sims_executed == 2
    assert executor.stats.sims_reused == 0
    assert results[0].stats != results[1].stats


def test_reuse_needs_a_budget_that_covers_the_demand():
    """blackscholes on AVA X8 at budget 3 never binds, but one of its
    pre-issue calls inserts two swap ops before a budget check: its
    demand is 3.  Budget 2 falls short of it and simulates; budget 5
    covers it and reuses the budget-3 run."""
    executor = CellExecutor()
    results = executor.run(_budget_cells("blackscholes", budgets=(3, 2, 5)))
    assert executor.stats.sims_executed == 2
    assert executor.stats.sims_reused == 1
    assert results[0].stats == results[2].stats != results[1].stats


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    executor = CellExecutor(cache=cache)
    result = executor.run([Cell("axpy", Scenario(native_config(1)))])[0]
    # Both syntactically broken and structurally truncated entries must
    # re-simulate, never crash the render.
    for corruption in ("{not json", '{"schema": 1}', '[1, 2]'):
        cache.path(cell_key(result.cell)).write_text(corruption)
        rerun = CellExecutor(cache=ResultCache(tmp_path / "cache"))
        again = rerun.run([result.cell])[0]
        assert rerun.stats.sims_executed == 1
        assert again.stats == result.stats


def test_program_fingerprint_sees_tiny_scalar_differences():
    """Constants differing past 6 significant digits must not collide."""
    from tests.conftest import compile_kernel, axpy_body

    config = native_config(1)
    a = compile_kernel(axpy_body(0.33333331), config, 64, {"x": 64, "y": 64})
    b = compile_kernel(axpy_body(0.33333334), config, 64, {"x": 64, "y": 64})
    assert f"{0.33333331:g}" == f"{0.33333334:g}"  # display form collides
    assert program_fingerprint(a) != program_fingerprint(b)


def test_duplicate_cells_in_one_batch_simulate_once():
    executor = CellExecutor()
    cell = Cell("axpy", Scenario(native_config(1)))
    results = executor.run([cell, cell, cell])
    assert executor.stats.sims_executed == 1
    assert results[0].stats == results[1].stats == results[2].stats
    # ... and compile once: identical (workload, config) pairs share one
    # program through the executor's compilation memo.
    assert executor.stats.compiles == 1


def test_plan_gives_duplicate_cells_one_miss_entry():
    """Equal cells share one miss (one simulation); cells whose machines
    share a compile signature share one pair job, hence one compile;
    planning runs nothing."""
    executor = CellExecutor()
    native = Cell("axpy", Scenario(native_config(2)))
    ava = Cell("axpy", Scenario(ava_config(2)))
    plan = executor.plan([native, ava, native])
    assert plan.keys == [_key(native), _key(ava), _key(native)]
    assert plan.misses == {_key(native): [0, 2], _key(ava): [1]}
    assert plan.hits == {} and plan.unkeyable == {}
    assert list(plan.pairs.values()) == [[_key(native), _key(ava)]]
    assert executor.stats == ExecutorStats()


def test_plan_reads_a_cached_key_once(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cell = Cell("axpy", Scenario(native_config(1)))
    payload = {"schema": CACHE_SCHEMA, "stats": {}, "energy": {}}
    cache.put(_key(cell), payload)
    reads = []
    get = cache.get
    cache.get = lambda key: reads.append(key) or get(key)
    plan = CellExecutor(cache=cache).plan([cell] * 3)
    assert reads == [_key(cell)]
    assert plan.hits == {_key(cell): payload}
    assert plan.misses == {} and plan.pairs == {}


def test_plan_marks_cells_of_an_unbuildable_workload_unkeyable():
    class Unbuildable(type(get_workload("axpy"))):
        def build_kernel(self):
            raise ValueError("no kernel")

    bad = Unbuildable()
    good = Cell("axpy", Scenario(native_config(1)))
    plan = CellExecutor().plan([Cell(bad, Scenario(native_config(1))), good,
                                Cell(bad, Scenario(ava_config(2)))])
    assert plan.keys == ["", _key(good), ""]
    assert list(plan.unkeyable) == [bad]
    assert plan.unkeyable[bad].error == "ValueError: no kernel"
    assert list(plan.misses) == [_key(good)]


def test_plan_marks_every_cell_for_the_sanitizer():
    cell = Cell("axpy", Scenario(native_config(1)))
    plan = CellExecutor(sanitize=True).plan([cell])
    assert plan.cells == [replace(cell, sanitize=True)]
    assert plan.keys == [_key(replace(cell, sanitize=True))]


def test_compilation_is_memoized_per_workload_config_pair(tmp_path):
    """At most one compile per distinct (workload, config) pair cold, and
    none at all warm: the key hashes compile inputs, so cache hits never
    need a program."""
    cells = [
        Cell("axpy", Scenario(native_config(1))),
        Cell("axpy", Scenario(native_config(1)), warm=False),
        Cell("axpy", Scenario(ava_config(2))),
        Cell("blackscholes", Scenario(native_config(1))),
    ]
    cold = CellExecutor(cache=ResultCache(tmp_path / "cache"))
    cold.run(cells)
    assert cold.stats.compiles == 3  # axpy×2 configs + blackscholes
    assert cold.stats.sims_executed == 4

    warm = CellExecutor(cache=ResultCache(tmp_path / "cache"))
    warm.run(cells)
    assert warm.stats.cache_hits == 4
    assert warm.stats.sims_executed == 0
    assert warm.stats.compiles == 0  # hits are keyed without a program
    # A second batch on the same executor stays compile-free.
    warm.run(cells)
    assert warm.stats.compiles == 0


def test_instance_backed_cells_do_not_share_the_memo():
    """A mutated Workload instance must never alias a registered name."""
    small = get_workload("axpy")
    small.n_elements = 128
    executor = CellExecutor()
    config = native_config(1)
    results = executor.run([Cell(small, Scenario(config)),
                            Cell("axpy", Scenario(config))])
    assert executor.stats.compiles == 2
    assert (results[0].stats.cycles != results[1].stats.cycles)


def test_instance_memo_lives_per_batch_only():
    """Mutating an instance between batches must recompile, not replay the
    stale program — but duplicates within one batch still compile once."""
    workload = get_workload("axpy")
    config = native_config(1)
    executor = CellExecutor()
    cell = Cell(workload, Scenario(config))
    first = executor.run([cell, cell])  # one compile for both
    assert executor.stats.compiles == 1

    workload.n_elements = 128
    second = executor.run([cell])[0]
    assert executor.stats.compiles == 2  # recompiled after the mutation
    fresh = CellExecutor().run([Cell(workload, Scenario(config))])[0]
    assert second.stats.cycles == fresh.stats.cycles
    assert second.stats.cycles != first[0].stats.cycles


def test_stats_are_consistent_without_a_cache():
    """cache=None is 'every cell misses', not '0 misses, N simulated'."""
    executor = CellExecutor()
    executor.run([Cell("axpy", Scenario(native_config(1))),
                  Cell("axpy", Scenario(ava_config(2)))])
    stats = executor.stats
    assert stats.cells_requested == 2
    assert stats.cache_hits == 0
    assert stats.cache_misses == 2
    assert stats.sims_executed == 2
    assert stats.cache_misses == stats.cells_requested - stats.cache_hits
    assert "2 misses, 2 simulations executed" in stats.summary()


def test_cache_entries_honor_the_umask(tmp_path, monkeypatch):
    """mkstemp's 0600 must not leak into the shared cache directory."""
    import os
    import stat

    import repro.cachefs as cachefs

    old = os.umask(0o022)
    # The umask is read once per process; re-read it under the value this
    # test pins so an earlier memoisation cannot leak in.
    monkeypatch.setattr(cachefs, "_PROCESS_UMASK", None)
    try:
        cache = ResultCache(tmp_path / "cache")
        CellExecutor(cache=cache).run(
            [Cell("axpy", Scenario(native_config(1)))])
        entries = list((tmp_path / "cache").glob("*.json"))
        assert len(entries) == 1
        mode = stat.S_IMODE(entries[0].stat().st_mode)
        assert mode == 0o644
    finally:
        os.umask(old)  # monkeypatch restores the memoised umask itself


def test_cache_clear(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    CellExecutor(cache=cache).run(
        [Cell("axpy", Scenario(native_config(1)))])
    assert cache.clear() == 1
    assert cache.clear() == 0


# ---------------------------------------------------------------------------
# parallel execution
# ---------------------------------------------------------------------------
def test_parallel_matches_serial_on_a_small_grid():
    spec = SweepSpec(workloads=("axpy",),
                     configs=(native_config(1), ava_config(2), ava_config(8)))
    serial = CellExecutor(jobs=1).run(spec.cells())
    parallel = CellExecutor(jobs=4).run(spec.cells())
    assert len(serial) == len(parallel) == 3
    for a, b in zip(serial, parallel):
        assert a.cell.config.name == b.cell.config.name
        assert a.stats == b.stats
        assert a.energy == b.energy


def test_parallel_executor_fills_a_shared_cache(tmp_path):
    spec = SweepSpec(workloads=("axpy",),
                     configs=(native_config(1), ava_config(8)))
    cold = make_executor(jobs=2, cache=True, cache_dir=tmp_path / "cache")
    cold.run(spec.cells())
    assert cold.stats.sims_executed == 2

    warm = make_executor(jobs=2, cache=True, cache_dir=tmp_path / "cache")
    warm.run(spec.cells())
    assert warm.stats.sims_executed == 0
    assert warm.stats.cache_hits == 2


def test_disjoint_batches_fill_one_cache_like_a_single_batch(tmp_path):
    """Keys hash only a cell's inputs, so executors that split a grid
    between them share one cache: the full grid then replays every cell
    with results equal to a single cold run's."""
    cells = SweepSpec(workloads=("axpy",),
                      configs=(native_config(1), ava_config(2),
                               ava_config(4), ava_config(8))).cells()
    reference = CellExecutor().run(cells)
    shared = tmp_path / "shared"
    for half in (cells[::2], cells[1::2]):
        part = CellExecutor(cache=ResultCache(shared))
        part.run(half)
        assert part.stats.sims_executed == len(half)
    warm = CellExecutor(cache=ResultCache(shared))
    replayed = warm.run(cells)
    assert warm.stats.cache_hits == len(cells)
    assert warm.stats.sims_executed == warm.stats.compiles == 0
    for a, b in zip(reference, replayed):
        assert cell_key(a.cell) == cell_key(b.cell)
        assert a.stats == b.stats
        assert a.energy == b.energy


def test_batch_order_does_not_change_any_result():
    cells = SweepSpec(workloads=("axpy",),
                      configs=(native_config(1), ava_config(2),
                               ava_config(8))).cells()
    forward = CellExecutor().run(cells)
    backward = CellExecutor().run(cells[::-1])
    for a, b in zip(forward, backward[::-1]):
        assert a.cell == b.cell
        assert cell_key(a.cell) == cell_key(b.cell)
        assert a.stats == b.stats
        assert a.energy == b.energy


def test_check_cells_carry_correctness_through_the_cache(tmp_path):
    cell = Cell("axpy", Scenario(native_config(1)), check=True)
    cache = ResultCache(tmp_path / "cache")
    first = CellExecutor(cache=cache).run([cell])[0]
    assert first.correct is True
    warm = CellExecutor(cache=ResultCache(tmp_path / "cache"))
    assert warm.run([cell])[0].correct is True
    assert warm.stats.sims_executed == 0


def test_executor_rejects_bad_jobs():
    with pytest.raises(ValueError):
        CellExecutor(jobs=0)
