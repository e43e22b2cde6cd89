"""Import hygiene: start-up and a warm render load neither numpy, the
simulator nor the process pool, a warm render loads nothing that only a
compile, a power-model build or another command reads, a cold
timing-only run simulates without numpy (only checked cells load data),
and the lazily resolved public API is complete.

``repro`` and ``repro.experiments`` resolve their public names on first
access (PEP 562), so every check here runs the CLI in a fresh
interpreter: in-process tests share one ``sys.modules`` and would hide a
module that some earlier test already loaded."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.experiments
from repro.__main__ import main

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules only a compile-and-simulate cell (or its worker pool) may pay
#: for; numpy only a checked (functional) cell.
HEAVY = ("numpy", "repro.vpu.pipeline", "repro.sim.simulator",
         "multiprocessing")

#: Modules that serve a process pool, a power-model build, a compile or
#: another command: a warm (all-hit) render reads none of them.
WARM_RENDER_SKIPS = ("concurrent.futures", "repro.power.sram",
                     "repro.power.technology", "repro.scalar.core",
                     "repro.experiments.sweep",
                     "repro.experiments.sensitivity")

_PROBE = """
import sys
from repro.__main__ import main
watched = sys.argv[1].split(",")
try:
    main(sys.argv[2:])
except SystemExit:
    pass
print("loaded:", [m for m in watched if m in sys.modules])
"""


def _probe(argv, cwd, watched=HEAVY):
    """Run the CLI in a fresh interpreter; its stdout lines, the last of
    which names the modules of ``watched`` it loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, ",".join(watched), *argv],
        capture_output=True, text=True, cwd=cwd, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    return proc.stdout.splitlines()


def _modules_loaded(argv, cwd, watched=HEAVY):
    """Which of ``watched`` the CLI loaded in a fresh interpreter."""
    return _probe(argv, cwd, watched)[-1]


def test_version_imports_nothing_heavy(tmp_path):
    watched = HEAVY + ("repro.cachefs", "repro.faults")
    assert _modules_loaded(["--version"], tmp_path, watched) == "loaded: []"


def test_static_artifact_loads_no_engine(tmp_path):
    """A table renders without building an executor."""
    watched = ("repro.experiments.engine", "repro.cachefs")
    assert _modules_loaded(["table1"], tmp_path, watched) == "loaded: []"


def test_help_names_the_default_cache_dir(capsys):
    from repro.cachefs import DEFAULT_CACHE_DIR
    with pytest.raises(SystemExit):
        main(["figure3", "--help"])
    assert f"(default: {DEFAULT_CACHE_DIR})" in capsys.readouterr().out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_warm_render_imports_nothing_heavy(tmp_path, capsys, jobs):
    argv = ["figure3", "axpy", "--jobs", jobs, "--no-progress",
            "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 0  # the cold fill compiles and simulates
    capsys.readouterr()
    watched = HEAVY + WARM_RENDER_SKIPS
    assert _modules_loaded(argv, tmp_path, watched) == "loaded: []"


EXAMPLES = SRC.parent / "examples"

#: A cold run whose cells simulate in the probed process itself.
COLD_INLINE = ["--no-cache", "--no-progress", "--jobs", "1"]

#: What a cold run loads: the pipeline always, numpy only to check data.
SIMULATION = ("numpy", "repro.vpu.pipeline")


@pytest.mark.parametrize("argv", [
    ["figure3", "axpy"],
    ["sweep", str(EXAMPLES / "sweep_smoke.json")],
], ids=["figure3", "sweep"])
def test_cold_timing_only_run_simulates_without_numpy(tmp_path, argv):
    """Timing does not read data, so cells that check none load none."""
    loaded = _modules_loaded(argv + COLD_INLINE, tmp_path, SIMULATION)
    assert loaded == "loaded: ['repro.vpu.pipeline']"


def test_checked_sweep_loads_numpy_and_verifies_every_cell(tmp_path):
    argv = ["sweep", str(EXAMPLES / "functional_smoke.json")] + COLD_INLINE
    lines = _probe(argv, tmp_path, SIMULATION)
    rows = [line for line in lines if line.startswith(("spmv ", "lavamd "))]
    assert len(rows) == 4
    assert all(row.split("|")[-1].strip() == "yes" for row in rows)
    assert lines[-1] == "loaded: ['numpy', 'repro.vpu.pipeline']"


_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # an interpreter without numpy
from repro.__main__ import main
from repro.experiments.engine import CellExecutionError
try:
    main(sys.argv[1:])
except CellExecutionError as exc:
    print(str(exc).split(" (")[0])
    for error in exc.errors:
        print(error.label(), error.error)
    raise
"""


def test_checked_sweep_without_numpy_fails_alike_at_every_jobs(tmp_path):
    """numpy serves only checked cells, so without it each checked cell
    fails as a CellError, whether it runs inline or in a pool worker: the
    parent's numpy pre-import before forking must not fail on its own."""
    outcomes = []
    for jobs in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _WITHOUT_NUMPY, "sweep",
             str(EXAMPLES / "functional_smoke.json"), "--no-cache",
             "--no-progress", "--jobs", jobs],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        outcomes.append((proc.returncode, proc.stdout.splitlines()))
    assert outcomes[0] == outcomes[1]
    code, lines = outcomes[0]
    assert code == 1
    assert lines[0] == "4 of 4 cells failed"
    assert len(lines) == 5
    assert all("ModuleNotFoundError" in line for line in lines[1:])


def test_every_public_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    with pytest.raises(AttributeError):
        getattr(repro, "NoSuchName")


def test_every_experiments_name_resolves():
    for name in repro.experiments.__all__:
        assert getattr(repro.experiments, name) is not None, name
    with pytest.raises(AttributeError):
        getattr(repro.experiments, "NoSuchName")
