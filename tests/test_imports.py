"""Import hygiene: start-up and a warm render load neither numpy, the
simulator nor the process pool, and the lazily resolved public API is
complete."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import main

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules only a compile-and-simulate cell (or its worker pool) may pay for.
HEAVY = ("numpy", "repro.vpu.pipeline", "repro.sim.simulator",
         "multiprocessing")

_PROBE = f"""
import sys
from repro.__main__ import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print("loaded:", [m for m in {HEAVY!r} if m in sys.modules])
"""


def _heavy_modules_loaded(argv, cwd):
    """Run the CLI in a fresh interpreter; the heavy modules it loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], capture_output=True,
        text=True, cwd=cwd, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    return proc.stdout.splitlines()[-1]


def test_version_imports_nothing_heavy(tmp_path):
    assert _heavy_modules_loaded(["--version"], tmp_path) == "loaded: []"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_warm_render_imports_nothing_heavy(tmp_path, capsys, jobs):
    argv = ["figure3", "axpy", "--jobs", jobs, "--no-progress",
            "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 0  # the cold fill compiles and simulates
    capsys.readouterr()
    assert _heavy_modules_loaded(argv, tmp_path) == "loaded: []"


def test_every_public_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    with pytest.raises(AttributeError):
        getattr(repro, "NoSuchName")
