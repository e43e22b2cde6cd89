"""A failed batch fails the same way at every ``--jobs``.

Each case runs ``python -m repro sweep`` at ``--jobs 1`` (inline) and
``--jobs 2`` (a process pool) on a grid where some checked cells fail,
and compares what the command reports: the exit code, the failed-cell
count of the summary line and the set of ``CellError`` labels.  The CLI
runs in a fresh interpreter, so the missing-numpy case can block the
import for the whole process, pool workers included.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Registers the poison workloads (forked pool workers inherit the
#: registry), then runs ``main`` on the remaining arguments.
_HARNESS = """
import sys
if sys.argv[1] == "missing-numpy":
    sys.modules["numpy"] = None  # an interpreter without numpy
from repro.__main__ import main
from repro.workloads.axpy import Axpy
from repro.workloads.registry import register_workload


@register_workload
class CompileRaises(Axpy):
    name = "compile-raises-axpy"

    def compile(self, target):
        raise ValueError("register allocation failed")


@register_workload
class SimulationRaises(Axpy):
    # Only a checked cell loads data, so the poison fires in its run.
    name = "simulation-raises-axpy"

    def init_data(self, rng):
        raise RuntimeError("injected failure")


sys.exit(main(sys.argv[2:]))
"""


def _poison_spec(tmp_path: Path, workload: str) -> Path:
    """A checked grid: the poison and healthy axpy, on two machines with
    different compile signatures (so ``--jobs 2`` runs a pool)."""
    spec = tmp_path / f"{workload}.json"
    spec.write_text(json.dumps({
        "name": workload, "workloads": [workload, "axpy"],
        "machines": ["native-x1", "ava-x8"], "check": True}))
    return spec


def _report(case: str, spec: Path, jobs: str, cwd: Path):
    """(exit code, failed-cell count, CellError labels) of one run."""
    proc = subprocess.run(
        [sys.executable, "-c", _HARNESS, case, "sweep", str(spec),
         "--no-cache", "--no-progress", "--jobs", jobs],
        capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    lines = proc.stderr.splitlines()
    assert "Traceback" not in proc.stderr, proc.stderr
    summary = lines[-1].split(" (")[0]
    labels = {line.split(": ")[1] for line in lines
              if line.startswith("failed: ")}
    return proc.returncode, summary, labels


@pytest.mark.parametrize("case, workload, summary, labels", [
    ("compile-raises", "compile-raises-axpy", "2 of 4 cells failed",
     {"compile-raises-axpy@NATIVE X1", "compile-raises-axpy@AVA X8"}),
    ("simulation-raises", "simulation-raises-axpy", "2 of 4 cells failed",
     {"simulation-raises-axpy@NATIVE X1",
      "simulation-raises-axpy@AVA X8"}),
    ("missing-numpy", None, "4 of 4 cells failed",
     {"spmv@NATIVE X8", "spmv@AVA X8", "lavamd@NATIVE X8",
      "lavamd@AVA X8"}),
])
def test_failed_batch_reports_alike_at_every_jobs(tmp_path, case, workload,
                                                  summary, labels):
    spec = (ROOT / "examples" / "functional_smoke.json" if workload is None
            else _poison_spec(tmp_path, workload))
    inline = _report(case, spec, "1", tmp_path)
    pooled = _report(case, spec, "2", tmp_path)
    assert inline == pooled
    assert inline == (1, summary, labels)
