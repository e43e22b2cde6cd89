"""The repository benchmark: one command, three workloads, two ledgers.

Run from the repository root::

    python3 perfbench/run.py --workload cold-figure3 --seed 1 --seconds 10 --trace 0

Every workload drives the user-facing CLI (``python -m repro ...``, always
``--jobs 1``) in a child process, against a fresh cache directory under
``.perfbench-tmp/`` (so the repository's own ``.repro-cache`` is never
touched):

* ``cold-figure3`` — ``figure3 all`` into an empty cache: 84 cells, every
  compile and simulation, both stores written.
* ``warm-figure3`` — the same command over the cache an untimed cold run
  filled: nothing compiles or simulates, both stores are only read.
* ``scenario-sweep`` — ``repro sweep`` over a spec drawn from ``--seed``
  (memory latencies and swap budgets, :func:`sweep_spec`) on the four
  extended kernels with ``"check": true``, after an untimed pass filled
  the trace store.  Simulation-bound, with functional execution and the
  reference oracle.  The figure3 workloads ignore the seed.

``--trace 0`` repeats the timed command for ``--seconds`` (at least
``MIN_SAMPLES`` times) and reports the end-to-end metrics: the median
``norm_cpu_s`` (user+sys CPU seconds of that one child, from ``os.wait4``,
scaled to a reference host speed by a probe sharing its CPU, see
:func:`run_child`) and peak RSS of the command, plus ``setup_s``, the
median ``norm_cpu_s`` of ``python -m repro --version``.  The raw CPU
seconds and host-speed factors are printed beside them.  A wall time is
not reported: on a shared host it spreads wider than the regression
bound, and the CLI at ``--jobs 1`` spends its wall time on one CPU
anyway.  ``--trace 1`` runs the command once untraced, then once
traced and once profiled in-process (``ledger.py``), and reports the
per-layer metrics.  ``failed_frac`` (failed / attempted cells) is printed
on its own line; the result JSON carries it as ``failed`` / ``attempted``.

Outputs are checked on every run: exit status, failed cells, warm stdout
byte-identical to the cold stdout of the same invocation, zero simulations
on a warm run, ``correct = yes`` on every sweep row.  A miss counts toward
``failed`` and makes the command exit 1.  The last stdout line is the JSON
result; the line before it is the run record (stdout sha256, problems).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import ledger

ROOT = Path.cwd()
LEDGER = Path(__file__).resolve().parent / "ledger.py"
ENV = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
# Children cache bytecode as a user's interpreter does, whatever the
# calling environment says, so start-up costs the same everywhere.
ENV.pop("PYTHONDONTWRITEBYTECODE", None)

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
#: ``python -m repro --version`` samples per run (the median is reported).
SETUP_SAMPLES = 5
#: Timed passes per run at least, however long they take.
MIN_SAMPLES = 1
#: CPU seconds one :func:`_probe_unit` takes at the reference host speed;
#: timings are reported as CPU seconds at that speed (see :func:`run_child`).
PROBE_UNIT_REF_S = 6e-4

SWEEP_KERNELS = ["jacobi2d", "pathfinder", "spmv", "streamcluster"]
SWEEP_MACHINES = ["native-x8", "ava-x4", "ava-x8", "rg-lmul4", "rg-lmul8"]
#: One memory point per band: (L2 latency range, DRAM latency range).  The
#: bands keep a fast, a middling and a slow-DRAM point in every draw, so
#: the amount of simulation work stays close from seed to seed.
MEMORY_BANDS = (((6, 12), (40, 80)), ((12, 24), (80, 160)),
                ((24, 48), (160, 320)))
#: One ``preissue_swap_budget`` per band: a tight and a loose budget.
SWAP_BUDGET_BANDS = ((1, 2), (3, 6))


def sweep_spec(seed: int) -> dict:
    """The scenario-sweep spec: a pure function of ``seed``."""
    rng = random.Random(seed)
    memory = [{"l2": {"latency": rng.randint(*l2)},
               "dram": {"latency": rng.randint(*dram)}}
              for l2, dram in MEMORY_BANDS]
    timing = [{"preissue_swap_budget": rng.randint(*band)}
              for band in SWAP_BUDGET_BANDS]
    return {"name": f"perfbench-{seed}", "workloads": SWEEP_KERNELS,
            "machines": SWEEP_MACHINES, "memory": memory, "timing": timing,
            "check": True}


def spec_bytes(spec: dict) -> bytes:
    return (json.dumps(spec, indent=2, sort_keys=True) + "\n").encode()


def spec_cells(spec: dict) -> int:
    return (len(spec["workloads"]) * len(spec["machines"])
            * len(spec["memory"]) * len(spec["timing"]))


def _probe_unit() -> int:
    """One unit of fixed interpreter work (~0.6 ms).  It must never change,
    or timings stop comparing across commits."""
    counts: Dict[tuple, int] = {}
    for i in range(3000):
        key = ("k", i % 97)
        counts[key] = counts.get(key, 0) + i
    return len(counts)


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child it starts, to one CPU."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:  # the probe then reads another CPU's speed
        print(f"note: cannot pin to one CPU ({exc})", file=sys.stderr)


def _wait_probing(pid: int) -> Tuple[int, "os.struct_rusage", float]:
    """Wait for ``pid`` while running probe units; return its status, its
    usage and the host-speed factor measured while it ran."""
    units, cpu = 0, time.process_time()
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            break
        _probe_unit()
        units += 1
    probe_s = time.process_time() - cpu
    scale = PROBE_UNIT_REF_S * units / probe_s if units and probe_s else 1.0
    return status, usage, scale


@dataclass
class Run:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes
    #: Host-speed factor from the probe (1.0 when run without it).
    cpu_scale: float = 1.0

    @property
    def norm_cpu_s(self) -> float:
        """CPU seconds at the reference host speed."""
        return self.cpu_s * self.cpu_scale


def run_child(argv: List[str], tmp: Path, probe: bool = False) -> Run:
    """Run ``argv`` from the checkout root; account it with ``os.wait4``,
    which reports this one child (``RUSAGE_CHILDREN`` would give the
    maximum RSS over every child so far).  Linux carries the spawning
    address space's high-water mark across ``execve``, so a child's peak
    RSS never reads below this process's (~21 MB, well under the CLI's).

    With ``probe``, this process runs probe units until the child exits.
    On a shared host a CPU's speed swings by up to ~1.6x within seconds
    (user and system time swing with it), so raw CPU times of one commit
    spread wider than a regression worth catching.  Pinned to the same CPU
    (:func:`pin_to_one_cpu`), the child and the probe share each scheduler
    time slice's speed; the probe's CPU seconds per unit against
    ``PROBE_UNIT_REF_S`` scale the child's CPU time to the reference speed.
    The child's wall time then counts the probe's share too."""
    out_path, err_path = tmp / "child.out", tmp / "child.err"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=ENV, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        scale = 1.0
        try:
            if probe:
                status, usage, scale = _wait_probing(proc.pid)
            else:
                _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: never leave the child running
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        return Run(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                   rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode,
                   stdout=out.read(), stderr=err.read(), cpu_scale=scale)


def repro(args: List[str], tmp: Path, probe: bool = False) -> Run:
    return run_child([sys.executable, "-m", "repro", *args], tmp, probe)


def measure_setup(tmp: Path, samples: int, probe: bool = False) -> float:
    """CLI start-up: the median of ``samples`` runs of ``python -m repro
    --version`` after one untimed warm-up that also compiles the bytecode
    of a fresh checkout.  Wall seconds, or with ``probe`` CPU seconds at
    the reference host speed."""
    repro(["--version"], tmp)
    runs = [repro(["--version"], tmp, probe) for _ in range(samples)]
    return statistics.median(r.norm_cpu_s if probe else r.wall_s
                             for r in runs)


@dataclass
class Bench:
    """One benchmark invocation: scratch space, counters, findings."""

    workload: str
    seed: int
    tmp: Path
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)

    def fresh_dir(self, name: str) -> None:
        shutil.rmtree(self.tmp / name, ignore_errors=True)
        (self.tmp / name).mkdir()

    def fail(self, message: str) -> None:
        self.problems.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def account(self, run: Run, stats_path: Path, expected: int,
                extra: Callable[[Run, dict], List[str]]) -> None:
        """Check one command; count its cells as attempted and failed."""
        stats: dict = {}
        if stats_path.is_file():
            stats = json.loads(stats_path.read_text()).get("stats", {})
        cells = stats.get("cells_requested", expected) or expected
        self.attempted += cells
        self.digests.append(hashlib.sha256(run.stdout).hexdigest())
        problems = []
        if run.code != 0:
            tail = run.stderr.decode(errors="replace").strip()[-400:]
            problems.append(f"exit code {run.code}: {tail}")
        elif not stats:
            problems.append("no --stats-json counters written")
        else:
            problems.extend(extra(run, stats))
        if problems:
            self.failed += cells
            for problem in problems:
                self.fail(problem)
        else:
            self.failed += stats.get("cells_failed", 0)


def _sweep_rows_correct(run: Run, expected: int) -> List[str]:
    lines = run.stdout.decode().splitlines()
    header = next((i for i, line in enumerate(lines)
                   if line.rstrip().endswith("correct")), None)
    if header is None:
        return ["sweep output has no 'correct' column"]
    rows = [line.split("|")[-1].strip() for line in lines[header + 2:]
            if "|" in line]
    wrong = sum(1 for verdict in rows if verdict != "yes")
    problems = []
    if len(rows) != expected:
        problems.append(f"sweep printed {len(rows)} rows, expected {expected}")
    if wrong:
        problems.append(f"{wrong} sweep rows not correct = yes")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
class Workload:
    """A timed CLI command plus its untimed set-up and output checks."""

    cells = 0

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.cache = bench.tmp / "cache"
        self.stats_path = bench.tmp / "stats.json"
        self.reference: Optional[bytes] = None

    def args(self) -> List[str]:
        raise NotImplementedError

    def cli_args(self) -> List[str]:
        return [*self.args(), "--jobs", "1", "--cache-dir", str(self.cache),
                "--stats-json", str(self.stats_path), "--no-progress"]

    def prepare(self) -> None:
        """Untimed, once per invocation."""

    def reset(self) -> None:
        """Untimed, before every pass of the timed command."""

    def checks(self, run: Run, stats: dict) -> List[str]:
        failed = stats.get("cells_failed", 0)
        problems = [f"{failed} cells failed"] if failed else []
        if self.reference is None:
            self.reference = run.stdout
        elif run.stdout != self.reference:
            problems.append("stdout differs from the first run's")
        return problems

    def timed(self, probe: bool = False) -> Run:
        self.reset()
        self.stats_path.unlink(missing_ok=True)
        run = repro(self.cli_args(), self.bench.tmp, probe)
        self.bench.account(run, self.stats_path, self.cells, self.checks)
        return run


class ColdFigure3(Workload):
    cells = 84

    def args(self) -> List[str]:
        return ["figure3", "all"]

    def reset(self) -> None:
        self.bench.fresh_dir("cache")

    def checks(self, run: Run, stats: dict) -> List[str]:
        problems = super().checks(run, stats)
        if stats.get("sims_executed") != stats.get("cells_requested"):
            problems.append("a cold run replayed cached cells")
        return problems


class WarmFigure3(ColdFigure3):
    filled = False

    def prepare(self) -> None:
        self.timed()  # the cold fill, checked as a cold run
        self.filled = True

    def reset(self) -> None:
        if not self.filled:
            super().reset()

    def checks(self, run: Run, stats: dict) -> List[str]:
        if not self.filled:
            return super().checks(run, stats)
        # ``reference`` holds the cold fill's stdout: warm must match it.
        problems = Workload.checks(self, run, stats)
        if stats.get("sims_executed", 0) != 0:
            problems.append(f"warm run executed {stats['sims_executed']} "
                            f"simulations")
        return problems


class ScenarioSweep(Workload):
    def __init__(self, bench: Bench) -> None:
        super().__init__(bench)
        self.spec = sweep_spec(bench.seed)
        self.cells = spec_cells(self.spec)
        self.spec_path = bench.tmp / "sweep.json"

    def args(self) -> List[str]:
        return ["sweep", str(self.spec_path)]

    def prepare(self) -> None:
        self.spec_path.write_bytes(spec_bytes(self.spec))
        # Fill the trace store with every (kernel, machine) program through
        # a one-point grid without the oracle: same compiles, few cells.
        prewarm = dict(self.spec, name="prewarm", check=False,
                       memory=self.spec["memory"][:1],
                       timing=self.spec["timing"][:1])
        prewarm_path = self.bench.tmp / "prewarm.json"
        prewarm_path.write_bytes(spec_bytes(prewarm))
        self.bench.fresh_dir("cache")
        run = repro(["sweep", str(prewarm_path), "--jobs", "1",
                     "--cache-dir", str(self.cache), "--no-progress"],
                    self.bench.tmp)
        if run.code != 0:
            self.bench.fail(f"sweep prewarm exited {run.code}")

    def reset(self) -> None:
        run = repro(["cache", "clear", "--results", "--cache-dir",
                     str(self.cache)], self.bench.tmp)
        if run.code != 0:
            self.bench.fail(f"cache clear --results exited {run.code}")

    def checks(self, run: Run, stats: dict) -> List[str]:
        return (super().checks(run, stats)
                + _sweep_rows_correct(run, self.cells))


WORKLOADS: Dict[str, type] = {ledger.COLD: ColdFigure3,
                              ledger.WARM: WarmFigure3,
                              ledger.SWEEP: ScenarioSweep}


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------
def end_to_end(bench: Bench, seconds: float) -> Dict[str, float]:
    pin_to_one_cpu()
    setup_s = measure_setup(bench.tmp, SETUP_SAMPLES, probe=True)
    workload = WORKLOADS[bench.workload](bench)
    workload.prepare()
    runs: List[Run] = []
    start = time.perf_counter()
    while (len(runs) < MIN_SAMPLES
           or time.perf_counter() - start < seconds):
        runs.append(workload.timed(probe=True))
    print(f"samples: {len(runs)} timed runs; raw cpu_s "
          f"{[round(r.cpu_s, 4) for r in runs]}; host speed "
          f"{[round(r.cpu_scale, 4) for r in runs]}")
    return {"norm_cpu_s": statistics.median(r.norm_cpu_s for r in runs),
            "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
            "setup_s": setup_s}


def in_process(bench: Bench, mode: str, workload: Workload) -> dict:
    """One ``ledger.py`` pass over the workload's timed command."""
    out = bench.tmp / f"{mode}.json"
    workload.reset()
    child = run_child([sys.executable, str(LEDGER), mode, str(out), "--",
                       *workload.cli_args()], bench.tmp)
    if child.code != 0 or not out.is_file():
        tail = child.stderr.decode(errors="replace").strip()[-400:]
        bench.fail(f"{mode} pass exited {child.code}: {tail}")
        return {}
    result = json.loads(out.read_text())
    if result["stdout"].encode() != workload.reference:
        bench.fail(f"{mode} pass stdout differs from the untraced run's")
    if result.get("missing_hooks"):
        print(f"note: layer hooks not found: {result['missing_hooks']}",
              file=sys.stderr)
    return result


def per_layer(bench: Bench) -> Dict[str, float]:
    setup_s = measure_setup(bench.tmp, 3)
    workload = WORKLOADS[bench.workload](bench)
    workload.prepare()
    untraced = workload.timed()
    trace = in_process(bench, "trace", workload)
    profile = in_process(bench, "profile", workload)
    if not trace or not profile:
        return {}
    counts = trace["counts"]
    bench.attempted += counts.get("engine.cells", 0)
    if trace["exit_code"] != 0 or profile["exit_code"] != 0:
        bench.fail("an in-process pass returned a nonzero exit code")
    values = ledger.layer_metrics(trace, profile, untraced.wall_s, setup_s)
    attributed = sum(values[f"{span}_s"] for span in ledger.SPANS)
    if abs(attributed - trace["wall_s"]) > 0.01 * trace["wall_s"]:
        bench.fail(f"layer self times sum to {attributed:.4f} s, traced "
                   f"wall is {trace['wall_s']:.4f} s")
    if values["trace.attributed_frac"] < 0.9:
        print(f"note: only {values['trace.attributed_frac']:.1%} of the "
              f"traced wall is attributed to named layers", file=sys.stderr)
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark unwinds, so the running child is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    config_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__main__.py").is_file() \
            or not config_path.is_file():
        print("run from the repository root: src/repro and BENCHMARK.json "
              "are required", file=sys.stderr)
        return 2
    config = json.loads(config_path.read_text())
    declared = config["per_layer" if args.trace else "end_to_end"]

    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    bench = Bench(workload=args.workload, seed=args.seed, tmp=tmp)
    try:
        values = (per_layer(bench) if args.trace
                  else end_to_end(bench, args.seconds))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only if no concurrent run still uses it

    metrics = {}
    for metric in declared:
        if metric["name"] not in values:
            bench.fail(f"metric {metric['name']} was not measured")
            continue
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:32s} {value:.6g} {metric['unit']}")
    attempted = max(bench.attempted, 1)
    print(f"{'failed_frac':32s} {bench.failed / attempted:.6g} "
          f"({bench.failed} of {attempted} cells)")
    correct = not bench.problems
    print("record " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "stdout_sha256": sorted(set(bench.digests)),
        "problems": bench.problems}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
