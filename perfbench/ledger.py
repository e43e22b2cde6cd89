"""Per-layer ledger: the traced and profiled in-process passes of a workload.

The benchmark measures its end-to-end metrics through the ``python -m
repro`` CLI with nothing attached.  This module produces the per-layer
split of the same command, in two separate child processes:

* ``trace`` — wraps the public entry points of each layer (at every
  module that bound them by name, so ``from x import f`` call sites are
  covered too) with a span timer, runs the CLI's ``main()`` in-process and
  records each layer's *self* time (its span minus the spans nested in
  it) plus work counts.  Whatever no layer claims is the root span's self
  time, ``engine.other_s``, so the self times add up to the traced wall.
* ``profile`` — runs the same command with cProfile enabled only inside
  ``VectorPipeline.run`` and charges each function's ``tottime`` to a
  pipeline stage (:data:`STAGE_OF`) or to the ``core`` / ``memory`` /
  ``vmu`` modules.  No clock is added to the simulator itself.

Run as a script by ``run.py``::

    python3 perfbench/ledger.py {trace|profile} OUT.json -- <repro CLI args>
"""

from __future__ import annotations

import cProfile
import contextlib
import functools
import inspect
import io
import json
import pstats
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

COLD, WARM, SWEEP = "cold-figure3", "warm-figure3", "scenario-sweep"
#: The end-to-end time metric (see ``run.py``).
CPU = "norm_cpu_s"


def _moves(metrics: str, *workloads: str) -> Tuple[Tuple[str, str], ...]:
    return tuple((m, w) for w in workloads for m in metrics.split())


#: Every per-layer metric: (name, unit, better, the end-to-end metrics and
#: workloads it should move).  A layer moves nothing on a workload absent
#: from its list; that is the prediction to check a change against.
LAYER_METRICS: List[Tuple[str, str, str, Tuple[Tuple[str, str], ...]]] = [
    ("engine.program_fingerprint_s", "s", "lower",
     _moves(CPU, WARM, COLD)),
    ("engine.code_fingerprint_s", "s", "lower",
     _moves(CPU, WARM, COLD, SWEEP)),
    ("engine.cell_key_s", "s", "lower", _moves(CPU, WARM, COLD)),
    ("engine.materialise_s", "s", "lower", _moves(CPU, WARM)),
    ("engine.other_s", "s", "lower", _moves(CPU, WARM)),
    ("engine.cells", "count", "higher", _moves(CPU, COLD, WARM, SWEEP)),
    ("engine.sims_executed", "count", "lower", _moves(CPU, COLD, SWEEP)),
    ("compiler.unroll_s", "s", "lower", _moves(CPU, COLD)),
    ("compiler.allocate_s", "s", "lower", _moves(CPU, COLD)),
    ("isa.validate_s", "s", "lower", _moves(CPU, COLD, SWEEP)),
    ("compiler.compiles", "count", "lower", _moves(CPU, COLD)),
    ("compiler.insts_out", "count", "lower", _moves(CPU, COLD)),
    ("compiler.store.key_s", "s", "lower", _moves(CPU, WARM, SWEEP)),
    ("compiler.store.load_s", "s", "lower",
     _moves(CPU + " peak_rss_mb", WARM) + _moves(CPU, SWEEP)),
    ("compiler.store.put_s", "s", "lower", _moves(CPU, COLD)),
    ("compiler.store.hits", "count", "higher", _moves(CPU, WARM, SWEEP)),
    ("compiler.store.misses", "count", "lower", _moves(CPU, COLD)),
    ("compiler.store.bytes_read", "bytes", "lower",
     _moves(CPU + " peak_rss_mb", WARM, SWEEP)),
    ("cachefs.result_get_s", "s", "lower", _moves(CPU, WARM)),
    ("cachefs.result_put_s", "s", "lower", _moves(CPU, COLD, SWEEP)),
    ("cachefs.result_hits", "count", "higher", _moves(CPU, WARM)),
    ("cachefs.result_bytes_read", "bytes", "lower", _moves(CPU, WARM)),
    ("sim.construct_s", "s", "lower", _moves(CPU, COLD, SWEEP)),
    ("sim.init_data_s", "s", "lower", _moves(CPU, SWEEP, COLD)),
    ("sim.warm_caches_s", "s", "lower", _moves(CPU, COLD, SWEEP)),
    ("workloads.reference_s", "s", "lower", _moves(CPU, SWEEP)),
    ("vpu.run_s", "s", "lower", _moves(CPU, COLD, SWEEP)),
    ("vpu.cycles_per_s", "1/s", "higher", _moves(CPU, COLD, SWEEP)),
    ("vpu.ns_per_event", "ns", "lower", _moves(CPU, COLD, SWEEP)),
    ("vpu.cycles_simulated", "count", "lower", _moves(CPU, COLD, SWEEP)),
    ("vpu.events_processed", "count", "lower", _moves(CPU, COLD, SWEEP)),
    ("vpu.cycles_skipped", "count", "higher", _moves(CPU, COLD, SWEEP)),
    ("vpu.spans_charged", "count", "lower", _moves(CPU, COLD, SWEEP)),
    ("vpu.committed", "count", "lower", _moves(CPU, COLD, SWEEP)),
    ("vpu.stage.rename", "share", "lower", _moves(CPU, COLD, SWEEP)),
    ("vpu.stage.dispatch", "share", "lower", _moves(CPU, COLD, SWEEP)),
    ("vpu.stage.pre_issue", "share", "lower",
     _moves(CPU, COLD, SWEEP)),
    ("vpu.stage.issue", "share", "lower", _moves(CPU, COLD, SWEEP)),
    ("vpu.stage.execute", "share", "lower", _moves(CPU, SWEEP, COLD)),
    ("vpu.stage.complete", "share", "lower", _moves(CPU, COLD, SWEEP)),
    ("vpu.stage.commit", "share", "lower", _moves(CPU, COLD, SWEEP)),
    ("vpu.stage.fast_forward", "share", "lower",
     _moves(CPU, SWEEP, COLD)),
    ("vpu.stage.schedule", "share", "lower", _moves(CPU, COLD, SWEEP)),
    ("vpu.vmu.share", "share", "lower", _moves(CPU, SWEEP, COLD)),
    ("core.share", "share", "lower", _moves(CPU, COLD, SWEEP)),
    ("memory.share", "share", "lower", _moves(CPU, SWEEP, COLD)),
    ("vpu.other.share", "share", "lower", _moves(CPU, SWEEP, COLD)),
    ("core.swap_ops", "count", "lower", _moves(CPU, COLD, SWEEP)),
    ("memory.dram_accesses", "count", "lower", _moves(CPU, SWEEP)),
    ("memory.mem_beats", "count", "lower", _moves(CPU, COLD, SWEEP)),
    ("power.energy_s", "s", "lower", _moves(CPU, COLD, SWEEP)),
    ("render_s", "s", "lower", _moves(CPU, WARM)),
    ("trace.wall_s", "s", "lower", _moves(CPU, COLD, WARM, SWEEP)),
    ("trace.overhead_s", "s", "lower", _moves(CPU, COLD, WARM, SWEEP)),
    ("trace.attributed_frac", "share", "higher",
     _moves(CPU, COLD, WARM, SWEEP)),
]

#: Spans whose self times :func:`layer_metrics` reports as ``<name>_s``.
SPANS = ("engine.program_fingerprint", "engine.code_fingerprint",
         "engine.cell_key", "engine.materialise", "engine.other",
         "compiler.unroll", "compiler.allocate", "isa.validate",
         "compiler.store.key", "compiler.store.load", "compiler.store.put",
         "cachefs.result_get", "cachefs.result_put", "sim.construct",
         "sim.init_data", "sim.warm_caches", "workloads.reference",
         "vpu.run", "power.energy", "render")

# ---------------------------------------------------------------------------
# cProfile attribution
# ---------------------------------------------------------------------------
#: ``tottime`` of a helper shared by several stages is split over its
#: callers, in proportion to the time each call site spent in it.
CALLER = "caller"

#: Every method of ``VectorPipeline`` -> the stage its ``tottime`` counts
#: toward.  ``setup`` methods run outside ``run()`` and so outside the
#: profile.  ``perfbench/tests`` fails on any method missing here, so a
#: pipeline refactor cannot move time into ``vpu.other.share`` unseen.
STAGE_OF: Dict[str, str] = {
    "__init__": "setup", "_install_sanitizer": "setup",
    "run": "schedule", "finished": "schedule", "_harvest": "schedule",
    "_rename": "rename",
    "_dispatch": "dispatch",
    "_pre_issue": "pre_issue", "_count_preissue_stall": "pre_issue",
    "_select_victim": "pre_issue", "_clean_evict": "pre_issue",
    "_acquire_preg": "pre_issue", "_emit_swap_store": "pre_issue",
    "_issue_memory": "issue", "_issue_arith": "issue",
    "_issue_swap_bypass": "issue", "_issue_memory_uop": "issue",
    "_memoize_mem_gate": "issue", "_resolve_head": "issue",
    "_finish_issue": "issue", "_count_issue": "issue", "_ready": "issue",
    "_head_wait_time": "issue",
    "_execute_arith": "execute", "_execute_swap": "execute",
    "_execute_memory": "execute",
    "_complete": "complete",
    "_commit": "commit", "_retire": "commit",
    "_fast_forward": "fast_forward",
    "_next_seq": CALLER, "_is_done": CALLER, "_free_one_preg": CALLER,
    "_emit_swap_load": CALLER, "_attach_write_guards": CALLER,
    "_src_version_sum": CALLER, "_ready_wake": CALLER, "_gate_wake": CALLER,
    "_dump": CALLER,
}

STAGES = ("rename", "dispatch", "pre_issue", "issue", "execute", "complete",
          "commit", "fast_forward", "schedule")

#: Source-path fragment -> bucket for functions outside the pipeline class.
MODULE_BUCKETS = (("/repro/vpu/vmu.py", "vmu"), ("/repro/core/", "core"),
                  ("/repro/memory/", "memory"))


def _bucket(func: Tuple[str, int, str]) -> str:
    filename, _, name = func
    path = filename.replace("\\", "/")
    if path.endswith("/repro/vpu/pipeline.py"):
        return STAGE_OF.get(name, CALLER)
    for fragment, bucket in MODULE_BUCKETS:
        if fragment in path:
            return bucket
    return CALLER


def stage_shares(stats: pstats.Stats) -> Dict[str, float]:
    """Share of profiled time per stage / module bucket (sums to 1)."""
    raw = stats.stats  # type: ignore[attr-defined]
    memo: Dict[Tuple[str, int, str], Dict[str, float]] = {}
    active: set = set()

    def owners(func) -> Dict[str, float]:
        """Bucket -> fraction of ``func``'s own time (callers resolved)."""
        if func in memo:
            return memo[func]
        bucket = _bucket(func) if func in raw else "other"
        if bucket != CALLER:
            return {bucket: 1.0}
        weights = {c: v[2] for c, v in raw[func][4].items()}
        total = sum(weights.values())
        if total <= 0 or func in active:  # no timed caller, or recursion
            return {"other": 1.0}
        active.add(func)
        dist: Dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            for b, frac in owners(caller).items():
                dist[b] += frac * weight / total
        active.discard(func)
        memo[func] = dict(dist)
        return memo[func]

    totals: Dict[str, float] = defaultdict(float)
    for func, (_, _, tottime, _, _) in raw.items():
        for bucket, frac in owners(func).items():
            totals[bucket] += tottime * frac
    grand = sum(totals.values())
    return {b: (t / grand if grand > 0 else 0.0) for b, t in totals.items()}


# ---------------------------------------------------------------------------
# span tracing
# ---------------------------------------------------------------------------
class Tracer:
    """Self-time spans and counters, kept in memory for one pass."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.missing: List[str] = []
        self._stack: List[float] = []
        #: (owner, attribute, original value or None if it was inherited)
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, name: Optional[str], fn: Callable,
             post: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name`` (untimed if None); ``post(result,
        *args)`` runs after the span closes, for counting."""
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                stack.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    self_s[name] += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed
            if post is not None:
                post(result, *args)
            return result
        return traced

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def patch_function(self, module: str, attr: str, name: Optional[str],
                       post: Optional[Callable] = None) -> None:
        """Wrap a module-level function at its home and at every ``repro``
        module that imported it by name."""
        home = sys.modules.get(module)
        original = getattr(home, attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapped = self.wrap(name, original, post)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "repro" or mod_name.startswith("repro."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def patch_method(self, cls: Optional[type], attr: str,
                     name: Optional[str],
                     post: Optional[Callable] = None) -> None:
        """Wrap a method, static method or class method on ``cls``."""
        if cls is None or not hasattr(cls, attr):
            label = getattr(cls, "__name__", "?")
            self.missing.append(f"{label}.{attr}")
            return
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, staticmethod):
            value: object = staticmethod(self.wrap(name, raw.__func__, post))
        elif isinstance(raw, classmethod):
            value = classmethod(self.wrap(name, raw.__func__, post))
        else:
            value = self.wrap(name, raw, post)
        self._set(cls, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._undo.clear()


def _optional(module: str, attr: str) -> Optional[type]:
    mod = sys.modules.get(module)
    return getattr(mod, attr, None) if mod is not None else None


def _file_size(store, key: str) -> int:
    try:
        return Path(store.path(key)).stat().st_size
    except (AttributeError, OSError):
        return 0


def install_layer_spans(tracer: Tracer, executors: List[object]) -> None:
    """Wrap every layer boundary the ledger reports (see :data:`SPANS`)."""
    counts = tracer.counts

    def on_compile(result, *_):
        counts["compiler.compiles"] += 1
        counts["compiler.insts_out"] += len(result.program.insts)

    def on_trace_load(result, store, key, *_):
        if result is None:
            counts["compiler.store.misses"] += 1
        else:
            counts["compiler.store.hits"] += 1
            counts["compiler.store.bytes_read"] += _file_size(store, key)

    def on_result_get(result, store, key, *_):
        if result is not None:
            counts["cachefs.result_hits"] += 1
            counts["cachefs.result_bytes_read"] += _file_size(store, key)

    def on_sim_run(result, *_):
        stats = result.stats
        for metric, fields in (
                ("vpu.cycles_simulated", ("cycles",)),
                ("vpu.events_processed", ("events_processed",)),
                ("vpu.cycles_skipped", ("cycles_skipped",)),
                ("vpu.spans_charged", ("spans_charged",)),
                ("vpu.committed", ("committed",)),
                ("core.swap_ops", ("swap_loads", "swap_stores")),
                ("memory.dram_accesses", ("dram_accesses",)),
                ("memory.mem_beats", ("mem_beats",))):
            counts[metric] += sum(getattr(stats, f, 0) for f in fields)

    engine = "repro.experiments.engine"
    tracer.patch_function(engine, "make_executor", None,
                          post=lambda result, *_: executors.append(result))
    tracer.patch_function(engine, "program_fingerprint",
                          "engine.program_fingerprint")
    tracer.patch_function(engine, "code_fingerprint",
                          "engine.code_fingerprint")
    tracer.patch_function(engine, "cell_key", "engine.cell_key")
    tracer.patch_method(_optional(engine, "CellExecutor"), "_materialise",
                        "engine.materialise")
    tracer.patch_function("repro.compiler.trace", "unroll_kernel",
                          "compiler.unroll")
    tracer.patch_function("repro.compiler.allocator", "allocate",
                          "compiler.allocate")
    tracer.patch_method(_optional("repro.isa.program", "Program"), "validate",
                        "isa.validate")
    tracer.patch_method(_optional("repro.workloads.base", "Workload"),
                        "compile", None, post=on_compile)
    trace_store = _optional("repro.compiler.store", "TraceStore")
    tracer.patch_method(trace_store, "key", "compiler.store.key")
    tracer.patch_method(trace_store, "load", "compiler.store.load",
                        post=on_trace_load)
    tracer.patch_method(trace_store, "put_trace", "compiler.store.put")
    result_cache = _optional(engine, "ResultCache")
    tracer.patch_method(result_cache, "get", "cachefs.result_get",
                        post=on_result_get)
    tracer.patch_method(result_cache, "put", "cachefs.result_put")
    simulator = _optional("repro.sim.simulator", "Simulator")
    tracer.patch_method(simulator, "__init__", "sim.construct")
    tracer.patch_method(simulator, "from_trace", "sim.construct")
    tracer.patch_method(simulator, "warm_caches", "sim.warm_caches")
    tracer.patch_method(simulator, "run", "vpu.run", post=on_sim_run)
    for cls in _workload_classes():
        tracer.patch_method(cls, "init_data", "sim.init_data")
        tracer.patch_method(cls, "reference", "workloads.reference")
    tracer.patch_method(_optional("repro.power.mcpat", "McPatModel"),
                        "energy", "power.energy")
    tracer.patch_method(_optional("repro.experiments.figure3",
                                  "Figure3Panel"), "render", "render")
    tracer.patch_function("repro.experiments.sweep", "render_rows", "render")


def _workload_classes() -> Iterable[type]:
    from repro.workloads.registry import get_workload, registered_names
    classes = {type(get_workload(name)) for name in registered_names()}
    return sorted(classes, key=lambda c: c.__qualname__)


def import_cli():
    """Import the CLI and every module a pass patches, before patching."""
    import repro.__main__ as cli
    for module in ("repro.experiments.engine", "repro.experiments.figure3",
                   "repro.experiments.sweep", "repro.compiler.store",
                   "repro.sim.simulator", "repro.power.mcpat",
                   "repro.vpu.pipeline", "repro.workloads.registry"):
        __import__(module)
    return cli


def _run_cli(cli, argv: List[str]) -> Tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return int(code or 0), out.getvalue()


def trace_pass(argv: List[str]) -> dict:
    """One traced in-process run of ``python -m repro <argv>``."""
    cli = import_cli()
    tracer = Tracer()
    executors: List[object] = []
    install_layer_spans(tracer, executors)
    root = tracer.wrap("engine.other", _run_cli)
    start = time.perf_counter()
    try:
        code, stdout = root(cli, argv)
    finally:
        outer = time.perf_counter() - start
        tracer.restore()
    counts = dict(tracer.counts)
    stats = getattr(executors[-1], "stats", None) if executors else None
    counts["engine.cells"] = getattr(stats, "cells_requested", 0)
    counts["engine.sims_executed"] = getattr(stats, "sims_executed", 0)
    return {"exit_code": code, "stdout": stdout, "wall_s": outer,
            "self_s": dict(tracer.self_s), "counts": counts,
            "missing_hooks": tracer.missing}


def profile_pass(argv: List[str]) -> dict:
    """One run with cProfile enabled only inside ``VectorPipeline.run``."""
    cli = import_cli()
    from repro.vpu.pipeline import VectorPipeline
    profiler = cProfile.Profile()
    original = VectorPipeline.run

    @functools.wraps(original)
    def profiled_run(self, *args, **kwargs):
        profiler.enable()
        try:
            return original(self, *args, **kwargs)
        finally:
            profiler.disable()

    VectorPipeline.run = profiled_run  # type: ignore[method-assign]
    try:
        code, stdout = _run_cli(cli, argv)
    finally:
        VectorPipeline.run = original  # type: ignore[method-assign]
    try:
        shares = stage_shares(pstats.Stats(profiler))
    except TypeError:  # no simulation ran: pstats refuses an empty profile
        shares = {}
    return {"exit_code": code, "stdout": stdout, "shares": shares}


def layer_metrics(trace: dict, profile: dict, cli_wall_s: float,
                  setup_s: float) -> Dict[str, float]:
    """Every metric in :data:`LAYER_METRICS`, from one trace and one
    profile pass plus the untraced CLI wall time of the same command."""
    self_s, counts = trace["self_s"], trace["counts"]
    shares = profile["shares"]
    wall = trace["wall_s"]
    values: Dict[str, float] = {f"{span}_s": self_s.get(span, 0.0)
                                for span in SPANS}
    for name, unit, _, _ in LAYER_METRICS:
        if unit in ("count", "bytes"):
            values[name] = counts.get(name, 0)
    run_s = values["vpu.run_s"]
    values["vpu.cycles_per_s"] = (values["vpu.cycles_simulated"] / run_s
                                  if run_s > 0 else 0.0)
    events = values["vpu.events_processed"]
    values["vpu.ns_per_event"] = run_s / events * 1e9 if events else 0.0
    for stage in STAGES:
        values[f"vpu.stage.{stage}"] = shares.get(stage, 0.0)
    values["vpu.vmu.share"] = shares.get("vmu", 0.0)
    values["core.share"] = shares.get("core", 0.0)
    values["memory.share"] = shares.get("memory", 0.0)
    values["vpu.other.share"] = shares.get("other", 0.0)
    values["trace.wall_s"] = wall
    # The CLI wall includes interpreter start-up, which the in-process
    # traced run does not pay; take it out before comparing.
    values["trace.overhead_s"] = wall - (cli_wall_s - setup_s)
    values["trace.attributed_frac"] = (1.0 - self_s.get("engine.other", 0.0)
                                       / wall if wall > 0 else 0.0)
    return values


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[0] not in ("trace", "profile") \
            or argv[2] != "--":
        print("usage: ledger.py {trace|profile} OUT.json -- <repro args>",
              file=sys.stderr)
        return 2
    mode, out = argv[0], Path(argv[1])
    sys.path.insert(0, str(Path.cwd() / "src"))
    result = (trace_pass if mode == "trace" else profile_pass)(argv[3:])
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
