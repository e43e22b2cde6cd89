"""Command-line regenerators: ``python -m repro <artifact>``.

Artifacts:

* ``table1`` .. ``table5`` — the paper's tables;
* ``figure3 <app>`` — one application's four-chart panel
  (``figure3 all`` runs Table IV's six; ``figure3 extended`` or
  ``--extended`` the full ten-kernel suite; ``--workloads a,b`` any
  registry selection — including kernels plugged in via
  :func:`repro.workloads.register_workload`);
* ``figure4`` — areas and performance/mm²;
* ``figure5`` — the two floorplans;
* ``claims`` — every paper claim, paper vs measured with its margin to
  the nearer bound (exit status 1 when any claim reads ``NO``);
* ``sweep <spec.json>`` — any (workload × machine × memory × timing ×
  policy) grid from a declarative JSON spec file naming per-axis presets
  or inline overrides (see :mod:`repro.experiments.sweep`);
* ``sensitivity`` — the machine-axis sensitivity study (L2 latency, DRAM
  penalty, swap budget over AVA X4/X8 vs NATIVE);
* ``chaos <spec.json>`` — run the sweep three times (clean, under a
  seeded fault plan with worker kills / hangs / cache corruption, then
  warm over the scarred cache) and assert all three render byte-identical
  output with zero failed cells (``--seed`` picks the plan);
* ``cache stats`` / ``cache clear [--traces|--results]`` /
  ``cache verify`` — inspect, prune or integrity-check the two
  persistent stores (cell results at ``--cache-dir``, compiled traces
  under its ``traces/`` subdirectory; ``verify`` re-hashes every entry
  and quarantines corruption).

Simulation-backed artifacts (``figure3``, ``figure4``, ``claims``) run
through the experiment-execution engine:

* ``--jobs N`` streams independent cells over N worker processes
  (``--jobs 1`` runs inline; output is byte-identical either way);
  ``--jobs auto`` — the default — resolves to the CPUs this process may
  actually use (affinity-aware, so containerized CI never
  oversubscribes);
* ``--stats-json FILE`` writes the run's engine counters as JSON, also
  when a cell failed;
* results persist in a content-addressed cache (``--cache-dir``,
  default ``.repro-cache``) keyed by each cell's compile inputs, so
  re-rendering any artifact — or another artifact sharing cells — reads
  no trace and compiles nothing; ``--no-cache`` disables it.  Every cell
  is cached the moment it completes, so an interrupted grid resumes by
  rerunning: finished cells replay as hits;
* ``--cache-stats`` prints hit/miss/simulation counters to stderr (plus
  a ``resilience:`` line — retries, timeouts, quarantined/evicted cache
  entries — whenever any of those is nonzero);
* ``--deadline S`` arms a per-cell deadline on each compile and each
  simulation (a watchdog kills hung workers and retries the cell),
  ``--retries N`` bounds how many infrastructure failures a cell may
  survive (default 3), and ``--cache-max-bytes N`` bounds the result
  cache with LRU eviction;
* ``--progress`` / ``--no-progress`` force the live stderr progress line
  on or off (default: on when stderr is a terminal).  Progress never
  touches stdout, so piped artifacts stay byte-identical.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.engine import (DEFAULT_CACHE_DIR, ProgressRenderer,
                                      default_jobs, make_executor)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables and figures of the AVA paper.")
    from repro._version import __version__
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("artifact",
                        choices=["table1", "table2", "table3", "table4",
                                 "table5", "figure3", "figure4", "figure5",
                                 "claims", "sweep", "sensitivity",
                                 "chaos", "cache", "lint"])
    parser.add_argument("workload", nargs="?", default=None,
                        help="application for figure3 (a registered name, "
                             "'all' for Table IV, 'extended' for the "
                             "ten-kernel suite; default: axpy); spec file "
                             "path for sweep and chaos; action for cache "
                             "('stats', 'clear' or 'verify'; default: "
                             "stats); first path to analyze for lint "
                             "(default: the repro package)")
    parser.add_argument("files", nargs="*", default=[], metavar="FILE",
                        help="lint: further paths to analyze")
    parser.add_argument("--traces", action="store_true",
                        help="cache clear: prune only the trace store")
    parser.add_argument("--results", action="store_true",
                        help="cache clear: prune only the result store")
    parser.add_argument("--extended", action="store_true",
                        help="run the extended ten-kernel suite "
                             "(figure3 [all] / figure4 / claims)")
    parser.add_argument("--workloads", metavar="LIST",
                        help="comma-separated registered workload names: "
                             "the suite for figure3/figure4; for claims, "
                             "extra kernels simulated alongside the fixed "
                             "claim apps")
    parser.add_argument("--jobs", "-j", default="auto", metavar="N",
                        help="worker processes for simulation cells: a "
                             "count, or 'auto' for the CPUs this process "
                             "may use (affinity-aware; the default)")
    parser.add_argument("--stats-json", default=None, metavar="FILE",
                        help="write the run's engine counters to FILE "
                             "(JSON), also when a cell failed")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the result cache")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help="result-cache directory "
                             f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--cache-stats", action="store_true",
                        help="print engine cache/simulation counters "
                             "to stderr")
    parser.add_argument("--cache-max-bytes", type=int, default=None,
                        metavar="N",
                        help="bound the result cache to N bytes with "
                             "least-recently-used eviction (default: "
                             "unbounded)")
    parser.add_argument("--deadline", type=float, default=None, metavar="S",
                        help="per-cell deadline in seconds, on each "
                             "compile and each simulation: hung cells "
                             "are killed and retried (default: none; "
                             "chaos defaults to its own)")
    parser.add_argument("--retries", type=int, default=3, metavar="N",
                        help="how many infrastructure failures (worker "
                             "death, timeout, transient I/O) one cell may "
                             "survive before failing (default: 3)")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="chaos: seed selecting the injected fault "
                             "plan (default: 0)")
    parser.add_argument("--rules", default=None, metavar="LIST",
                        help="lint: comma-separated rule codes (D001) or "
                             "families (D,K) to run (default: all rules)")
    parser.add_argument("--json", action="store_true",
                        help="lint: emit the machine-readable JSON report")
    parser.add_argument("--fix", action="store_true",
                        help="lint: mechanically repair fixable findings "
                             "(missing hot-path __slots__, missing "
                             "broad-except justification scaffolds) "
                             "before checking")
    parser.add_argument("--sanitize", action="store_true",
                        help="run every simulation cell under the "
                             "microarchitectural sanitizer (VRF/ROB/RAT/"
                             "span invariants checked per uop-event; "
                             "stats and stdout are byte-identical, cells "
                             "fail loudly on any violation)")
    parser.add_argument("--progress", dest="progress", action="store_true",
                        default=None,
                        help="render a live cells-done/hits/misses/rate "
                             "line on stderr (default: only when stderr "
                             "is a terminal; stdout is never touched)")
    parser.add_argument("--no-progress", dest="progress",
                        action="store_false",
                        help="disable the live progress line")
    args = parser.parse_args(argv)
    if args.jobs == "auto":
        args.jobs = default_jobs()
    else:
        try:
            args.jobs = int(args.jobs)
        except ValueError:
            parser.error(f"--jobs takes a count or 'auto', "
                         f"got {args.jobs!r}")
        if args.jobs < 1:
            parser.error("--jobs must be >= 1")
    if args.files and args.artifact != "lint":
        parser.error("extra positional arguments apply only to lint")
    if args.workload is not None and args.artifact in (
            "table1", "table2", "table3", "table4", "table5", "figure4",
            "figure5", "claims"):
        parser.error(f"{args.artifact} takes no positional argument "
                     f"(got {args.workload!r})")
    if args.artifact != "lint" and (args.rules or args.json or args.fix):
        parser.error("--rules/--json/--fix apply only to lint")
    if args.sanitize and args.artifact in ("table1", "table2", "table3",
                                           "table4", "table5", "figure5",
                                           "chaos", "cache", "lint"):
        parser.error("--sanitize applies to simulation-backed artifacts "
                     "(figure3, figure4, claims, sweep, sensitivity)")

    show_progress = (args.progress if args.progress is not None
                     else sys.stderr.isatty())
    renderer = ProgressRenderer() if show_progress else None
    try:
        return _dispatch(parser, args, renderer)
    finally:
        if renderer is not None:
            renderer.close()


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace,
              renderer: ProgressRenderer | None) -> int:
    if args.artifact == "lint":
        return _lint_command(parser, args)
    if args.artifact == "cache":
        return _cache_command(parser, args)
    if args.traces or args.results:
        parser.error("--traces/--results apply only to 'cache clear'")
    if args.artifact == "chaos":
        if args.stats_json:
            parser.error("--stats-json does not apply to chaos")
        if not args.workload:
            parser.error("chaos needs a JSON spec file: repro chaos "
                         "examples/sweep_smoke.json")
        if args.workloads or args.extended:
            parser.error("--workloads/--extended do not apply to chaos; "
                         "list the workloads in the spec file")
        if args.no_cache:
            parser.error("chaos exercises the cache under faults; "
                         "--no-cache does not apply")
        from repro.experiments.chaos import DEFAULT_DEADLINE_S, run_chaos
        from repro.experiments.sweep import parse_sweep
        try:
            parsed = parse_sweep(args.workload)
        except ValueError as exc:
            parser.error(str(exc))
        code = run_chaos(
            parsed, seed=args.seed, jobs=args.jobs,
            cache_dir=args.cache_dir,
            deadline_s=(args.deadline if args.deadline is not None
                        else DEFAULT_DEADLINE_S),
            retries=args.retries, progress=renderer,
            stats_out=sys.stderr if args.cache_stats else None)
        if renderer is not None:
            renderer.close()
        return code

    from repro.workloads.registry import select_workloads

    def selection(default: str | None = None) -> list[str]:
        """Resolve --workloads / --extended (plus a positional default)."""
        try:
            return select_workloads(args.workloads or default,
                                    extended=args.extended)
        except KeyError as exc:
            parser.error(str(exc))

    executor = make_executor(jobs=args.jobs, cache=not args.no_cache,
                             cache_dir=args.cache_dir, progress=renderer,
                             deadline_s=args.deadline, retries=args.retries,
                             cache_max_bytes=args.cache_max_bytes,
                             sanitize=args.sanitize)
    try:
        code = _render_artifact(parser, args, executor, selection)
        if renderer is not None:
            renderer.close()  # never interleave stats with a live line
        if args.sanitize and code == 0:
            # Any violation would have raised SanitizerError inside its
            # cell and failed the run; reaching here means every checked
            # invariant held.  Diagnostics go to stderr so artifact
            # stdout stays byte-identical with and without --sanitize.
            print("sanitize: 0 sanitizer findings", file=sys.stderr)
        return code
    finally:
        # Counters are reported even when a failed cell is propagating
        # out as CellExecutionError: that is when they matter most.
        executor.close()
        if renderer is not None:
            renderer.close()
        if args.cache_stats:
            print(executor.stats.summary(), file=sys.stderr)
        if args.stats_json:
            _write_stats_json(args, executor.stats)


def _lint_command(parser: argparse.ArgumentParser,
                  args: argparse.Namespace) -> int:
    """``repro lint [paths...] [--rules LIST] [--json] [--fix]``."""
    from pathlib import Path

    from repro.analysis import run_lint

    paths = [Path(p)
             for p in ([args.workload] if args.workload else []) + args.files]
    if not paths:
        # Default target: the installed repro package itself (src layout
        # or site-packages alike), so a bare ``repro lint`` self-hosts.
        paths = [Path(__file__).resolve().parent]
    for path in paths:
        if not path.exists():
            parser.error(f"lint path does not exist: {path}")
    rules = None
    if args.rules:
        rules = [tok.strip() for tok in args.rules.split(",") if tok.strip()]
    try:
        result = run_lint(paths, rules=rules, as_json=args.json,
                          fix=args.fix)
    except KeyError as exc:
        parser.error(str(exc))
    print(result.output)
    return result.exit_code


def _write_stats_json(args: argparse.Namespace, stats) -> None:
    """Persist one run's engine counters as JSON (``--stats-json``)."""
    import json
    from pathlib import Path

    name = ""
    if args.artifact == "sweep" and args.workload:
        name = Path(args.workload).stem
    elif args.workload:
        name = args.workload
    payload = {"schema": 1, "artifact": args.artifact, "name": name,
               "stats": stats.to_dict()}
    Path(args.stats_json).write_text(json.dumps(payload, indent=2) + "\n")


def _format_size(n_bytes: int) -> str:
    if n_bytes >= 1024 * 1024:
        return f"{n_bytes / (1024 * 1024):.1f} MiB"
    if n_bytes >= 1024:
        return f"{n_bytes / 1024:.1f} KiB"
    return f"{n_bytes} B"


def _cache_command(parser: argparse.ArgumentParser,
                   args: argparse.Namespace) -> int:
    """``repro cache stats`` / ``repro cache clear [--traces|--results]``.

    Both stores live under ``--cache-dir``: cell results at the root,
    compiled traces in its ``traces/`` subdirectory.  ``clear`` prunes
    both unless narrowed by a flag.
    """
    from pathlib import Path

    from repro.compiler.store import TRACE_SUBDIR, TraceStore
    from repro.experiments.engine import ResultCache

    action = args.workload or "stats"
    if action not in ("stats", "clear", "verify"):
        parser.error(f"cache actions: stats, clear, verify (got {action!r})")
    if args.no_cache:
        parser.error("--no-cache does not apply to the cache command")
    if (args.traces or args.results) and action != "clear":
        parser.error("--traces/--results apply only to 'cache clear'")
    root = Path(args.cache_dir)
    results = ResultCache(root)
    traces = TraceStore(root / TRACE_SUBDIR)
    if action == "stats":
        print(f"cache at {root}")
        for label, store in (("results", results), ("traces", traces)):
            entries, size = store.stats()
            print(f"  {label}: {entries} entries, {_format_size(size)}")
    elif action == "verify":
        # Re-hash every entry; corruption is moved to quarantine/ (and
        # thereby re-simulates on the next run), stale/legacy entries are
        # reported but left in place — they already read as misses.
        bad = 0
        print(f"cache at {root}")
        for label, store in (("results", results), ("traces", traces)):
            counts = store.verify()
            print(f"  {label}: {counts['entries']} entries, "
                  f"{counts['ok']} ok, {counts['quarantined']} quarantined, "
                  f"{counts['stale']} stale, {counts['legacy']} legacy")
            bad += counts["quarantined"]
        return 1 if bad else 0
    else:
        # Neither flag means both stores, exactly like a full wipe.
        both = not (args.traces or args.results)
        if args.results or both:
            print(f"cleared {results.clear()} result entries")
        if args.traces or both:
            print(f"cleared {traces.clear()} trace entries")
    return 0


def _render_artifact(parser: argparse.ArgumentParser,
                     args: argparse.Namespace, executor,
                     selection) -> int:
    if args.artifact == "table1":
        from repro.experiments.tables import render_table1
        print(render_table1())
    elif args.artifact == "table2":
        from repro.experiments.tables import render_table2
        print(render_table2())
    elif args.artifact == "table3":
        from repro.experiments.tables import render_table3
        print(render_table3())
    elif args.artifact == "table4":
        from repro.experiments.tables import render_table4
        print(render_table4())
    elif args.artifact == "table5":
        from repro.experiments.tables import render_table5
        print(render_table5())
    elif args.artifact == "figure3":
        from repro.experiments.figure3 import build_panels
        # A bare `figure3` renders the axpy panel as always; a bare
        # `figure3 --extended` means the whole ten-kernel suite.  An
        # explicit positional name always wins over --extended.
        if args.workload is None and not args.extended:
            names = selection(default="axpy")
        else:
            names = selection(default=args.workload)
        panels = build_panels(names, executor=executor)
        for name in names:
            print(panels[name].render())
    elif args.artifact == "figure4":
        from repro.experiments.figure4 import build_figure4
        print(build_figure4(executor=executor,
                            workload_names=selection()).render())
    elif args.artifact == "figure5":
        from repro.experiments.figure5 import render_figure5
        print(render_figure5())
    elif args.artifact == "sweep":
        if not args.workload:
            parser.error("sweep needs a JSON spec file: repro sweep "
                         "examples/sensitivity.json")
        if args.workloads or args.extended:
            parser.error("--workloads/--extended do not apply to sweep; "
                         "list the workloads in the spec file")
        from repro.experiments.sweep import parse_sweep, run_sweep
        # Only parse-time problems are usage errors; a failure inside the
        # grid itself must surface as the exception it is.
        try:
            parsed = parse_sweep(args.workload)
        except ValueError as exc:
            parser.error(str(exc))
        print(run_sweep(parsed, executor=executor))
    elif args.artifact == "sensitivity":
        from repro.experiments.sensitivity import (SENSITIVITY_WORKLOAD,
                                                   build_sensitivity)
        if args.extended:
            parser.error("--extended does not apply to sensitivity")
        if args.workload in ("all", "extended"):
            # The positional selectors would re-open the whole-suite blowup
            # the --extended guard exists to prevent.
            parser.error("sensitivity runs specific applications; pass a "
                         "registered name (or --workloads a,b)")
        names = selection(default=args.workload or SENSITIVITY_WORKLOAD)
        for name in names:
            print(build_sensitivity(executor=executor,
                                    workload=name).render())
    else:
        from repro.experiments.headline import (check_headline_claims,
                                                render_claims)
        extra = selection() if (args.extended or args.workloads) else ()
        claims = check_headline_claims(executor=executor,
                                       extra_workloads=extra)
        print(render_claims(claims))
        # A claim reading "NO" fails the run; stdout is the same table.
        if not all(claim.holds for claim in claims):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
