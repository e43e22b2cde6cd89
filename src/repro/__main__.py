"""Command-line regenerators: ``python -m repro <command>``.

One argparse subcommand per artifact (:data:`COMMANDS`), each declaring
only the flags it reads; ``python -m repro <command> --help`` lists them.
Simulation-backed commands run through the experiment engine: cells
persist in a content-addressed cache keyed by their compile inputs, and
stdout is byte-identical for every ``--jobs`` value and cache state, with
progress and counters on stderr only.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.experiments.engine import CellExecutor, ProgressRenderer


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.run(args.parser, args)


def _build_parser() -> argparse.ArgumentParser:
    from repro._version import __version__
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables and figures of the AVA paper.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="artifact", metavar="command",
                                       required=True)
    for name, (summary, parents, run) in COMMANDS.items():
        command = subparsers.add_parser(name, help=summary,
                                        description=summary, parents=parents)
        if name == "cache":
            _cache_actions(command)
        # Each handler reports usage errors through its own command.
        command.set_defaults(run=run, parser=command)
    return parser


# ---------------------------------------------------------------------------
# flags, grouped as the commands share them (argparse parent parsers)
# ---------------------------------------------------------------------------
def _group(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    return argparse.ArgumentParser(add_help=False, parents=parents)


# The default resolves after parsing, so --version never loads the cache
# layer; the help text names repro.cachefs.DEFAULT_CACHE_DIR.
CACHE_DIR_HELP = "result-cache directory (default: .repro-cache)"
CACHE_DIR = _group()
CACHE_DIR.add_argument("--cache-dir", metavar="DIR", help=CACHE_DIR_HELP)

ENGINE = _group(CACHE_DIR)
ENGINE.add_argument(
    "--jobs", "-j", default="auto", metavar="N",
    help="worker processes for simulation cells: a count, or 'auto' for "
         "the CPUs this process may use (affinity-aware; the default)")
ENGINE.add_argument("--cache-stats", action="store_true",
                    help="print engine cache/simulation counters to stderr")
ENGINE.add_argument(
    "--deadline", type=float, metavar="S",
    help="deadline in seconds on each job (one compile plus the cells "
         "sharing its program): hung jobs are killed and retried "
         "(default: none; chaos defaults to its own)")
ENGINE.add_argument(
    "--retries", type=int, default=3, metavar="N",
    help="infrastructure failures (worker death, timeout, transient I/O) "
         "one job may survive (default: 3)")
ENGINE.add_argument(
    "--progress", action="store_true", default=None,
    help="render a live progress line on stderr (default: only when "
         "stderr is a terminal; stdout is never touched)")
ENGINE.add_argument("--no-progress", dest="progress", action="store_false",
                    help="disable the live progress line")

SIMULATION = _group()
SIMULATION.add_argument(
    "--stats-json", metavar="FILE",
    help="write the run's engine counters to FILE (JSON), also when a "
         "cell failed")
SIMULATION.add_argument("--no-cache", action="store_true",
                        help="do not read or write the result cache")
SIMULATION.add_argument(
    "--sanitize", action="store_true",
    help="check VRF/ROB/RAT/span invariants on every uop event of every "
         "cell; stdout is byte-identical, a violation fails")

WORKLOADS = _group()
WORKLOADS.add_argument(
    "--workloads", metavar="LIST",
    help="comma-separated registered workload names to run (for claims: "
         "extra kernels simulated alongside the fixed claim apps)")
SELECTION = _group(WORKLOADS)
SELECTION.add_argument("--extended", action="store_true",
                       help="run the extended ten-kernel suite")

SPEC = _group()
SPEC.add_argument("spec", metavar="SPEC",
                  help="sweep spec file, e.g. examples/sweep_smoke.json")


SEED = _group()
SEED.add_argument("--seed", type=int, default=0, metavar="N",
                  help="seed selecting the injected fault plan (default: 0)")

FIGURE3_WORKLOAD = _group()
FIGURE3_WORKLOAD.add_argument(
    "workload", nargs="?",
    help="a registered name, 'all' for Table IV or 'extended' for the "
         "ten-kernel suite (default: axpy)")
SENSITIVITY_WORKLOAD = _group()
SENSITIVITY_WORKLOAD.add_argument(
    "workload", nargs="?",
    help="a registered application (default: the study's own)")

LINT = _group()
LINT.add_argument(
    "paths", nargs="*", metavar="PATH",
    help="files or directories to analyze (default: the repro package)")
LINT.add_argument(
    "--rules", metavar="LIST",
    help="comma-separated rule codes (D001) or families (D,K) to run "
         "(default: all)")
LINT.add_argument("--json", action="store_true",
                  help="emit the machine-readable JSON report")


def _cache_actions(parser: argparse.ArgumentParser) -> None:
    """``cache stats`` (the default), ``clear`` and ``verify``: each also
    takes ``--cache-dir`` after the action."""
    actions = parser.add_subparsers(dest="action", metavar="action")
    parser.set_defaults(action="stats")
    for name, summary in (
            ("stats", "entries and bytes of the result cache (default)"),
            ("clear", "wipe the result cache"),
            ("verify", "re-hash every entry and quarantine corruption")):
        action = actions.add_parser(name, help=summary, description=summary)
        # SUPPRESS: an action given no --cache-dir keeps the one given to
        # `cache` itself.
        action.add_argument("--cache-dir", metavar="DIR",
                            default=argparse.SUPPRESS, help=CACHE_DIR_HELP)
        if name == "clear":
            # The result cache is the only store, so this changes
            # nothing; perfbench's sweep workload still passes it.
            action.add_argument("--results", action="store_true",
                                help="the same as a plain clear")


# ---------------------------------------------------------------------------
# command handlers: ``run(parser, args) -> exit status``
# ---------------------------------------------------------------------------
def _static_command(parser: argparse.ArgumentParser,
                    args: argparse.Namespace) -> int:
    if args.artifact == "figure5":
        from repro.experiments.figure5 import render_figure5
        print(render_figure5())
    else:
        from repro.experiments import tables
        print(getattr(tables, f"render_{args.artifact}")())
    return 0


def _engine_options(parser: argparse.ArgumentParser,
                    args: argparse.Namespace) -> ProgressRenderer | None:
    """Resolve and check the engine flags; the live progress line, if on."""
    from repro.cachefs import DEFAULT_CACHE_DIR
    from repro.experiments.engine import ProgressRenderer, default_jobs
    if args.cache_dir is None:
        args.cache_dir = DEFAULT_CACHE_DIR
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
    if args.deadline is not None and not args.deadline > 0:
        parser.error("--deadline must be > 0")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    show_progress = (args.progress if args.progress is not None
                     else sys.stderr.isatty())
    return ProgressRenderer() if show_progress else None


def _chaos_command(parser: argparse.ArgumentParser,
                   args: argparse.Namespace) -> int:
    renderer = _engine_options(parser, args)
    try:
        from repro.experiments.chaos import DEFAULT_DEADLINE_S, run_chaos
        from repro.experiments.sweep import parse_sweep
        try:
            parsed = parse_sweep(args.spec)
        except ValueError as exc:
            parser.error(str(exc))
        return run_chaos(
            parsed, seed=args.seed, jobs=args.jobs,
            cache_dir=args.cache_dir,
            deadline_s=(args.deadline if args.deadline is not None
                        else DEFAULT_DEADLINE_S),
            retries=args.retries, progress=renderer,
            stats_out=sys.stderr if args.cache_stats else None)
    finally:
        if renderer is not None:
            renderer.close()


def _simulated(render: Callable[[argparse.ArgumentParser,
                                 argparse.Namespace, CellExecutor], int]):
    """The handler that runs ``render`` on an executor built from the
    engine and simulation flags, reporting its counters as asked.

    A batch with failed cells exits 1 with a report on stderr, not a
    traceback: one line per :class:`CellError`, then the ``N of M cells
    failed`` summary as the last line."""
    def run(parser: argparse.ArgumentParser,
            args: argparse.Namespace) -> int:
        renderer = _engine_options(parser, args)
        from repro.experiments.engine import CellExecutionError, make_executor
        executor = make_executor(jobs=args.jobs, cache=not args.no_cache,
                                 cache_dir=args.cache_dir, progress=renderer,
                                 deadline_s=args.deadline,
                                 retries=args.retries, sanitize=args.sanitize)
        failed = None
        try:
            code = render(parser, args, executor)
            if renderer is not None:
                renderer.close()  # never interleave stats with a live line
            if args.sanitize and code == 0:
                # Any violation would have raised SanitizerError inside its
                # cell and failed the run; reaching here means every
                # checked invariant held.  Diagnostics go to stderr so
                # stdout stays byte-identical with and without --sanitize.
                print("sanitize: 0 sanitizer findings", file=sys.stderr)
        except CellExecutionError as exc:
            failed, code = exc, 1
        finally:
            # Counters are reported for a failed batch too: that is when
            # they matter most.
            executor.close()
            if renderer is not None:
                renderer.close()
            if args.cache_stats:
                print(executor.stats.summary(), file=sys.stderr)
            if args.stats_json:
                _write_stats_json(args, executor.stats)
        if failed is not None:
            for error in failed.errors:
                print(f"failed: {error.label()}: {error.error}",
                      file=sys.stderr)
            print(failed, file=sys.stderr)
        return code
    return run


def _select(parser: argparse.ArgumentParser, names: str | None,
            extended: bool = False) -> list[str]:
    """Resolve a workload selection; an unknown name is a usage error."""
    from repro.workloads.registry import select_workloads
    try:
        return select_workloads(names, extended=extended)
    except KeyError as exc:
        parser.error(exc.args[0])  # str(KeyError) would repr-quote it


@_simulated
def _figure3(parser: argparse.ArgumentParser, args: argparse.Namespace,
             executor: CellExecutor) -> int:
    from repro.experiments.figure3 import build_panels
    # A bare `figure3` renders the axpy panel; a bare `figure3 --extended`
    # means the whole ten-kernel suite.  An explicit positional name
    # always wins over --extended.
    default = ("axpy" if args.workload is None and not args.extended
               else args.workload)
    names = _select(parser, args.workloads or default, args.extended)
    panels = build_panels(names, executor=executor)
    for name in names:
        print(panels[name].render())
    return 0


@_simulated
def _figure4(parser: argparse.ArgumentParser, args: argparse.Namespace,
             executor: CellExecutor) -> int:
    from repro.experiments.figure4 import build_figure4
    names = _select(parser, args.workloads, args.extended)
    print(build_figure4(executor=executor, workload_names=names).render())
    return 0


@_simulated
def _claims(parser: argparse.ArgumentParser, args: argparse.Namespace,
            executor: CellExecutor) -> int:
    from repro.experiments.headline import (check_headline_claims,
                                            render_claims)
    extra = (_select(parser, args.workloads, args.extended)
             if args.extended or args.workloads else ())
    claims = check_headline_claims(executor=executor, extra_workloads=extra)
    print(render_claims(claims))
    # A claim reading "NO" fails the run; stdout is the same table.
    return 0 if all(claim.holds for claim in claims) else 1


@_simulated
def _sweep(parser: argparse.ArgumentParser, args: argparse.Namespace,
           executor: CellExecutor) -> int:
    from repro.experiments.sweep import parse_sweep, run_sweep
    # Only parse-time problems are usage errors; a failure inside the
    # grid itself must surface as the exception it is.
    try:
        parsed = parse_sweep(args.spec)
    except ValueError as exc:
        parser.error(str(exc))
    print(run_sweep(parsed, executor=executor))
    return 0


@_simulated
def _sensitivity(parser: argparse.ArgumentParser, args: argparse.Namespace,
                 executor: CellExecutor) -> int:
    from repro.experiments.sensitivity import (SENSITIVITY_WORKLOAD,
                                               build_studies)
    if args.workload in ("all", "extended"):
        # The whole-suite selectors would multiply the study's grid by
        # every registered kernel.
        parser.error("sensitivity runs specific applications; pass a "
                     "registered name (or --workloads a,b)")
    names = _select(parser, args.workloads or args.workload
                    or SENSITIVITY_WORKLOAD)
    for study in build_studies(names, executor=executor):
        print(study.render())
    return 0


def _write_stats_json(args: argparse.Namespace, stats) -> None:
    """Persist one run's engine counters as JSON (``--stats-json``)."""
    import json
    from pathlib import Path

    if args.artifact == "sweep":
        name = Path(args.spec).stem
    else:
        name = getattr(args, "workload", None) or ""
    payload = {"schema": 1, "artifact": args.artifact, "name": name,
               "stats": stats.to_dict()}
    Path(args.stats_json).write_text(json.dumps(payload, indent=2) + "\n")


def _lint_command(parser: argparse.ArgumentParser,
                  args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import run_lint

    # Default target: the installed repro package itself (src layout or
    # site-packages alike), so a bare ``repro lint`` self-hosts.
    paths = [Path(p) for p in args.paths] or [Path(__file__).resolve().parent]
    for path in paths:
        if not path.exists():
            parser.error(f"lint path does not exist: {path}")
    rules = None
    if args.rules:
        rules = [tok.strip() for tok in args.rules.split(",") if tok.strip()]
    try:
        result = run_lint(paths, rules=rules, as_json=args.json)
    except KeyError as exc:
        parser.error(exc.args[0])
    print(result.output)
    return result.exit_code


def _format_size(n_bytes: int) -> str:
    if n_bytes >= 1024 * 1024:
        return f"{n_bytes / (1024 * 1024):.1f} MiB"
    if n_bytes >= 1024:
        return f"{n_bytes / 1024:.1f} KiB"
    return f"{n_bytes} B"


def _cache_command(parser: argparse.ArgumentParser,
                   args: argparse.Namespace) -> int:
    """The result cache lives under ``--cache-dir``.  It is not
    size-bounded; ``clear`` is how it shrinks."""
    from repro.cachefs import DEFAULT_CACHE_DIR
    from repro.experiments.engine import ResultCache

    root = args.cache_dir or DEFAULT_CACHE_DIR
    results = ResultCache(root)
    if args.action == "clear":
        print(f"cleared {results.clear()} result entries")
        # Earlier versions kept compiled programs beside the results;
        # nothing reads them any more.
        import shutil
        from pathlib import Path
        traces = Path(root) / "traces"
        if traces.is_dir():
            shutil.rmtree(traces)
            print(f"removed the leftover trace store {traces}")
        return 0
    print(f"cache at {root}")
    if args.action == "stats":
        entries, size = results.stats()
        print(f"  results: {entries} entries, {_format_size(size)}")
        return 0
    # verify: re-hash every entry; corruption is moved to quarantine/ (and
    # thereby re-simulates on the next run), stale/legacy entries are
    # reported but left in place — they already read as misses.
    counts = results.verify()
    print(f"  results: {counts['entries']} entries, "
          f"{counts['ok']} ok, {counts['quarantined']} quarantined, "
          f"{counts['stale']} stale, {counts['legacy']} legacy")
    return 1 if counts["quarantined"] else 0


#: Command name -> (one-line summary, flag groups, handler), in help order.
COMMANDS = {
    **{name: (summary, (), _static_command) for name, summary in (
        ("table1", "Table I: P-VRF configurations (P-regs vs MVL)"),
        ("table2", "Table II: the five NATIVE system configurations"),
        ("table3", "Table III: NATIVE / AVA / RG equivalence"),
        ("table4", "Table IV: the selected RiVEC applications"),
        ("table5", "Table V: post-PnR timing, power and area"))},
    "figure3": ("one application's four-chart Figure 3 panel",
                (ENGINE, SIMULATION, SELECTION, FIGURE3_WORKLOAD), _figure3),
    "figure4": ("Figure 4: component areas and performance/mm²",
                (ENGINE, SIMULATION, SELECTION), _figure4),
    "figure5": ("Figure 5: NATIVE X8 vs AVA post-PnR floorplans", (),
                _static_command),
    "claims": ("every paper claim, paper vs measured (exit 1 on any NO)",
               (ENGINE, SIMULATION, SELECTION), _claims),
    "sweep": ("any workload x machine x memory x timing x policy grid "
              "from a JSON spec file", (ENGINE, SIMULATION, SPEC), _sweep),
    "sensitivity": ("the machine-axis sensitivity study (L2 latency, DRAM "
                    "penalty, swap budget over AVA vs NATIVE)",
                    (ENGINE, SIMULATION, WORKLOADS, SENSITIVITY_WORKLOAD),
                    _sensitivity),
    "chaos": ("run a sweep clean, under a seeded fault plan and warm, and "
              "assert byte-identical output", (ENGINE, SPEC, SEED),
              _chaos_command),
    "cache": ("inspect, prune or integrity-check the result cache",
              (CACHE_DIR,), _cache_command),
    "lint": ("run the determinism & contract analyzer", (LINT,),
             _lint_command),
}

if __name__ == "__main__":
    sys.exit(main())
