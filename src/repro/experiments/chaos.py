"""``repro chaos``: prove a sweep survives injected faults byte-for-byte.

The crash-safety story (streaming cache writes, retry budget, deadlines,
integrity checks) is only worth what can be demonstrated, so this module
turns it into one executable assertion.  A chaos run executes the same
sweep spec three times:

1. **clean** — a fresh cache directory, no faults: the reference stdout;
2. **faulted** — another fresh cache directory, under a seeded
   :func:`repro.faults.seeded_plan` (a worker kill, a hung cell, a slow
   cell, a corrupted result write and an ENOSPC write), with a per-job
   deadline armed so the hang dies to the watchdog instead of stalling
   the sweep;
3. **warm** — the faulted run's cache directory again, faults off: the
   corrupt entry must quarantine into a re-simulation, everything else
   must replay as hits.

All three rendered tables must be **byte-identical** and no cell may
fail; anything else is a reproducibility bug, reported with a nonzero
exit code.  The faulted run must also show its scars — nonzero retries
(the injected faults actually fired) — or the plan silently missed and
the test proved nothing.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path
from typing import Optional, TextIO, Union

from repro import faults
from repro.experiments.engine import (DEFAULT_CACHE_DIR, CellExecutionError,
                                      ExecutorStats, ProgressCallback,
                                      make_executor)
from repro.experiments.sweep import ParsedSweep, parse_sweep, run_sweep

#: Per-job deadline for chaos runs: far above any real job in the smoke
#: grids (they run in milliseconds), far below the injected hang.
DEFAULT_DEADLINE_S = 5.0

#: Injected hang duration — long enough that only the watchdog (never the
#: cell finishing on its own) can end it within the deadline.
HANG_S = 30.0


def _run_phase(parsed: ParsedSweep, cache_dir: Path, *, jobs: int,
               deadline_s: Optional[float], retries: int, backoff_s: float,
               progress: Optional[ProgressCallback]
               ) -> "tuple[str, ExecutorStats]":
    # A fresh executor per phase: each phase owns its pool end to end.
    executor = make_executor(jobs=jobs, cache=True, cache_dir=cache_dir,
                             progress=progress, deadline_s=deadline_s,
                             retries=retries, backoff_s=backoff_s)
    with executor:
        rendered = run_sweep(parsed, executor)
    return rendered, executor.stats


def run_chaos(spec: Union[str, Path, dict, ParsedSweep], *,
              seed: int = 0,
              jobs: int = 2,
              cache_dir: Union[str, Path] = DEFAULT_CACHE_DIR,
              deadline_s: Optional[float] = DEFAULT_DEADLINE_S,
              retries: int = 3,
              backoff_s: float = 0.05,
              progress: Optional[ProgressCallback] = None,
              stats_out: Optional[TextIO] = None,
              out: Optional[TextIO] = None) -> int:
    """Run the clean/faulted/warm triple; returns a process exit code.

    The sweep's rendered table is written to ``out`` (stdout by default)
    once — from the *faulted* run, the one under attack — followed by a
    one-line verdict.  ``stats_out`` (``--cache-stats``) additionally
    receives the faulted run's engine counters on stderr-style output.
    The three runs use dedicated cache directories under
    ``<cache_dir>/chaos/`` so a chaos run never pollutes (nor borrows
    from) the real result cache.
    """
    parsed = spec if isinstance(spec, ParsedSweep) else parse_sweep(spec)
    labels = [cell.label() for _, cell in parsed.labelled_cells()]
    plan = faults.seeded_plan(seed, labels, hang_s=HANG_S)
    root = Path(cache_dir) / "chaos"
    out = out if out is not None else sys.stdout

    def fresh(name: str) -> Path:
        phase_dir = root / name
        shutil.rmtree(phase_dir, ignore_errors=True)
        return phase_dir

    phase_kwargs = dict(jobs=jobs, deadline_s=deadline_s, retries=retries,
                        backoff_s=backoff_s, progress=progress)
    clean, _ = _run_phase(parsed, fresh("clean"), **phase_kwargs)

    faulted_dir = fresh("faulted")
    try:
        with faults.injected(plan):
            faulted, stats = _run_phase(parsed, faulted_dir, **phase_kwargs)
    except CellExecutionError as exc:
        out.write(f"chaos[seed={seed}]: plan={plan.describe()}; "
                  f"FAILED — {exc}\n")
        return 1

    # Warm rerun over the faulted cache, faults off: the corrupted entry
    # must be quarantined into a re-simulation, not replayed as truth.
    warm, warm_stats = _run_phase(parsed, faulted_dir, **phase_kwargs)

    if stats_out is not None:
        stats_out.write(stats.summary() + "\n")

    verdicts = []
    if faulted != clean:
        verdicts.append("faulted stdout DIVERGED from clean")
    if warm != clean:
        verdicts.append("warm replay DIVERGED from clean")
    if stats.retries == 0:
        verdicts.append("no retries charged — the fault plan never fired")
    quarantined = stats.cache_quarantined + warm_stats.cache_quarantined
    table = faulted if faulted.endswith("\n") else faulted + "\n"
    if verdicts:
        out.write(table)
        out.write(f"chaos[seed={seed}]: plan={plan.describe()}; "
                  f"FAILED — {'; '.join(verdicts)}\n")
        return 1

    out.write(table)
    out.write(f"chaos[seed={seed}]: plan={plan.describe()}; "
              f"byte-identical stdout across clean/faulted/warm runs; "
              f"{stats.cells_failed} failed cells; {stats.retries} retries; "
              f"{stats.timeouts} timeouts; {quarantined} quarantined\n")
    return 0
