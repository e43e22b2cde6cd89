"""The schema lock: the committed manifest S001 diffs the live code against.

``CACHE_SCHEMA`` gates the result cache's payload.  The rule "any
diff-visible change to the stats shape bumps the schema" is only
enforceable if the *last agreed shape* is recorded somewhere the
analyzer can read — that record is this module.

When a stats field is added/removed/renamed or the result payload grows
a key, ``repro lint`` fails with S001 until **both** of these happen in
the same change:

1. ``CACHE_SCHEMA`` in ``repro.experiments.engine`` is bumped, and
2. this lock is regenerated (:func:`render_lock` prints the new module
   text; paste it over the constants below).

That makes a silent schema drift — new field, old schema number, stale
cache entries deserializing into the wrong shape — a lint failure
instead of a debugging session.
"""

from __future__ import annotations

#: ``CACHE_SCHEMA`` value the manifest below was generated against.
LOCKED_CACHE_SCHEMA = 7

#: ``SimStats`` dataclass fields, in declaration order.
LOCKED_SIMSTATS_FIELDS = (
    "cycles", "committed", "arith_insts", "vloads", "vstores",
    "spill_loads", "spill_stores", "swap_loads", "swap_stores",
    "scalar_blocks", "fpu_element_ops", "vrf_reads", "vrf_writes",
    "mvrf_reads", "mvrf_writes", "l2_reads", "l2_writes", "l2_misses",
    "dram_accesses", "mem_beats", "rename_frl_stalls", "rename_rob_stalls",
    "preissue_victim_stalls", "preissue_queue_stalls",
    "preissue_writer_stalls", "issue_victim_stalls", "arith_busy_cycles",
    "mem_busy_cycles", "events_processed", "cycles_skipped",
    "spans_charged", "config_name", "program_name",
)

#: Top-level keys of the per-cell result payload (``_run_cell``'s return).
LOCKED_RESULT_KEYS = ("schema", "stats", "energy", "correct")


def current_manifest() -> dict:
    """The live shape, reflected from the running code."""
    from dataclasses import fields
    from pathlib import Path

    from repro.analysis.rules_schema import _run_cell_payload_keys
    from repro.analysis.walker import load_source
    from repro.experiments import engine
    from repro.sim.stats import SimStats

    return {
        "cache_schema": engine.CACHE_SCHEMA,
        "simstats_fields": tuple(f.name for f in fields(SimStats)),
        "result_keys": tuple(_run_cell_payload_keys(
            load_source(Path(engine.__file__))) or ()),
    }


def render_lock() -> str:
    """Regenerated constant block for this module, ready to paste."""
    live = current_manifest()
    lines = [f"LOCKED_CACHE_SCHEMA = {live['cache_schema']}", "",
             "LOCKED_SIMSTATS_FIELDS = ("]
    lines.extend(f"    {name!r}," for name in live["simstats_fields"])
    lines += [")", "", "LOCKED_RESULT_KEYS = ("]
    lines.extend(f"    {name!r}," for name in live["result_keys"])
    lines.append(")")
    return "\n".join(lines)
