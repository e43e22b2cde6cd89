"""S001 bad fixture: the serialized shapes drift from the schema lock.

A shrunken SimStats (shape change, no CACHE_SCHEMA bump in this file) and
a ``_run_cell`` returning a payload with a renamed key.
"""
from dataclasses import dataclass


@dataclass
class SimStats:
    cycles: int = 0
    completely_new_counter: int = 0


def _run_cell(cell):
    return {"schema": 4, "stats": {}, "energy": {}, "is_correct": True}
