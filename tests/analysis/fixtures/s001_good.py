"""S001 good fixture: schema constant and result payload match the lock.

(The real SimStats shape is pinned by self-linting ``src/repro`` — see
test_self_lint_clean — so this fixture covers the other two probes.)
"""

CACHE_SCHEMA = 4


def _run_cell(cell):
    return {"schema": CACHE_SCHEMA, "stats": {}, "energy": {},
            "correct": True}
