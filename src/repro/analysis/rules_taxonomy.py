"""F-rules: fault-taxonomy discipline for exception handling.

PR 7 introduced a deliberate split between *infrastructure* faults
(worker crashes, deadlines, transient I/O — retryable) and *simulation*
bugs (never retryable: a retry would just recompute the same wrong
answer, or worse, mask nondeterminism).  Two rules keep the split real:

* **F001** — ``except Exception`` / bare ``except:`` requires the repo's
  justification idiom on the same line: ``# noqa: BLE001 — <reason>``.
  An empty reason is still a finding.  Cleanup guards whose body ends in
  a bare ``raise`` are exempt: they swallow nothing, and the hazard this
  rule polices is swallowing.  A reason that starts with ``TODO`` is
  a placeholder, not a reason, and counts as empty.
* **F002** — retry-eligibility tuples in the cell dispatchers (names
  matching ``*RETRYABLE*``) may only contain exceptions from the
  infrastructure-fault taxonomy exported by :mod:`repro.faults`
  (:data:`~repro.faults.INFRASTRUCTURE_FAULT_NAMES`).  Retrying a
  ``ValueError`` is how a simulation bug becomes a flaky test.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.pragmas import ble_justification
from repro.analysis.registry import register_rule
from repro.analysis.reporting import Finding
from repro.analysis.walker import SourceFile, dotted_name


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    names = []
    if isinstance(handler.type, ast.Tuple):
        names = [dotted_name(e) for e in handler.type.elts]
    else:
        names = [dotted_name(handler.type)]
    return any(n is not None and n.split(".")[-1] in
               ("Exception", "BaseException") for n in names)


def _reraises(handler: ast.ExceptHandler) -> bool:
    """True for cleanup guards: the handler's last statement re-raises."""
    last = handler.body[-1]
    return isinstance(last, ast.Raise) and last.exc is None


@register_rule("F001", name="justified-broad-except",
               summary="except Exception requires a # noqa: BLE001 — "
                       "<reason> justification")
def check_broad_except(sources: List[SourceFile]) -> Iterable[Finding]:
    for src in sources:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node) or _reraises(node):
                continue
            reason = ble_justification(src.line(node.lineno))
            if reason is None:
                yield Finding(
                    src.relpath, node.lineno, "F001",
                    "broad except without a # noqa: BLE001 — <reason> "
                    "justification")
            elif not reason or reason.upper().startswith("TODO"):
                yield Finding(
                    src.relpath, node.lineno, "F001",
                    "# noqa: BLE001 pragma with an empty reason; say why "
                    "the broad except is safe")


def _taxonomy_names() -> frozenset:
    from repro.faults import INFRASTRUCTURE_FAULT_NAMES
    return INFRASTRUCTURE_FAULT_NAMES


@register_rule("F002", name="retryable-taxonomy",
               summary="retry-eligibility tuples may only contain "
                       "infrastructure-fault exception types")
def check_retryable_taxonomy(sources: List[SourceFile]) \
        -> Iterable[Finding]:
    taxonomy = None
    for src in sources:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Assign):
                continue
            names = [t.id for t in node.targets
                     if isinstance(t, ast.Name) and "RETRYABLE" in t.id]
            if not names or not isinstance(node.value, ast.Tuple):
                continue
            if taxonomy is None:
                taxonomy = _taxonomy_names()
            for elt in node.value.elts:
                dotted = dotted_name(elt)
                if dotted is None:
                    continue
                leaf = dotted.split(".")[-1]
                if leaf not in taxonomy:
                    yield Finding(
                        src.relpath, elt.lineno, "F002",
                        f"{leaf} in retry tuple {names[0]} is not an "
                        f"infrastructure fault (taxonomy: "
                        f"{', '.join(sorted(taxonomy))}); retrying it "
                        f"would mask a simulation bug")
