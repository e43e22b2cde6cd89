"""Lint pragma comments: explicit, justified exemptions.

Every exemption the analyzer honours must carry a reason in the source —
an empty justification is itself a finding.  Three forms exist:

* ``# lint: key-exempt(<why>)`` — a dataclass field deliberately excluded
  from cache-key hashing (K-rules);
* ``# lint: slots-exempt(<why>)`` — a hot-path class that intentionally
  keeps ``__dict__`` (S-rules);
* ``# noqa: BLE001 — <reason>`` — the repo's pre-existing justification
  idiom for a deliberate broad ``except Exception`` (F-rules).  A plain
  ASCII ``-`` separator is accepted too.
"""

from __future__ import annotations

import re
from typing import Dict, Optional

_LINT_PRAGMA = re.compile(r"#\s*lint:\s*([a-z-]+)\s*\(([^)]*)\)")
_BLE_PRAGMA = re.compile(r"#\s*noqa:\s*BLE001\s*(?:[—-]\s*(.*))?$")

KEY_EXEMPT = "key-exempt"
SLOTS_EXEMPT = "slots-exempt"


def lint_pragma(line: str) -> Optional[Dict[str, str]]:
    """Parse a ``# lint: <kind>(<why>)`` pragma from a source line.

    Returns ``{"kind": ..., "why": ...}`` or None.  The ``why`` may be
    empty — callers decide whether an unjustified pragma is acceptable
    (it never is; see the rule implementations).
    """
    match = _LINT_PRAGMA.search(line)
    if match is None:
        return None
    return {"kind": match.group(1), "why": match.group(2).strip()}


def has_pragma(line: str, kind: str) -> bool:
    """True when ``line`` carries a *justified* pragma of ``kind``."""
    found = lint_pragma(line)
    return found is not None and found["kind"] == kind and bool(found["why"])


def ble_justification(line: str) -> Optional[str]:
    """The reason attached to a ``# noqa: BLE001`` pragma, if present.

    Returns the (possibly empty) reason string when the pragma exists,
    None when there is no pragma at all.
    """
    match = _BLE_PRAGMA.search(line)
    if match is None:
        return None
    return (match.group(1) or "").strip()
