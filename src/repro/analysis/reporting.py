"""Finding objects and the text / JSON reporters for ``repro lint``."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List

#: Version stamp of the ``--json`` output shape; bump on any key change.
LINT_JSON_SCHEMA = 2


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a file and line."""

    path: str
    line: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def render_text(findings: List[Finding], *, files_checked: int,
                rules_run: List[str]) -> str:
    """Human-readable report, one ``file:line: CODE message`` per finding."""
    lines = [f.render() for f in sorted(findings)]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"repro lint: {len(findings)} {noun} "
                 f"({files_checked} files, rules: {', '.join(rules_run)})")
    return "\n".join(lines)


def render_json(findings: List[Finding], *, files_checked: int,
                rules_run: List[str]) -> str:
    """Machine-readable report (stable key order, one JSON object)."""
    payload: Dict = {
        "schema": LINT_JSON_SCHEMA,
        "files_checked": files_checked,
        "rules": sorted(rules_run),
        "count": len(findings),
        "findings": [
            {"path": f.path, "line": f.line, "code": f.code,
             "message": f.message}
            for f in sorted(findings)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
