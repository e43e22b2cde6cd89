"""Source collection and shared AST context for the lint rules.

A :class:`SourceFile` bundles everything a rule needs — the parsed AST,
the raw lines (for pragma lookups) and scope classification — so each
file is read and parsed exactly once per lint run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

#: Sub-packages of ``repro`` whose code must be deterministic (D-rules).
#: ``repro.faults`` and ``repro.experiments`` are deliberately absent:
#: fault plans seed themselves and executors measure wall-clock time.
DETERMINISTIC_PACKAGES = frozenset({
    "sim", "vpu", "core", "compiler", "isa", "scalar", "memory", "power",
    "workloads",
})


@dataclass
class SourceFile:
    """One parsed Python source file under analysis."""

    path: Path
    text: str
    tree: ast.Module
    #: Path relative to the repo's ``src`` directory when the file lives
    #: under ``src/repro``; otherwise the path as given.
    relpath: str
    #: ``repro`` sub-package name ("sim", "vpu", ...) or None for files
    #: outside the package (explicitly passed fixtures).
    subpackage: Optional[str]
    lines: List[str] = field(default_factory=list)

    def line(self, lineno: int) -> str:
        """1-based source line, empty string when out of range."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    @property
    def deterministic_scope(self) -> bool:
        """True when the D-rules apply to this file.

        Files inside ``src/repro`` are in scope iff they belong to one of
        the deterministic sub-packages; files outside the package (test
        fixtures passed explicitly) are always in scope — the fixture is
        standing in for core code.
        """
        if self.subpackage is None:
            return "repro" not in Path(self.relpath).parts
        return self.subpackage in DETERMINISTIC_PACKAGES


def _classify(path: Path) -> tuple[str, Optional[str]]:
    parts = path.resolve().parts
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        rel = "/".join(parts[idx:])
        inner = parts[idx + 1:-1]
        sub = inner[0] if inner else None
        return rel, sub
    return str(path), None


def load_source(path: Path) -> SourceFile:
    """Read and parse one file (raises SyntaxError on unparsable input)."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    relpath, subpackage = _classify(path)
    return SourceFile(path=path, text=text, tree=tree, relpath=relpath,
                      subpackage=subpackage, lines=text.splitlines())


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
