"""K-rules: cache-key completeness for the scenario/signature dataclasses.

The persistent caches are only sound if every field that can change a
result reaches the hash.  The cell key hashes the *full scenario*
(machine + timing + memory + policy), which holds exactly as long as the
serialization layer keeps up with the dataclasses.  These rules make the
contract mechanical:

* **K001** — every declared field of a key dataclass (:class:`Scenario`,
  :class:`TimingParams`, :class:`MemorySystemConfig`, :class:`CellPolicy`,
  :class:`CompileSignature`) must appear as a key somewhere in the real
  serialized cache-key payload, or carry an explicit
  ``# lint: key-exempt(<why>)`` pragma on its definition line.  The payload
  key set is computed by *running* the live key derivations — the engine's
  ``cell_key_payload`` and the trace store's ``trace_key_payload`` — so
  the rule can never drift from the hash input it polices.
* **K002** — a key dataclass that hand-writes ``from_dict`` must mention
  every declared field inside it (a dropped field deserializes to its
  default and silently collides cache entries).  Classes deserialized by
  generic kwargs-splat reflection (``TimingParams(**data)``) are exempt by
  construction.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.pragmas import KEY_EXEMPT, has_pragma
from repro.analysis.registry import register_rule
from repro.analysis.reporting import Finding
from repro.analysis.walker import SourceFile

#: Dataclasses whose fields must reach cache-key hashing.
KEY_CLASSES = frozenset({
    "Scenario", "TimingParams", "MemorySystemConfig", "CellPolicy",
    "CompileSignature",
})


def _class_fields(node: ast.ClassDef) -> List[Tuple[str, int]]:
    """(name, lineno) of each annotated field in a dataclass body."""
    out: List[Tuple[str, int]] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            name = stmt.target.id
            if not name.startswith("_") and not name.isupper():
                out.append((name, stmt.lineno))
    return out


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = getattr(target, "id", None) or getattr(target, "attr", None)
        if name == "dataclass":
            return True
    return False


def _key_payload_names() -> Set[str]:
    """Key names reachable in the real cache-key payloads, flattened.

    Computed by running the live key derivations — the result cache's
    cell-key payload (scenario included) and the trace store's payload
    (compile signature included) — so the rule polices the actual hash
    input, not a parallel list that could rot.  The workload fingerprint
    is a stand-in string: it is a hash, not a dict, and building a real
    kernel here would make the rule depend on the workload registry.
    """
    from repro.compiler.signature import CompileSignature
    from repro.compiler.store import trace_key_payload
    from repro.core.config import ava_config
    from repro.experiments.engine import Cell, cell_key_payload
    from repro.sim.scenario import Scenario

    def flatten(value, out: Set[str]) -> None:
        if isinstance(value, dict):
            for key, sub in value.items():
                out.add(str(key))
                flatten(sub, out)

    config = ava_config(2)
    names: Set[str] = set()
    flatten(cell_key_payload(Cell("axpy", Scenario(machine=config)),
                             "compile-fingerprint"), names)
    flatten(trace_key_payload("compile-fingerprint",
                              CompileSignature.from_config(config)), names)
    return names


def _target_classes(src: SourceFile) -> Iterable[ast.ClassDef]:
    for node in ast.walk(src.tree):
        if isinstance(node, ast.ClassDef) and node.name in KEY_CLASSES \
                and _is_dataclass(node):
            yield node


@register_rule("K001", name="key-coverage",
               summary="every field of a cache-key dataclass reaches the "
                       "serialized key payload or is key-exempt")
def check_key_coverage(sources: List[SourceFile]) -> Iterable[Finding]:
    payload: Optional[Set[str]] = None
    for src in sources:
        for node in _target_classes(src):
            for name, lineno in _class_fields(node):
                if has_pragma(src.line(lineno), KEY_EXEMPT):
                    continue
                if payload is None:
                    payload = _key_payload_names()
                if name not in payload:
                    yield Finding(
                        src.relpath, lineno, "K001",
                        f"field {node.name}.{name} never reaches the "
                        f"cache-key payload; serialize it or mark it "
                        f"# lint: key-exempt(<why>)")


def _from_dict_names(node: ast.ClassDef) -> Optional[Set[str]]:
    """Identifier-ish names mentioned inside ``from_dict``, or None."""
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "from_dict":
            names: Set[str] = set()
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Constant) and \
                        isinstance(sub.value, str):
                    names.add(sub.value)
                elif isinstance(sub, ast.keyword) and sub.arg:
                    names.add(sub.arg)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
            return names
    return None


@register_rule("K002", name="key-roundtrip",
               summary="a hand-written from_dict on a cache-key dataclass "
                       "restores every declared field")
def check_key_roundtrip(sources: List[SourceFile]) -> Iterable[Finding]:
    for src in sources:
        for node in _target_classes(src):
            mentioned = _from_dict_names(node)
            if mentioned is None:
                continue  # generic kwargs-splat construction
            for name, lineno in _class_fields(node):
                if has_pragma(src.line(lineno), KEY_EXEMPT):
                    continue
                if name not in mentioned:
                    yield Finding(
                        src.relpath, lineno, "K002",
                        f"{node.name}.from_dict never restores field "
                        f"{name!r}; a serialized value would silently "
                        f"fall back to the default")
