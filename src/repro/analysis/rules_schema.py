"""S-rules: cache-schema synchronisation and hot-path ``__slots__``.

* **S001** — the serialized shapes (``SimStats`` fields, the per-cell
  result payload keys) must match the committed schema lock; changing
  either without bumping ``CACHE_SCHEMA`` *and* regenerating the lock is
  a finding.  See :mod:`repro.analysis.schema_lock` for the protocol.
* **S002** — classes in the hot-path registry
  (:data:`repro.analysis.hotpath.HOT_PATH_CLASSES`) must declare
  ``__slots__`` (directly or via ``@dataclass(slots=True)``) or carry a
  justified ``# lint: slots-exempt(<why>)`` pragma.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.analysis import schema_lock
from repro.analysis.hotpath import HOT_PATH_CLASSES
from repro.analysis.pragmas import SLOTS_EXEMPT, has_pragma
from repro.analysis.registry import register_rule
from repro.analysis.reporting import Finding
from repro.analysis.walker import SourceFile


def _simstats_fields_from_ast(node: ast.ClassDef) -> List[str]:
    out = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name) and \
                not stmt.target.id.startswith("_"):
            out.append(stmt.target.id)
    return out


def _cache_schema_from_ast(src: SourceFile) -> Optional[int]:
    for node in src.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and \
                        target.id == "CACHE_SCHEMA" and \
                        isinstance(node.value, ast.Constant):
                    return int(node.value.value)
    return None


def _run_cell_payload_keys(src: SourceFile) -> Optional[List[str]]:
    """String keys of the dict literal ``_run_cell`` returns, if defined."""
    for node in src.tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "_run_cell":
            for sub in ast.walk(node):
                if isinstance(sub, ast.Return) and \
                        isinstance(sub.value, ast.Dict):
                    keys = [k.value for k in sub.value.keys
                            if isinstance(k, ast.Constant) and
                            isinstance(k.value, str)]
                    if keys:
                        return keys
    return None


@register_rule("S001", name="schema-sync",
               summary="SimStats / result-payload shape changes require a "
                       "CACHE_SCHEMA bump and a regenerated schema lock")
def check_schema_sync(sources: List[SourceFile]) -> Iterable[Finding]:
    locked_fields = tuple(schema_lock.LOCKED_SIMSTATS_FIELDS)
    locked_schema = schema_lock.LOCKED_CACHE_SCHEMA
    locked_keys = tuple(schema_lock.LOCKED_RESULT_KEYS)

    schema: Optional[int] = None
    schema_src: Optional[SourceFile] = None
    schema_line = 1
    stats_node: Optional[ast.ClassDef] = None
    stats_src: Optional[SourceFile] = None
    payload_keys: Optional[List[str]] = None
    payload_src: Optional[SourceFile] = None

    for src in sources:
        value = _cache_schema_from_ast(src)
        if value is not None:
            schema, schema_src = value, src
            for node in src.tree.body:
                if isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "CACHE_SCHEMA"
                        for t in node.targets):
                    schema_line = node.lineno
        keys = _run_cell_payload_keys(src)
        if keys is not None:
            payload_keys, payload_src = keys, src
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ClassDef) and node.name == "SimStats":
                stats_node, stats_src = node, src

    if stats_node is not None and stats_src is not None:
        live = tuple(_simstats_fields_from_ast(stats_node))
        if live != locked_fields:
            if schema is not None and schema != locked_schema:
                yield Finding(
                    stats_src.relpath, stats_node.lineno, "S001",
                    "SimStats shape changed and CACHE_SCHEMA was bumped; "
                    "regenerate the schema lock "
                    "(repro.analysis.schema_lock.render_lock())")
            else:
                added = sorted(set(live) - set(locked_fields))
                removed = sorted(set(locked_fields) - set(live))
                yield Finding(
                    stats_src.relpath, stats_node.lineno, "S001",
                    f"SimStats shape changed (added={added}, "
                    f"removed={removed}) without a CACHE_SCHEMA bump; "
                    f"stale cache entries would deserialize into the "
                    f"wrong shape")
        elif schema is not None and schema != locked_schema and \
                schema_src is not None:
            yield Finding(
                schema_src.relpath, schema_line, "S001",
                f"CACHE_SCHEMA is {schema} but the schema lock was "
                f"generated against {locked_schema}; regenerate the lock")

    if payload_keys is not None and payload_src is not None:
        if tuple(payload_keys) != locked_keys:
            yield Finding(
                payload_src.relpath, 1, "S001",
                f"_run_cell result payload keys {payload_keys} differ "
                f"from the locked shape {list(locked_keys)}; bump "
                f"CACHE_SCHEMA and regenerate the schema lock")


def _has_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__slots__"
                   for t in stmt.targets):
                return True
        elif isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name) and \
                stmt.target.id == "__slots__":
            return True
    for deco in node.decorator_list:
        if isinstance(deco, ast.Call):
            for kw in deco.keywords:
                if kw.arg == "slots" and \
                        isinstance(kw.value, ast.Constant) and \
                        kw.value.value is True:
                    return True
    return False


def _slots_exempt(src: SourceFile, node: ast.ClassDef) -> bool:
    linenos = [node.lineno] + [d.lineno for d in node.decorator_list]
    return any(has_pragma(src.line(n), SLOTS_EXEMPT) for n in linenos)


@register_rule("S002", name="hot-path-slots",
               summary="hot-path registry classes must declare __slots__ "
                       "or be slots-exempt")
def check_hot_path_slots(sources: List[SourceFile]) -> Iterable[Finding]:
    for src in sources:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ClassDef) and \
                    node.name in HOT_PATH_CLASSES:
                if not _has_slots(node) and not _slots_exempt(src, node):
                    yield Finding(
                        src.relpath, node.lineno, "S002",
                        f"hot-path class {node.name} has no __slots__ "
                        f"(add one, or # lint: slots-exempt(<why>))")
