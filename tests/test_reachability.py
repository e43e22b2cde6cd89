"""Structural guard: every ``src/repro`` module is reachable from the CLI.

Walks the static import graph from ``repro.__main__``, counting the
function-local imports the CLI uses to load each artifact lazily, and
fails when a module is neither reached nor listed in :data:`UNREACHED`.
A module no command imports is either a test fixture or dead code:
wire it into a command, delete it, or list it here with the reason it
stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules no command imports, and why they stay.
UNREACHED = {
    "repro.vpu.reference": "oracle: the cycle-stepping pipeline the "
                           "scheduler is pinned byte-identical against",
    "repro.sim.golden": "oracle: the functional model the simulator's "
                        "buffers are checked against",
    "repro.sim.trace": "the equivalence suite's per-uop recorder",
}


def _modules():
    """Dotted name -> source path of every module under ``src/repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imported(name, path, modules):
    """The modules ``name`` imports anywhere in its source, with their
    parent packages (importing ``a.b.c`` runs ``a`` and ``a.b`` too)."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}".rstrip(".")
            # ``from a import b`` may name a submodule ``a.b``.
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            while target:
                if target in modules:
                    found.add(target)
                target = target.rpartition(".")[0]
    return found


def _reached(modules, root="repro.__main__"):
    reached, todo = {root}, [root]
    while todo:
        name = todo.pop()
        for child in _imported(name, modules[name], modules) - reached:
            reached.add(child)
            todo.append(child)
    return reached


def test_every_module_is_reached_from_the_cli_or_listed():
    modules = _modules()
    reached = _reached(modules)
    assert sorted(set(modules) - reached - set(UNREACHED)) == []


def test_the_unreached_list_names_only_unreached_modules():
    """A listed module that a command now imports must leave the list."""
    modules = _modules()
    assert set(UNREACHED) <= set(modules)
    assert sorted(set(UNREACHED) & _reached(modules)) == []
