"""Structural guard: every ``src/repro`` module and definition is reached.

Two levels.  Modules: walks the static import graph from
``repro.__main__``, counting the function-local imports the CLI uses to
load each artifact lazily, and fails when a module is neither reached
nor listed in :data:`UNREACHED`.  Definitions: every top-level function
and class method of a reached module must be named somewhere in
``src/repro`` or ``examples`` (see :func:`_names`), be a dunder, or
carry a ``register_*`` decorator; otherwise it is listed in
:data:`UNCALLED`.  A module or definition only tests reach is either a
test fixture or dead code: wire it in, delete it, or list it here with
the reason it stays.

The definition check works by name, so it errs one way only: a dead
definition can hide behind a live one of the same name, but a
definition named anywhere is never flagged.
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
    "repro.compiler.store": "perfbench/ledger.py hooks TraceStore by name",
}

_DSL = "kernel-DSL op that README's \"Adding a workload\" offers plugins"
_RENDERER = "the CLI dispatches it as getattr(tables, f\"render_{artifact}\")"
_LEDGER = "perfbench/ledger.py hooks it by name"
_LISTING = "listing half of a preset registry that README documents"

#: Definitions of reached modules that nothing in ``src/repro`` or
#: ``examples`` names, and why they stay.
UNCALLED = {
    "repro.analysis.schema_lock.render_lock":
        "the regeneration tool that lint rule S001's message prescribes",
    "repro.experiments.engine.program_fingerprint": _LEDGER,
    "repro.experiments.tables.render_table1": _RENDERER,
    "repro.experiments.tables.render_table2": _RENDERER,
    "repro.experiments.tables.render_table3": _RENDERER,
    "repro.experiments.tables.render_table5": _RENDERER,
    "repro.isa.builder.KernelBuilder.broadcast": _DSL,
    "repro.isa.builder.KernelBuilder.bxor": _DSL,
    "repro.isa.builder.KernelBuilder.iota": _DSL,
    "repro.isa.builder.KernelBuilder.le": _DSL,
    "repro.isa.builder.KernelBuilder.rsqrt": _DSL,
    "repro.isa.builder.KernelBuilder.scatter": _DSL,
    "repro.isa.builder.KernelBuilder.sll": _DSL,
    "repro.isa.builder.KernelBuilder.srl": _DSL,
    "repro.memory.presets.memory_system_names": _LISTING,
    "repro.sim.simulator.Simulator.from_trace": _LEDGER,
    "repro.vpu.params.timing_names": _LISTING,
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


def _names():
    """Every name ``src/repro`` and ``examples`` use: ``Name`` ids,
    ``Attribute`` attrs, import aliases and string constants (lazy
    export tables map names as strings)."""
    names = set()
    paths = (sorted((SRC / "repro").rglob("*.py"))
             + sorted((SRC.parent / "examples").glob("*.py")))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
                if node.asname:
                    names.add(node.asname)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                names.add(node.value)
    return names


def _registers(node):
    """Does ``node`` carry a registering (``register_*``) decorator?"""
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        name = getattr(decorator, "id", getattr(decorator, "attr", ""))
        if name.startswith("register_"):
            return True
    return False


def _definitions(modules):
    """Qualified name -> node of every top-level function and class
    method of each module not in :data:`UNREACHED`."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = {}
    for name, path in modules.items():
        if name in UNREACHED:
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, functions):
                found[f"{name}.{node.name}"] = node
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, functions):
                        found[f"{name}.{node.name}.{member.name}"] = member
    return found


def _uncalled(definitions):
    names = _names()
    return {qualified for qualified, node in definitions.items()
            if node.name not in names
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and not _registers(node)}


def test_every_definition_is_named_outside_the_tests_or_listed():
    assert sorted(_uncalled(_definitions(_modules())) - set(UNCALLED)) == []


def test_the_uncalled_list_names_only_unnamed_definitions():
    """A listed definition that was deleted, or that ``src`` or an
    example now names, must leave the list."""
    definitions = _definitions(_modules())
    assert set(UNCALLED) <= set(definitions)
    assert sorted(set(UNCALLED) - _uncalled(definitions)) == []
