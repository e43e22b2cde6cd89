"""Structural guard: the timing stack never reads the machine family.

``MachineConfig.mode`` (NATIVE / AVA / RG) prices area and energy; what a
machine simulates follows from its register counts, MVL and lanes alone.
So configurations that differ only in ``mode`` simulate identically, and
one simulation can serve all of them.  This test keeps that premise true:
a module of the simulator, memory system or compiler that reads ``.mode``
or names ``MachineMode`` fails here.  The scenario layer serialises the
field and is the one exemption.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"
GUARDED = ("vpu", "memory", "compiler", "sim")
EXEMPT = {"sim/scenario.py"}


def _guarded_modules():
    for sub in GUARDED:
        for path in sorted((PACKAGE / sub).rglob("*.py")):
            rel = path.relative_to(PACKAGE).as_posix()
            if rel not in EXEMPT:
                yield rel


def _mode_reads(source: str) -> list:
    """``line: what`` for every ``.mode`` read or ``MachineMode`` name."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("mode",
                                                             "MachineMode"):
            hits.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id == "MachineMode":
            hits.append(f"{node.lineno}: MachineMode")
        elif isinstance(node, ast.alias) and \
                node.name.split(".")[-1] == "MachineMode":
            hits.append(f"{node.lineno}: import MachineMode")
    return hits


@pytest.mark.parametrize("module", list(_guarded_modules()))
def test_module_does_not_read_the_machine_mode(module):
    hits = _mode_reads((PACKAGE / module).read_text())
    assert not hits, f"{module} reads the machine family: {hits}"


def test_guard_sees_every_spelling():
    source = ("from repro.core.config import MachineMode\n"
              "x = config.mode is config_mod.MachineMode.AVA\n"
              "y = MachineMode.RG\n")
    assert len(_mode_reads(source)) == 4


def test_the_exemption_is_still_needed():
    assert _mode_reads((PACKAGE / "sim" / "scenario.py").read_text())
    assert len(list(_guarded_modules())) > 10
