"""The lint driver: self-hosting, rule selection, --json, registry."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (LINT_JSON_SCHEMA, default_lint_paths,
                            register_rule, rule_codes, run_lint)
from repro.analysis.registry import get_rule

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# Self-hosting: the analyzer's own subject is this repository.
# ---------------------------------------------------------------------------
def test_self_lint_clean():
    """Every rule, the whole package, zero findings — the gate CI enforces."""
    result = run_lint(default_lint_paths(REPO_ROOT))
    assert result.findings == [], "\n".join(f.render()
                                            for f in result.findings)
    assert result.exit_code == 0
    assert result.files_checked > 50
    assert result.rules_run == rule_codes()


def test_cli_lint_exits_nonzero_with_file_line_findings():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(FIXTURES / "f002_bad.py"),
         "--rules", "F002"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        cwd=REPO_ROOT)
    assert proc.returncode == 1
    assert "f002_bad.py:5: F002" in proc.stdout


def test_cli_lint_rejects_unknown_rule_family():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--rules", "Q"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        cwd=REPO_ROOT)
    assert proc.returncode == 2
    assert "no lint rules in family" in proc.stderr


# ---------------------------------------------------------------------------
# Rule selection.
# ---------------------------------------------------------------------------
def test_rule_selection_by_code_and_family():
    by_code = run_lint([FIXTURES / "d001_bad.py"], rules=["D001"])
    assert by_code.rules_run == ["D001"]
    by_family = run_lint([FIXTURES / "d001_bad.py"], rules=["D"])
    assert by_family.rules_run == ["D001", "D002"]
    overlapping = run_lint([FIXTURES / "d001_bad.py"],
                           rules=["D", "D001", "D002"])
    assert overlapping.rules_run == ["D001", "D002"]  # deduped, stable order
    with pytest.raises(KeyError):
        run_lint([FIXTURES / "d001_bad.py"], rules=["Q"])
    with pytest.raises(KeyError):
        run_lint([FIXTURES / "d001_bad.py"], rules=["Q123"])


# ---------------------------------------------------------------------------
# --json: a stable machine-readable shape.
# ---------------------------------------------------------------------------
def test_json_report_shape():
    result = run_lint([FIXTURES / "f001_bad.py"], rules=["F001"],
                      as_json=True)
    payload = json.loads(result.output)
    assert payload["schema"] == LINT_JSON_SCHEMA
    assert payload["files_checked"] == 1
    assert payload["rules"] == ["F001"]
    assert payload["count"] == 3 == len(payload["findings"])
    first = payload["findings"][0]
    assert set(first) == {"path", "line", "code", "message"}
    assert first["code"] == "F001"
    # sorted by (path, line): the findings arrive in line order.
    assert [f["line"] for f in payload["findings"]] == [7, 14, 21]


def test_text_report_summary_line():
    result = run_lint([FIXTURES / "f002_bad.py"], rules=["F002"])
    lines = result.output.splitlines()
    assert lines[-1] == "repro lint: 1 finding (1 files, rules: F002)"
    assert lines[0].endswith(result.findings[0].render().split(": ", 1)[1])


# ---------------------------------------------------------------------------
# Registry: collisions fail loudly, like workload registration.
# ---------------------------------------------------------------------------
def test_duplicate_rule_code_is_rejected(registries):
    before = rule_codes()
    original = get_rule("D001")
    with pytest.raises(ValueError, match="already registered"):
        @register_rule("D001", name="imposter", summary="shadowing")
        def imposter(sources):
            return []
    # The failed registration mutated nothing.
    assert rule_codes() == before
    assert get_rule("D001") is original
