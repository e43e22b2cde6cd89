"""Per-rule contract: each bad fixture trips exactly its rule at the
documented lines; each good twin comes back clean."""

from pathlib import Path

import pytest

from repro.analysis import run_lint

FIXTURES = Path(__file__).parent / "fixtures"


def _findings(name, rules):
    result = run_lint([FIXTURES / name], rules=rules)
    return result, result.findings


def _lines(findings, code):
    return sorted(f.line for f in findings if f.code == code)


# ---------------------------------------------------------------------------
# Good twins: clean under their rule family.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name,rules", [
    ("d001_good.py", ["D001"]),
    ("d002_good.py", ["D002"]),
    ("k001_good.py", ["K001"]),
    ("k002_good.py", ["K002"]),
    ("s001_good.py", ["S001"]),
    ("s002_good.py", ["S002"]),
    ("f001_good.py", ["F001"]),
    ("f002_good.py", ["F002"]),
])
def test_good_fixture_is_clean(name, rules):
    result, findings = _findings(name, rules)
    assert findings == []
    assert result.exit_code == 0


# ---------------------------------------------------------------------------
# Bad twins: every planted violation found, nothing else.
# ---------------------------------------------------------------------------
def test_d001_catches_every_entropy_category():
    result, findings = _findings("d001_bad.py", ["D001"])
    assert result.exit_code == 1
    # import random / time.time / uuid.uuid4 / np.random.random /
    # unseeded default_rng / os.getenv / datetime.now / os.environ.
    assert _lines(findings, "D001") == [2, 12, 13, 14, 15, 16, 17, 18]


def test_d002_catches_set_iteration_in_every_position():
    _, findings = _findings("d002_bad.py", ["D002"])
    assert _lines(findings, "D002") == [5, 7, 9]


def test_k001_flags_the_unserialized_field_only():
    _, findings = _findings("k001_bad.py", ["K001"])
    assert _lines(findings, "K001") == [10]
    assert "bogus_new_axis" in findings[0].message


def test_k002_flags_the_dropped_from_dict_field():
    _, findings = _findings("k002_bad.py", ["K002"])
    assert _lines(findings, "K002") == [9]
    assert "aggressive_reclamation" in findings[0].message


def test_s001_flags_shape_drift_and_payload_drift():
    _, findings = _findings("s001_bad.py", ["S001"])
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert any("without a CACHE_SCHEMA bump" in m for m in messages)
    assert any("result payload keys" in m for m in messages)


def test_s001_flags_a_stale_lock_after_a_bump():
    _, findings = _findings("s001_bumped_stale_lock.py", ["S001"])
    assert len(findings) == 1
    assert "regenerate the schema lock" in findings[0].message


def test_rendered_schema_lock_reproduces_every_locked_constant():
    """Pasting ``render_lock()``'s output over the lock leaves all three
    constants S001 reads as they are committed (the tree is in sync)."""
    from repro.analysis import schema_lock
    rendered: dict = {}
    exec(schema_lock.render_lock(), {}, rendered)
    assert rendered == {
        "LOCKED_CACHE_SCHEMA": schema_lock.LOCKED_CACHE_SCHEMA,
        "LOCKED_SIMSTATS_FIELDS": schema_lock.LOCKED_SIMSTATS_FIELDS,
        "LOCKED_RESULT_KEYS": schema_lock.LOCKED_RESULT_KEYS,
    }


def test_s002_flags_the_slotless_hot_path_class():
    _, findings = _findings("s002_bad.py", ["S002"])
    assert len(findings) == 1
    assert "MicroOp" in findings[0].message


def test_f001_flags_unjustified_and_unreasoned_handlers():
    _, findings = _findings("f001_bad.py", ["F001"])
    assert _lines(findings, "F001") == [7, 14, 21]
    by_line = {f.line: f for f in findings}
    assert "without a # noqa: BLE001" in by_line[7].message
    assert "empty reason" in by_line[14].message
    # A TODO placeholder is no reason at all.
    assert by_line[21].message == by_line[14].message


def test_f002_flags_only_the_non_infrastructure_exception():
    _, findings = _findings("f002_bad.py", ["F002"])
    assert _lines(findings, "F002") == [5]
    assert "ValueError" in findings[0].message


# ---------------------------------------------------------------------------
# Scope: the D-rules are allowlisted by sub-package, not by pragma.
# ---------------------------------------------------------------------------
def test_d_rules_skip_the_allowlisted_subpackages(tmp_path):
    bad = (FIXTURES / "d001_bad.py").read_text()
    exempt = tmp_path / "src" / "repro" / "faults" / "plans.py"
    exempt.parent.mkdir(parents=True)
    exempt.write_text(bad)
    covered = tmp_path / "src" / "repro" / "vpu" / "plans.py"
    covered.parent.mkdir(parents=True)
    covered.write_text(bad)
    assert run_lint([exempt], rules=["D"]).findings == []
    assert run_lint([covered], rules=["D"]).findings != []


def test_syntax_error_becomes_a_finding(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n")
    result = run_lint([broken], rules=["D001"])
    assert result.exit_code == 1
    assert [f.code for f in result.findings] == ["E001"]
