"""The source-tree hasher behind both cache keys' code components.

``engine.code_fingerprint`` (result keys) and
``compiler.store.compile_code_fingerprint`` (trace keys) are both
:func:`repro.cachefs.source_digest` over different trees, so one contract
covers them: equal sources hash equal, and any edit, rename, addition or
deletion of a ``*.py`` file changes the digest.
"""

import hashlib
from pathlib import Path

import pytest

from repro import cachefs
from repro.cachefs import source_digest
from repro.compiler.store import compile_code_fingerprint
from repro.experiments.engine import code_fingerprint

_PACKAGE = Path(cachefs.__file__).parent


def _reference_digest(root: Path, trees) -> str:
    """The documented layout, spelled out independently: per tree, sorted
    ``*.py`` paths, each as package-relative path, NUL, bytes."""
    h = hashlib.sha256()
    for tree in trees:
        for path in sorted((root / tree).rglob("*.py")):
            h.update(str(path.relative_to(root)).encode() + b"\0"
                     + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("trees", [("",), ("compiler", "isa", "scalar")],
                         ids=["package", "compile-trees"])
def test_source_digest_hashes_paths_and_bytes_in_sorted_order(trees):
    assert source_digest(trees) == _reference_digest(_PACKAGE, trees)


def test_both_code_fingerprints_are_source_digests():
    assert code_fingerprint() == source_digest()
    assert compile_code_fingerprint() == source_digest(
        ("compiler", "isa", "scalar"))
    assert code_fingerprint() != compile_code_fingerprint()


def _fake_package(root: Path, files) -> Path:
    for rel, text in files:
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


_SOURCES = [("a.py", "x = 1\n"), ("sub/b.py", "y = 2\n"),
            ("sub/c.py", "z = 3\n")]


def _edit(root: Path) -> None:
    (root / "a.py").write_text("x = 2\n")


def _rename(root: Path) -> None:
    (root / "sub" / "b.py").rename(root / "sub" / "b2.py")


def _add(root: Path) -> None:
    (root / "sub" / "d.py").write_text("")


def _delete(root: Path) -> None:
    (root / "sub" / "c.py").unlink()


@pytest.mark.parametrize("change", [_edit, _rename, _add, _delete],
                         ids=["edit", "rename", "add", "delete"])
def test_source_digest_tracks_every_source_change(tmp_path, monkeypatch,
                                                  change):
    root = _fake_package(tmp_path / "pkg", _SOURCES)
    monkeypatch.setattr(cachefs, "__file__", str(root / "cachefs.py"))
    before = source_digest()
    assert source_digest() == before  # stable while nothing changes
    change(root)
    assert source_digest() != before


def test_source_digest_ignores_creation_order_and_non_python_files(
        tmp_path, monkeypatch):
    forward = _fake_package(tmp_path / "fwd", _SOURCES)
    backward = _fake_package(tmp_path / "bwd", reversed(_SOURCES))
    (backward / "notes.txt").write_text("not a source\n")
    (backward / "sub" / "data.json").write_text("{}\n")
    digests = []
    for root in (forward, backward):
        monkeypatch.setattr(cachefs, "__file__", str(root / "cachefs.py"))
        digests.append(source_digest())
    assert digests[0] == digests[1]
