"""Single-source package version.

The authoritative version lives in ``pyproject.toml``.  Source checkouts
(``PYTHONPATH=src``) read it from the sibling ``pyproject.toml``; only an
installed copy, which has no such file beside it, imports
:mod:`importlib.metadata` to read it back from the dist-info.  Either way
there is exactly one place to bump.
"""

from __future__ import annotations

import re
from pathlib import Path

_DIST_NAME = "repro-ava"


def _from_pyproject() -> str | None:
    pyproject = Path(__file__).resolve().parent.parent.parent / "pyproject.toml"
    try:
        text = pyproject.read_text()
    except OSError:
        return None
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    return match.group(1) if match else None


def _resolve() -> str:
    version = _from_pyproject()
    if version is not None:
        return version
    from importlib import metadata
    try:
        return metadata.version(_DIST_NAME)
    except metadata.PackageNotFoundError:
        return "0.0.0+unknown"


__version__ = _resolve()
