"""Compiled programs pinned across commits.

``data/compile_digests.json`` records, for every registered workload and
every figure3 compile signature, the program fingerprint, the allocation
summary and the program ``meta``.  A compiler rewrite that changes a single
instruction, spill or register count fails here.

A deliberate compiler or workload change regenerates the file in the same
change, from the repository root::

    PYTHONPATH=src python -m tests.compiler.test_compile_digests
"""

import json
from pathlib import Path

import pytest

from repro.compiler.signature import CompileSignature
from repro.experiments.engine import program_fingerprint
from repro.workloads import get_workload
from repro.workloads.registry import registered_names
from tests.experiments.test_engine import _figure3_signatures

DIGESTS = Path(__file__).parent / "data" / "compile_digests.json"


def _digest(name: str, signature: CompileSignature) -> dict:
    compiled = get_workload(name).compile(signature)
    return {"program_fingerprint": program_fingerprint(compiled.program),
            "allocation": compiled.allocation.to_dict(),
            "meta": compiled.program.meta}


def _all_digests() -> dict:
    return {f"{name}@{sig.label}": _digest(name, sig)
            for name in registered_names() for sig in _figure3_signatures()}


@pytest.mark.parametrize("name", registered_names())
def test_compile_matches_pinned_digest(name):
    pinned = json.loads(DIGESTS.read_text())
    for signature in _figure3_signatures():
        key = f"{name}@{signature.label}"
        assert _digest(name, signature) == pinned[key], key


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(_all_digests(), indent=1, sort_keys=True)
                       + "\n")
