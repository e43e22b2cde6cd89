"""Persistent, content-addressed store of compiled instruction traces.

No command reads or writes this store: each pair job of
:mod:`repro.experiments.engine` compiles its program where it simulates,
because a load cost about as much as the compile it replaced.  The module
stays while ``perfbench/ledger.py`` hooks :class:`TraceStore` by name.

The trace-based-model decoupling: a compiled :class:`~repro.isa.program.
Program` depends only on the workload's kernel side and a
:class:`~repro.compiler.signature.CompileSignature`, never on the
machine-side scenario axes a sweep actually varies — so the trace is an
*input artifact* of simulation, compiled once per signature per repo and
replayed by every run, process and pool worker that needs it.

Layout mirrors the engine's ``ResultCache`` (same crash-safe tempfile-
rename and umask discipline, via :class:`~repro.cachefs.AtomicJsonStore`):
one JSON file per key under ``.repro-cache/traces/``, keyed by a hash of

* :data:`TRACE_SCHEMA` and the repro version,
* a fingerprint of the compiler-side sources (``compiler``/``isa``/
  ``scalar`` trees) — any change to the lowering pipeline invalidates
  every stored trace, the same conservatism ``ResultCache`` applies,
* the workload's :meth:`~repro.workloads.base.Workload.
  compile_fingerprint` (kernel body, strip shape, buffers),
* the compile signature.

Corrupt, truncated or stale-schema entries read as misses: the caller
recompiles and overwrites, never crashes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.cachefs import AtomicJsonStore, source_digest
from repro.compiler.allocator import AllocationResult
from repro.compiler.signature import CompileSignature
from repro.isa.program import Program

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.workloads.base import CompiledWorkload, Workload

#: Trace payload layout version, bumped on any serialization change —
#: versioned alongside the engine's ``CACHE_SCHEMA`` but independent of it:
#: results and traces invalidate on different schedules.
TRACE_SCHEMA = 1

#: Subdirectory of the result-cache root holding the trace store.
TRACE_SUBDIR = "traces"

DEFAULT_TRACE_DIR = Path(".repro-cache") / TRACE_SUBDIR

_COMPILE_CODE_FINGERPRINT: Optional[str] = None


def compile_code_fingerprint() -> str:
    """Hash of the compile-pipeline sources, computed once per process.

    Narrower than the engine's whole-package ``code_fingerprint`` on
    purpose: a trace is produced by the ``compiler``/``isa`` trees plus the
    ``scalar`` loop-cost model, so only edits there can change it.  Editing
    the simulator must invalidate cached *results* but may keep replaying
    stored traces — that asymmetry is what makes the store survive
    sim-side development.
    """
    global _COMPILE_CODE_FINGERPRINT
    if _COMPILE_CODE_FINGERPRINT is None:
        _COMPILE_CODE_FINGERPRINT = source_digest(
            ("compiler", "isa", "scalar"))
    return _COMPILE_CODE_FINGERPRINT


def trace_key_payload(compile_fingerprint: str,
                      signature: CompileSignature) -> dict:
    """The hashed body of :func:`trace_key`, given the workload's
    :meth:`~repro.workloads.base.Workload.compile_fingerprint`."""
    from repro import __version__

    return {
        "schema": TRACE_SCHEMA,
        "repro": __version__,
        "compile_code": compile_code_fingerprint(),
        "workload": compile_fingerprint,
        "signature": signature.to_dict(),
    }


def trace_key(workload: "Workload", signature: CompileSignature) -> str:
    """Content address of one compiled trace."""
    payload = trace_key_payload(workload.compile_fingerprint(), signature)
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class TraceStore(AtomicJsonStore):
    """Compiled traces on disk, one JSON file per content-addressed key."""

    #: Fault-injection site name (:mod:`repro.faults` cache specs match
    #: on it): trace writes are ``site="traces"``, cell results
    #: ``site="results"``.
    FAULT_SITE = "traces"

    def __init__(self, root: Union[str, Path] = DEFAULT_TRACE_DIR) -> None:
        super().__init__(root)

    def _validate(self, payload: dict) -> bool:
        return (payload.get("schema") == TRACE_SCHEMA
                and isinstance(payload.get("program"), dict)
                and isinstance(payload.get("allocation"), dict))

    def key(self, workload: "Workload",
            signature: CompileSignature) -> str:
        return trace_key(workload, signature)

    def put_trace(self, key: str, compiled: "CompiledWorkload") -> None:
        self.put(key, {
            "schema": TRACE_SCHEMA,
            "signature": compiled.signature.to_dict(),
            "program": compiled.program.to_dict(),
            "allocation": compiled.allocation.to_dict(),
        })

    def load(self, key: str) -> Optional["CompiledWorkload"]:
        """The stored compilation, or None — any defect reads as a miss.

        The schema gate lives in :meth:`_validate`; payloads that pass it
        but are deeply mangled (bad opcode names, missing fields) raise
        during reconstruction and are treated the same way, so a damaged
        store can only cost a recompile, never an error.
        """
        payload = self.get(key)
        if payload is None:
            return None
        from repro.workloads.base import CompiledWorkload
        try:
            program = Program.from_dict(payload["program"])
            allocation = AllocationResult.from_dict(payload["allocation"],
                                                    insts=program.insts)
            signature = CompileSignature.from_dict(payload["signature"])
        except (KeyError, TypeError, ValueError):
            return None
        return CompiledWorkload(program=program, allocation=allocation,
                                signature=signature)
