"""Crash-safe, integrity-checked JSON file stores shared by the caches.

Both persistent stores — the engine's :class:`~repro.experiments.engine.
ResultCache` (cell results) and the compiler's :class:`~repro.compiler.
store.TraceStore` (compiled instruction traces) — need the same disk
discipline:

* one JSON file per key, written atomically (tempfile + ``os.replace``)
  so concurrent processes can share a store directory;
* an embedded sha256 content checksum, verified on every read: an entry
  whose bytes rotted (or were damaged by a crashed writer slipping past
  the atomic rename) is *quarantined* — moved to ``quarantine/`` for
  post-mortem — and reads as a miss, never as silently-wrong data;
* graceful degradation when the directory is unwritable (read-only
  filesystem, ENOSPC): the payload lands in an in-process overlay, one
  warning is emitted, and the run keeps going — a broken disk costs
  persistence, never results;
* tempfiles orphaned by SIGKILL-ed writers reaped opportunistically, past
  a grace window so in-flight writers are never raced;
* entries chmod-ed to what a plain ``open()`` would have produced under
  the process umask, so a shared directory serves every user the umask
  promises to serve.

Stores are unbounded: nothing is evicted, and ``repro cache clear``
prunes them.  :class:`AtomicJsonStore` owns all of it; subclasses add
only their schema check (:meth:`AtomicJsonStore._validate`), payload
shapes and a :data:`AtomicJsonStore.FAULT_SITE` name for the
fault-injection layer (:mod:`repro.faults`) to address them by.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import tempfile
import time
import warnings
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from repro import faults

#: Default on-disk location of the persistent result cache.
DEFAULT_CACHE_DIR = ".repro-cache"

_PROCESS_UMASK: Optional[int] = None


def source_digest(trees: Sequence[str] = ("",)) -> str:
    """sha256 over the ``repro`` sources under ``trees`` (package-relative
    directories; the default is the whole package), the cache keys' code
    component.

    Each ``*.py`` file contributes its package-relative path, a NUL and
    its bytes, in sorted order per tree, so equal sources always hash
    equal and any edit, rename or added file changes the digest.
    """
    root = Path(__file__).parent
    h = hashlib.sha256()
    for tree in trees:
        for path in sorted((root / tree).rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def process_umask() -> int:
    """The process umask, read once and reused for every store write.

    POSIX only exposes the umask by *setting* it, and that flip is
    process-global — concurrent executors flipping it per ``put`` could
    observe each other's transient zero.  Reading it a single time per
    process keeps every later write race-free (a process that changes its
    umask mid-run keeps the startup value, which is the documented
    shared-store contract).
    """
    global _PROCESS_UMASK
    if _PROCESS_UMASK is None:
        umask = os.umask(0)
        os.umask(umask)
        _PROCESS_UMASK = umask
    return _PROCESS_UMASK


class AtomicJsonStore:
    """Content-addressed JSON store: one checksummed file per key.

    On disk each entry is a wrapper object ``{"sha256": <digest>,
    "body": <payload JSON as a string>}`` — the digest covers the exact
    body bytes, so verification never depends on re-canonicalising the
    payload.  Reads verify the digest and quarantine mismatches; writes
    are atomic (tempfile + ``os.replace``) so concurrent processes can
    share a store directory.  A writer killed between ``mkstemp`` and
    ``os.replace`` leaves a ``*.tmp`` orphan behind; those are reaped by
    :meth:`clear` (past a short grace, so in-flight writers are never
    raced) and — once per store instance, for stale ones — on :meth:`put`.
    """

    #: A ``*.tmp`` older than this is an orphan from a killed writer, not
    #: a concurrent in-flight write, and may be reaped.
    TMP_MAX_AGE_S = 3600.0

    #: :meth:`clear` reaps tempfiles past this much shorter grace — long
    #: enough that a concurrent writer between ``mkstemp`` and
    #: ``os.replace`` (milliseconds) is never raced, short enough that an
    #: explicit wipe still takes recent orphans with it.
    CLEAR_GRACE_S = 60.0

    #: Where integrity failures go for post-mortem (a subdirectory, so
    #: ``*.json`` globs over the store root never see them).
    QUARANTINE_SUBDIR = "quarantine"

    #: Site name :mod:`repro.faults` cache specs match against.
    FAULT_SITE = "store"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.quarantined = 0
        self._swept = False
        self._mem: Dict[str, dict] = {}
        self._warned_unwritable = False

    # -- layout ----------------------------------------------------------------
    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def quarantine_dir(self) -> Path:
        return self.root / self.QUARANTINE_SUBDIR

    def stats(self) -> Tuple[int, int]:
        """(number of entries, total bytes) currently on disk."""
        entries = 0
        size = 0
        if self.root.is_dir():
            for entry in self.root.glob("*.json"):
                try:
                    size += entry.stat().st_size
                except OSError:
                    continue  # deleted concurrently
                entries += 1
        return entries, size

    # -- orphan reaping --------------------------------------------------------
    def sweep_orphans(self, max_age_s: Optional[float] = None) -> int:
        """Reap tempfiles abandoned by SIGKILL-ed writers; returns a count.

        Only files older than ``max_age_s`` (default
        :data:`TMP_MAX_AGE_S`) go, so a concurrent writer mid-``put`` is
        never raced; pass ``0`` to reap unconditionally.
        """
        if max_age_s is None:
            max_age_s = self.TMP_MAX_AGE_S
        cutoff = time.time() - max_age_s
        removed = 0
        if self.root.is_dir():
            for entry in self.root.glob("*.tmp"):
                try:
                    if max_age_s <= 0 or entry.stat().st_mtime <= cutoff:
                        entry.unlink()
                        removed += 1
                except OSError:
                    pass  # another process reaped (or finished) it first
        return removed

    # -- payload validation ----------------------------------------------------
    def _validate(self, payload: dict) -> bool:
        """Subclass hook: is this payload structurally sound (right schema,
        required sections present)?  Failing entries read as misses."""
        return True

    # -- read ------------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """The stored payload, or None.

        Misses cover the full damage taxonomy: absent files, integrity
        failures (undecodable bytes, checksum mismatch — quarantined on
        sight), entries from before the checksum format (``legacy``) and
        schema-failing payloads (``stale``).  The caller re-derives;
        nothing a store can contain crashes a read.
        """
        payload, _ = self._read(key)
        if payload is not None:
            return payload
        return self._mem.get(key)

    def _read(self, key: str) -> Tuple[Optional[dict], str]:
        """(payload, status) — status is one of ``ok`` / ``absent`` /
        ``quarantined`` / ``legacy`` / ``stale``."""
        path = self.path(key)
        try:
            raw = path.read_text()
        except OSError:
            return None, "absent"
        try:
            wrapper = json.loads(raw)
        except ValueError:
            self._quarantine(key)
            return None, "quarantined"
        if not (isinstance(wrapper, dict)
                and isinstance(wrapper.get("sha256"), str)
                and isinstance(wrapper.get("body"), str)):
            # Pre-checksum formats (and foreign JSON) are stale, not
            # corrupt: a miss, but nothing worth a post-mortem.
            return None, "legacy"
        body = wrapper["body"]
        if hashlib.sha256(body.encode()).hexdigest() != wrapper["sha256"]:
            self._quarantine(key)
            return None, "quarantined"
        try:
            payload = json.loads(body)
        except ValueError:
            # The digest matched, so the writer itself stored a non-JSON
            # body — damaged at write time: same post-mortem bucket.
            self._quarantine(key)
            return None, "quarantined"
        if not isinstance(payload, dict) or not self._validate(payload):
            return None, "stale"
        return payload, "ok"

    def _quarantine(self, key: str) -> bool:
        """Move a damaged entry to the quarantine directory (same
        filesystem, atomic); count it.  On an unwritable store the entry
        stays put — it still reads as a miss either way."""
        try:
            qdir = self.quarantine_dir()
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(self.path(key), qdir / f"{key}.json")
        except OSError:
            return False
        self.quarantined += 1
        return True

    def verify(self) -> Dict[str, int]:
        """Check every entry's integrity; quarantine what fails.

        Returns counts: ``entries`` scanned, ``ok``, ``quarantined``
        (integrity failures moved aside), ``stale`` (wrong schema),
        ``legacy`` (pre-checksum format).  Safe to run concurrently with
        readers and writers — every individual step is atomic.
        """
        counts = {"entries": 0, "ok": 0, "quarantined": 0, "stale": 0,
                  "legacy": 0}
        if not self.root.is_dir():
            return counts
        for entry in sorted(self.root.glob("*.json")):
            payload, status = self._read(entry.stem)
            if status == "absent":
                continue  # deleted concurrently: nothing to verify
            counts["entries"] += 1
            counts[status] += 1
        return counts

    # -- write -----------------------------------------------------------------
    def put(self, key: str, payload: dict) -> None:
        """Persist a payload under ``key`` — or, if the store directory
        is unwritable (read-only filesystem, disk full), fall back to an
        in-process overlay with a single warning and keep going."""
        try:
            self._put_disk(key, payload)
        except OSError as exc:
            self._mem[key] = payload
            if not self._warned_unwritable:
                self._warned_unwritable = True
                warnings.warn(
                    f"cache at {self.root} is unwritable ({exc}); "
                    f"continuing with in-memory results — this run's new "
                    f"cells will not persist", RuntimeWarning,
                    stacklevel=3)

    def _put_disk(self, key: str, payload: dict) -> None:
        plan = faults.active_plan()
        fault = plan.cache_fault(self.FAULT_SITE, key) if plan else None
        if fault == faults.CACHE_READONLY:
            raise OSError(errno.EROFS,
                          "injected fault: read-only file system",
                          str(self.root))
        self.root.mkdir(parents=True, exist_ok=True)
        if not self._swept:
            # Opportunistic orphan reaping, once per store instance so the
            # directory scan never becomes a per-put cost on hot sweeps.
            self._swept = True
            self.sweep_orphans()
        # Insertion order, not sort_keys: the digest covers the body's
        # exact bytes (no canonical form needed), and consumers reload
        # dicts in the order the writer built them — allocation payloads
        # are replayed in that order.
        body = json.dumps(payload)
        digest = hashlib.sha256(body.encode()).hexdigest()
        if fault == faults.CACHE_CORRUPT:
            # Bit rot in miniature: the entry lands structurally intact
            # but its digest can never match — verify-on-read must catch
            # and quarantine it.
            digest = ("0" * 8) + digest[8:]
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump({"sha256": digest, "body": body}, fh)
                if fault == faults.CACHE_ENOSPC:
                    raise OSError(errno.ENOSPC,
                                  "injected fault: no space left on device",
                                  str(self.root))
            # mkstemp creates the file 0600; widen to what a plain open()
            # would have produced under the process umask, or entries
            # written by one user are unreadable to the other processes the
            # shared-directory contract promises to serve.
            os.chmod(tmp, 0o666 & ~process_umask())
            os.replace(tmp, self.path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- clear -----------------------------------------------------------------
    def clear(self) -> int:
        """Delete every entry plus orphaned tempfiles; returns how many
        files were removed.

        Safe against concurrent writers: the entry list is snapshotted up
        front and gated on the clear's start time, so an entry committed
        *while* the clear runs — a just-finished cell from a live
        executor — is never deleted, and a racing unlink (two concurrent
        clears) is not an error.  Tempfiles younger than
        :data:`CLEAR_GRACE_S` survive: one may be a concurrent writer
        mid-``put``, and unlinking it would crash that writer's
        ``os.replace`` — entries, by contrast, can go at any age because
        replacing over a deleted path is safe.
        """
        removed = 0
        started = time.time()
        if self.root.is_dir():
            for entry in list(self.root.glob("*.json")):
                try:
                    if entry.stat().st_mtime > started:
                        continue  # committed after the clear began
                    entry.unlink()
                except OSError:
                    continue  # a concurrent clear beat us to it
                removed += 1
            removed += self.sweep_orphans(max_age_s=self.CLEAR_GRACE_S)
        self._mem.clear()
        return removed
