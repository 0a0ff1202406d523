"""Checkpoint store of finished results: atomic write-then-rename JSON.

Planning keeps each finished result through a :class:`Checkpointer` —
the monolithic consolidation, each completed shard of the hierarchical
tier, each failure what-if case — so a killed run resumes them
bit-identically instead of computing them again; what was in flight is
recomputed, and every search is a pure function of its seeds, so the
plan is the same. The store is deliberately boring:

* one JSON document per key, written to a temp file in the same
  directory and ``os.replace``d into place — a ``kill -9`` mid-write
  leaves either the previous complete document or a stray temp file,
  never a torn checkpoint;
* loads treat *any* malformed document as absent (the result is
  recomputed; correctness never depends on a checkpoint being present);
* saves degrade instead of raising — a full disk (or an injected
  :class:`~repro.engine.faults.InjectedCheckpointFailure`) costs
  resumability, not the run. Failures are counted on the attached
  instrumentation as ``checkpoint.write_failures``.

Keys are hierarchical (``"failure/web+db"``); each key maps to a flat
filename built from a readable sanitised prefix plus a digest of the
raw key, so distinct keys never share a file and no key escapes the
checkpoint directory. The raw key stored inside every document is
verified on load.

A store can additionally carry an input ``fingerprint`` — a digest of
the planning inputs the checkpoints were computed from. Every save
embeds it and every load rejects documents whose fingerprint differs,
so re-running against changed traces, seeds, or configuration can never
silently resume another problem's state.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Optional

from repro.engine.faults import InjectedFault
from repro.engine.instrumentation import Instrumentation
from repro.exceptions import ConfigurationError

_SUFFIX = ".ckpt.json"
_TMP_SUFFIX = ".ckpt.tmp"
_READABLE_PREFIX_CHARS = 64


def _escape_key(key: str) -> str:
    """Map a checkpoint key to one safe, collision-free flat filename.

    The sanitised prefix keeps the directory human-readable; the
    appended digest of the raw key is what guarantees distinct keys
    land in distinct files (``"a/b"`` and ``"a_b"`` sanitise alike but
    digest apart).
    """
    if not key:
        raise ConfigurationError("checkpoint key must be non-empty")
    readable = "".join(
        char if char.isalnum() or char in "-_.+" else "_" for char in key
    )
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]
    return f"{readable[:_READABLE_PREFIX_CHARS]}.{digest}"


class Checkpointer:
    """Atomic per-key JSON persistence of finished planning results."""

    def __init__(
        self,
        directory: os.PathLike[str] | str,
        *,
        instrumentation: Optional[Instrumentation] = None,
        fault_hook: Optional[Callable[[], None]] = None,
        fingerprint: Optional[str] = None,
    ):
        """``fault_hook`` runs before every write; the fault-injection
        harness uses it to make saves fail deterministically.

        ``fingerprint`` identifies the inputs the checkpoints describe
        (see the module docstring); owners that know their inputs (the
        :class:`~repro.core.framework.ROpus` facade) set it before
        planning so stale documents read as absent. ``None`` disables
        the check.
        """
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.instrumentation = instrumentation
        self.fault_hook = fault_hook
        self.fingerprint = fingerprint

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.directory / (_escape_key(key) + _SUFFIX)

    def save(self, key: str, payload: dict[str, Any]) -> bool:
        """Persist ``payload`` under ``key``; returns whether it stuck.

        The write is journaling: the document lands in a temp file
        first and is renamed over the previous version atomically.
        Failures (I/O errors, injected faults) are swallowed after
        counting — a lost checkpoint only costs resume coverage.
        """
        path = self._path(key)
        tmp = path.with_name(_escape_key(key) + _TMP_SUFFIX)
        try:
            if self.fault_hook is not None:
                self.fault_hook()
            document = json.dumps(
                {
                    "key": key,
                    "fingerprint": self.fingerprint,
                    "payload": payload,
                }
            )
            with open(tmp, "w") as handle:
                handle.write(document)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except (OSError, TypeError, ValueError, InjectedFault):
            self._count("checkpoint.write_failures")
            return False
        finally:
            # After a successful rename the temp file is gone and the
            # unlink is a no-op; on *any* failure — including the
            # exceptions the handler above does not swallow, like a
            # KeyboardInterrupt mid-write — it removes the stray file.
            try:
                tmp.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - best-effort cleanup
                self._count("checkpoint.tmp_cleanup_failures")
        self._count("checkpoint.writes")
        return True

    def load(self, key: str) -> Optional[dict[str, Any]]:
        """The payload stored under ``key``, or ``None``.

        Missing, truncated, or otherwise malformed documents all read
        as absent — as do documents whose stored raw key differs from
        ``key`` (a filename collision from an older escaping scheme) or
        whose fingerprint differs from this store's (checkpoints from a
        different planning problem). Resume never trusts a checkpoint
        it cannot fully verify, it just recomputes the step.
        """
        try:
            text = self._path(key).read_text()
        except OSError:
            return None
        try:
            document = json.loads(text)
            payload = document["payload"]
        except (ValueError, KeyError, TypeError):
            self._count("checkpoint.corrupt_reads")
            return None
        if not isinstance(payload, dict):
            self._count("checkpoint.corrupt_reads")
            return None
        if document.get("key") != key:
            self._count("checkpoint.key_mismatches")
            return None
        if (
            self.fingerprint is not None
            and document.get("fingerprint") != self.fingerprint
        ):
            self._count("checkpoint.fingerprint_mismatches")
            return None
        self._count("checkpoint.reads")
        return payload

    def exists(self, key: str) -> bool:
        return self._path(key).exists()

    def delete(self, key: str) -> None:
        try:
            self._path(key).unlink(missing_ok=True)
        except OSError:  # pragma: no cover - best-effort cleanup
            self._count("checkpoint.delete_failures")

    def keys(self) -> list[str]:
        """Raw keys currently stored (diagnostic use).

        Keys are read back out of the documents themselves (filenames
        are digests); unreadable documents are skipped.
        """
        keys: list[str] = []
        for entry in self.directory.glob(f"*{_SUFFIX}"):
            try:
                stored = json.loads(entry.read_text()).get("key")
            except (OSError, ValueError, AttributeError):
                continue
            if isinstance(stored, str):
                keys.append(stored)
        return sorted(keys)

    def clear(self) -> None:
        """Delete every stored document (end-of-run rotation).

        Called after a planning run completes successfully: its
        checkpoints have served their purpose, and leaving them behind
        would let a later run against different inputs find documents
        it must then reject (or, without a fingerprint, wrongly trust).
        """
        for pattern in (f"*{_SUFFIX}", f"*{_TMP_SUFFIX}"):
            for entry in self.directory.glob(pattern):
                try:
                    entry.unlink(missing_ok=True)
                except OSError:  # pragma: no cover - best-effort cleanup
                    self._count("checkpoint.delete_failures")
        self._count("checkpoint.clears")

    # ------------------------------------------------------------------
    def _count(self, name: str, increment: float = 1) -> None:
        if self.instrumentation is not None:
            self.instrumentation.count(name, increment)


__all__ = ["Checkpointer"]
