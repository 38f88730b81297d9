"""Crash-consistent checkpoint journal for campaign work units.

A campaign that dies three hours in — coordinator OOM, machine reboot,
SIGKILL — currently forfeits every completed solve.  The journal is an
append-only JSONL write-ahead log of completed
:class:`~repro.exec.UnitResult`\\ s: each record is fsync'd before the
coordinator considers the unit durable, records are chained with
blake2b digests so silent damage is detected rather than replayed, and
a truncated final line (the expected shape of a crash mid-write) is
tolerated while any *earlier* damage raises a precise
:class:`~repro.errors.JournalCorruptionError`.

Resume (:func:`read_journal` + ``run_campaign(resume_from=...)``) skips
the journaled units; because every unit re-derives its fault/RNG
streams from its own label, the resumed half computes exactly what an
uninterrupted run would have, and the merged canonical JSON is
bit-identical.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..errors import JournalCorruptionError, JournalError
from ..obs import runtime as _obs
from ..obs.clock import monotonic
from .units import UnitResult

#: Journal format version; bumped on any incompatible record change.
JOURNAL_VERSION = 2

#: Digest size (bytes) of the blake2b record chain.
_DIGEST_SIZE = 16

#: Seed of the digest chain — the header's ``prev`` value.
_CHAIN_ROOT = "journal-root"


def _record_digest(prev: str, body: str) -> str:
    """Chain digest of a record: blake2b over (prev digest + body)."""
    return hashlib.blake2b((prev + "\n" + body).encode("utf-8"),
                           digest_size=_DIGEST_SIZE).hexdigest()


def _encode_body(record: Dict[str, object]) -> str:
    """Canonical JSON of a record minus its ``digest`` field."""
    body = {key: value for key, value in record.items()
            if key != "digest"}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def unit_fingerprint(names: Tuple[str, ...], job: str) -> str:
    """Identity of a campaign for journal/resume compatibility checks.

    A journal written by one campaign must not silently satisfy
    another: the fingerprint hashes the job kind plus the ordered unit
    labels, so resuming with a different benchmark set, method, or
    decomposition fails fast with a :class:`~repro.errors.JournalError`
    instead of merging foreign results.
    """
    payload = job + "\x00" + "\x00".join(names)
    return hashlib.blake2b(payload.encode("utf-8"),
                           digest_size=_DIGEST_SIZE).hexdigest()


@dataclass
class JournalRecovery:
    """What :func:`read_journal` salvaged from a journal file.

    Attributes:
        meta: The header's metadata mapping (includes ``fingerprint``).
        results: Completed units keyed by submission index.
        records: Number of unit records that verified.
        truncated: True when the final line was incomplete and was
            dropped (the normal signature of a crash mid-append).
        tail_digest: Chain digest of the last verified record, for
            appending further records to the same chain.
    """

    meta: Dict[str, object] = field(default_factory=dict)
    results: Dict[int, UnitResult] = field(default_factory=dict)
    records: int = 0
    truncated: bool = False
    tail_digest: str = _CHAIN_ROOT


def read_journal(path: str) -> JournalRecovery:
    """Verify and load a campaign journal.

    Walks the record chain front to back re-deriving every digest.  A
    record that fails to parse or verify is tolerated only when it is
    the *final* line of the file (truncated tail); anywhere else it
    raises :class:`~repro.errors.JournalCorruptionError` naming the
    record.  Two records for the same unit index must carry identical
    payloads (idempotent replay of a crashed append) — conflicting
    duplicates are corruption, never a silent last-writer-wins.
    """
    if not os.path.exists(path):
        raise JournalError(f"journal not found: {path}")
    with open(path, "rb") as handle:
        raw_lines = handle.read().split(b"\n")
    if raw_lines and raw_lines[-1] == b"":
        raw_lines.pop()

    recovery = JournalRecovery()
    prev = _CHAIN_ROOT
    for line_index, raw in enumerate(raw_lines):
        is_last = line_index == len(raw_lines) - 1
        try:
            record = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            if is_last:
                recovery.truncated = True
                break
            raise JournalCorruptionError(
                f"journal record {line_index} is unparseable "
                f"mid-file ({exc}); refusing to skip records",
                record_index=line_index) from exc
        if not isinstance(record, dict):
            if is_last:
                recovery.truncated = True
                break
            raise JournalCorruptionError(
                f"journal record {line_index} is not an object; "
                "refusing to skip records",
                record_index=line_index)

        digest = record.get("digest")
        expected = _record_digest(prev, _encode_body(record))
        if digest != expected:
            if is_last:
                # A crash can truncate the digest field itself; the
                # record was never acknowledged, so drop it.
                recovery.truncated = True
                break
            raise JournalCorruptionError(
                f"journal record {line_index} fails its chain digest "
                f"(file damaged or edited)", record_index=line_index)

        kind = record.get("kind")
        if line_index == 0:
            if kind != "header":
                raise JournalCorruptionError(
                    "journal does not start with a header record",
                    record_index=0)
            if record.get("version") != JOURNAL_VERSION:
                raise JournalError(
                    f"unsupported journal version "
                    f"{record.get('version')!r} "
                    f"(expected {JOURNAL_VERSION})")
            recovery.meta = dict(record.get("meta", {}))
        elif kind == "unit":
            index = record["index"]
            payload = base64.b64decode(record["payload"])
            result = pickle.loads(payload)
            previous = recovery.results.get(index)
            if previous is not None:
                if pickle.dumps(previous) != payload:
                    raise JournalCorruptionError(
                        f"journal record {line_index} duplicates unit "
                        f"{index} ({record.get('unit')!r}) with a "
                        f"conflicting payload",
                        record_index=line_index)
                # Identical replay of an acknowledged append: keep one.
            else:
                recovery.results[index] = result
                recovery.records += 1
        else:
            raise JournalCorruptionError(
                f"journal record {line_index} has unknown kind "
                f"{kind!r}", record_index=line_index)
        prev = digest
        recovery.tail_digest = digest
    return recovery


class JournalWriter:
    """Append-only, fsync'd writer of the campaign unit journal.

    Every :meth:`append` serializes the :class:`UnitResult`, chains it
    to the previous record, writes one JSONL line, flushes, and
    fsyncs — only then is the unit considered durable.  Construction
    with ``resume=False`` truncates any existing file and writes a
    fresh header; ``resume=True`` verifies the existing chain via
    :func:`read_journal` and continues appending to its tail.
    """

    def __init__(self, path: str, meta: Optional[Mapping[str, object]]
                 = None, resume: bool = False) -> None:
        self.path = path
        self.completed: Dict[int, UnitResult] = {}
        if resume:
            recovery = read_journal(path)
            expected = (meta or {}).get("fingerprint")
            found = recovery.meta.get("fingerprint")
            if expected is not None and found != expected:
                raise JournalError(
                    f"journal {path} belongs to a different campaign "
                    f"(fingerprint {found!r}, expected {expected!r})")
            self.completed = dict(recovery.results)
            self._prev = recovery.tail_digest
            if recovery.truncated:
                # Drop the unacknowledged tail so appends extend a
                # clean chain.
                self._truncate_to_verified(recovery)
            self._handle = open(path, "ab")
        else:
            self._prev = _CHAIN_ROOT
            self._handle = open(path, "wb")
            header = {
                "kind": "header",
                "version": JOURNAL_VERSION,
                "meta": dict(meta or {}),
            }
            self._write(header)

    def _truncate_to_verified(self, recovery: JournalRecovery) -> None:
        """Rewrite the file keeping only the verified chain prefix."""
        with open(self.path, "rb") as handle:
            lines = handle.read().split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        verified = []
        prev = _CHAIN_ROOT
        for raw in lines:
            try:
                record = json.loads(raw.decode("utf-8"))
                digest = record.get("digest")
            except (ValueError, UnicodeDecodeError):
                break
            if digest != _record_digest(prev, _encode_body(record)):
                break
            verified.append(raw)
            prev = digest
        with open(self.path, "wb") as handle:
            for raw in verified:
                handle.write(raw + b"\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _write(self, record: Dict[str, object]) -> None:
        """Chain, append, flush, and fsync one record."""
        body = _encode_body(record)
        record = dict(record)
        record["digest"] = _record_digest(self._prev, body)
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":"))
        with _obs.span("exec.journal", str(record.get("kind"))):
            self._handle.write(line.encode("utf-8") + b"\n")
            self._handle.flush()
            if _obs.STATE.enabled:
                metrics = _obs.get_metrics()
                started = monotonic()
                os.fsync(self._handle.fileno())
                metrics.histogram("journal.fsync_seconds").observe(
                    monotonic() - started)
                metrics.counter("journal.records").inc()
            else:
                os.fsync(self._handle.fileno())
        self._prev = record["digest"]

    def append(self, result: UnitResult) -> None:
        """Durably record one completed unit (idempotent per index)."""
        if result.index in self.completed:
            return
        payload = pickle.dumps(result)
        self._write({
            "kind": "unit",
            "index": result.index,
            "unit": result.name,
            "payload": base64.b64encode(payload).decode("ascii"),
        })
        self.completed[result.index] = result

    def close(self) -> None:
        """Close the underlying file handle (idempotent)."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


__all__ = [
    "JOURNAL_VERSION",
    "JournalRecovery",
    "JournalWriter",
    "read_journal",
    "unit_fingerprint",
]
