"""Durable append-only record journal.

The journal is the ingest layer's source of truth for *what arrived
when*: every record accepted from the simulator feed or the
``POST /v1/records`` endpoint is assigned a dense monotonic offset and
appended to an fsync'd JSON-lines segment file before the caller is
acknowledged.  Layout::

    <journal>/
      segment-000000000000.jsonl   # named by its first offset
      segment-000000004096.jsonl

Each line is ``{"offset": N, "record": {tagged record dict}}`` where
the record dict is the same ``type``-tagged form the batch trace files
use -- validation goes through the shared
:func:`repro.dataset.loader.record_from_dict` gate, so a record the
journal accepts is a record the loader accepts.

Single writer, many readers.  The write path keeps the next offset in
memory and rotates segments at a record-count bound; the read path
(:meth:`RecordJournal.tail`) is stateless and re-scans the directory,
so a reader in another process (the ingest daemon tailing a journal a
serving replica writes) sees appends without coordination.  A torn
trailing line -- the crash-mid-append case -- is tolerated on both
paths: readers ignore it, and a recovering writer starts a fresh
segment after the last complete line rather than appending to the torn
file.

Every ``append``/``append_many`` call validates its whole batch, then
writes it under the journal lock and pays one fsync: offsets are
assigned under the lock and no caller is acknowledged before the fsync
that covers its records has returned.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.chaos.hooks import chaos_point
from repro.dataset.loader import record_from_dict
from repro.errors import JournalError

__all__ = ["JournalRecord", "RecordJournal"]

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jsonl"
_OFFSET_WIDTH = 12


@dataclass(frozen=True)
class JournalRecord:
    """One journaled record: its offset, kind tag, and parsed form."""

    offset: int
    kind: str
    record: object

    @property
    def raw(self) -> dict:
        """The tagged dict form (inverse of what ``append`` took)."""
        return {"type": self.kind, **self.record.to_dict()}


def _segment_name(first_offset: int) -> str:
    return f"{_SEGMENT_PREFIX}{first_offset:0{_OFFSET_WIDTH}d}{_SEGMENT_SUFFIX}"


class RecordJournal:
    """Append-only journal of attack/snapshot records.

    ``fsync=False`` trades durability for test speed; production paths
    keep the default.  Only ``attack`` and ``snapshot`` records are
    journaled -- trace metadata belongs to the base trace the journal
    extends, not to the stream.
    """

    def __init__(self, path: str | Path, *,
                 segment_max_records: int = 4096,
                 fsync: bool = True) -> None:
        if segment_max_records < 1:
            raise ValueError("segment_max_records must be >= 1")
        self.path = Path(path)
        self.segment_max_records = segment_max_records
        self.fsync = fsync
        self._lock = threading.Lock()
        self._handle = None
        self._segment_records = 0
        self.path.mkdir(parents=True, exist_ok=True)
        self._next_offset, self._torn_tail = self._recover()

    # ----- write path -----

    @property
    def next_offset(self) -> int:
        """Offset the next appended record will receive."""
        with self._lock:
            return self._next_offset

    def append(self, record: dict) -> int:
        """Validate and durably append one tagged record dict.

        Returns the offset assigned.  Raises :class:`ValueError` on a
        malformed or non-streamable record (the caller's 400), and
        :class:`~repro.errors.JournalError` on I/O failure.
        """
        first, _ = self.append_many([record])
        return first

    def append_many(self, records: list[dict]) -> tuple[int, int]:
        """Append a batch atomically-enough: validate all, then write all.

        One fsync covers the whole batch.  Returns ``(first_offset,
        next_offset)``; no record is assigned an offset unless every
        record in the batch validated.
        """
        if not records:
            raise ValueError("empty record batch")
        parsed = []
        for record in records:
            kind, _ = record_from_dict(record)
            if kind == "metadata":
                raise ValueError(
                    "metadata records are not journaled; they belong to "
                    "the base trace"
                )
            parsed.append(record)
        with self._lock:
            first = self._next_offset
            try:
                # Rotation is checked per record, not per batch, so the
                # segment bound holds even for batches larger than it
                # (the rotated-away handle is fsynced before it closes).
                for record in parsed:
                    handle = self._writable_segment()
                    line = json.dumps(
                        {"offset": self._next_offset, "record": record}
                    )
                    chaos_point("journal.write", offset=self._next_offset)
                    handle.write(line + "\n")
                    self._next_offset += 1
                    self._segment_records += 1
                handle.flush()
                chaos_point("journal.fsync", offset=self._next_offset)
                if self.fsync:
                    os.fsync(handle.fileno())
            except OSError as exc:
                raise JournalError(
                    f"journal append failed at {self.path}: {exc}"
                ) from exc
            return first, self._next_offset

    def close(self) -> None:
        """Close the active segment handle (reopened on next append)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def _writable_segment(self):
        """The open segment handle, rotating when full or torn."""
        if (self._handle is not None
                and self._segment_records >= self.segment_max_records):
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None
        if self._handle is None:
            segment = self.path / _segment_name(self._next_offset)
            self._handle = open(segment, "a", encoding="utf-8")
            self._segment_records = 0
        return self._handle

    # ----- read path (stateless; works cross-process) -----

    def segments(self) -> list[Path]:
        """Segment files on disk, in offset order."""
        return sorted(
            p for p in self.path.glob(
                f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}")
            if p.is_file()
        )

    def tail(self, since_offset: int = 0) -> Iterator[JournalRecord]:
        """Yield parsed records with ``offset >= since_offset``.

        Re-scans the directory, so appends made by another process
        after this journal object was created are visible.  A torn
        trailing line in the newest segment is skipped silently; so is
        a torn final line of an *older* segment when the next segment
        picks up exactly where the good lines left off -- that is a
        reader racing a recovering writer's truncation (the reader
        opened the segment's pre-truncation bytes after the writer had
        already started a fresh segment), not corruption.  A malformed
        line anywhere else raises :class:`~repro.errors.JournalError`.
        """
        segments = self.segments()
        for i, segment in enumerate(segments):
            last_segment = i == len(segments) - 1
            # Skip whole segments that end before the cursor: the next
            # segment's name is the first offset it holds.
            if not last_segment:
                next_first = _segment_first_offset(segments[i + 1])
                if next_first is not None and next_first <= since_offset:
                    continue
            try:
                with open(segment, "r", encoding="utf-8") as fh:
                    lines = fh.readlines()
            except OSError as exc:
                raise JournalError(
                    f"cannot read journal segment {segment}: {exc}"
                ) from exc
            last_parsed: int | None = None
            for j, line in enumerate(lines):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                    offset = int(data["offset"])
                    kind, record = record_from_dict(data["record"])
                except (ValueError, KeyError, TypeError) as exc:
                    if last_segment and j == len(lines) - 1:
                        return  # torn tail: crash mid-append, ignore
                    if (not last_segment and j == len(lines) - 1
                            and self._tail_truncation_race(
                                segment, segments[i + 1], last_parsed)):
                        break  # stale torn bytes the writer already cut
                    raise JournalError(
                        f"corrupt journal line in {segment} "
                        f"(line {j + 1}): {exc}"
                    ) from exc
                last_parsed = offset
                if offset >= since_offset:
                    yield JournalRecord(offset=offset, kind=kind,
                                        record=record)

    @staticmethod
    def _tail_truncation_race(segment: Path, next_segment: Path,
                              last_parsed: int | None) -> bool:
        """Whether a torn final line in a non-last segment is benign.

        It is exactly when the next segment continues the offset chain
        from this segment's last *good* line: the recovering writer
        truncated the torn record and opened a new segment at the next
        offset, while this reader was still holding the segment's
        pre-truncation bytes.  No acknowledged record sits in the torn
        line, so skipping it loses nothing.  Any gap in the chain means
        real corruption and stays fatal.
        """
        next_first = _segment_first_offset(next_segment)
        if next_first is None:
            return False
        if last_parsed is not None:
            return next_first == last_parsed + 1
        # Every line of this segment was torn away: the writer's fresh
        # segment then starts at this segment's own first offset.
        return next_first == _segment_first_offset(segment)

    def status(self) -> dict:
        """JSON-safe summary for ``repro ingest status`` and telemetry."""
        segments = self.segments()
        with self._lock:
            next_offset = self._next_offset
        return {
            "path": str(self.path),
            "next_offset": next_offset,
            "records": next_offset,
            "segments": len(segments),
            "bytes": sum(s.stat().st_size for s in segments),
            "torn_tail_recovered": self._torn_tail,
        }

    # ----- recovery -----

    def _recover(self) -> tuple[int, bool]:
        """Scan existing segments; return (next_offset, saw_torn_tail).

        Offsets are taken from the lines themselves (next = last good
        offset + 1), so recovery survives missing fsyncs of directory
        metadata.  A torn final line is dropped; the writer then starts
        a new segment, never appending after a torn record.
        """
        next_offset = 0
        torn = False
        segments = self.segments()
        for i, segment in enumerate(segments):
            last_segment = i == len(segments) - 1
            with open(segment, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
            good_lines: list[str] = []
            for j, line in enumerate(lines):
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    data = json.loads(stripped)
                    offset = int(data["offset"])
                    record_from_dict(data["record"])
                except (ValueError, KeyError, TypeError) as exc:
                    if last_segment and j == len(lines) - 1:
                        torn = True
                        break
                    raise JournalError(
                        f"corrupt journal line in {segment} "
                        f"(line {j + 1}): {exc}"
                    ) from exc
                good_lines.append(stripped)
                next_offset = offset + 1
            if torn:
                # Physically drop the torn tail so no future append can
                # ever land after a half-written record.
                tmp = segment.with_suffix(".tmp")
                with open(tmp, "w", encoding="utf-8") as fh:
                    for good in good_lines:
                        fh.write(good + "\n")
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, segment)
        return next_offset, torn


def _segment_first_offset(segment: Path) -> int | None:
    name = segment.name
    if not (name.startswith(_SEGMENT_PREFIX)
            and name.endswith(_SEGMENT_SUFFIX)):
        return None
    digits = name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
    try:
        return int(digits)
    except ValueError:
        return None
