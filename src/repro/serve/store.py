"""Indexed, content-addressed pattern store layered over :mod:`repro.io.store`.

Flat ``.npz`` libraries are fine for handing a result to one user, but a
service accumulating patterns across many requests needs deduplication and
querying.  The ``LibraryStore`` keeps one single-pattern ``.npz`` object
(written with :func:`repro.io.store.save_library`) per *unique* squish
topology, keyed by a content hash of ``(style, topology)``, plus a JSON
index holding the queryable characteristics: style, topology size, physical
size and legality.  Duplicate topologies — common when many requests ask
for the same styles — are counted, not re-stored.

Durability contract (the crash-safety half of this module):

- A **commit** (``add()``, or ``add_library()`` for a whole library) costs
  no more as the store grows: the object file is written and fsynced
  (with its shard directory, and ``objects/`` when the shard is new), then
  one JSONL record per pattern is appended to ``journal.jsonl`` and
  fsynced, and only then does the in-memory index mutate.  Once ``add()``
  returns, the pattern survives a process crash *and* a power loss:
  everything it needs at boot — object bytes, directory entries, journal
  line — reached the disk before the ack.
- A **checkpoint** publishes the index atomically — temp file written,
  fsynced, ``os.replace``d, parent directory fsynced — stamps the journal
  high-water mark (``journal_seq``) into the payload, and then truncates
  the journal.  It rewrites every record, so it runs only at
  :meth:`LibraryStore.close`, at boot after a replay, and after a commit
  once the journal holds as many entries as the last checkpoint
  published: checkpoints fall at 1, 2, 4, 8, … records, and the O(N)
  rewrite is paid once per N commits.
- Between checkpoints ``index.json`` lags the store; the journal holds
  the difference.  Boot replays journal entries *newer* than the index's
  ``journal_seq`` (tolerating a torn trailing line from a mid-append
  crash), so whether the process crashed or the machine lost power, an
  acked add is never lost.  Replays are counted in
  ``repro_store_journal_replays_total``.

Named fault sites (``store.object_write``, ``store.journal_append``,
``store.journal_sync``, ``store.flush_tmp``, ``store.flush_publish``,
``store.flush_compact``) let the chaos suite kill the process at every
step of that protocol — the ``flush_*`` sites inside a checkpoint — and
property-test the recovery.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro import faults
from repro.io.store import load_library, save_library
from repro.obs.metrics import default_metrics
from repro.squish.pattern import PatternLibrary, SquishPattern

_INDEX_NAME = "index.json"
_JOURNAL_NAME = "journal.jsonl"
_INDEX_VERSION = 1


def pattern_content_hash(pattern: SquishPattern) -> str:
    """Content hash of a squish topology under its style tag.

    Two patterns with the same style and the same topology matrix hash
    equally even when their delta vectors differ: topology identity is what
    the paper's diversity metric (Eq. 8) counts, so it is the right dedup
    granularity — the first-seen geometry is the one kept on disk.
    """
    digest = hashlib.sha256()
    digest.update(str(pattern.style).encode("utf-8"))
    digest.update(b"|")
    rows, cols = pattern.topology.shape
    digest.update(f"{rows}x{cols}|".encode("ascii"))
    digest.update(np.ascontiguousarray(pattern.topology, dtype=np.uint8).tobytes())
    return digest.hexdigest()


@dataclass
class StoreRecord:
    """Index entry: the queryable characteristics of one stored pattern."""

    content_hash: str
    style: Optional[str]
    rows: int
    cols: int
    physical_width: int
    physical_height: int
    legal: Optional[bool]
    file: str
    duplicates: int = 0

    def as_dict(self) -> Dict:
        return {
            "content_hash": self.content_hash,
            "style": self.style,
            "rows": self.rows,
            "cols": self.cols,
            "physical_width": self.physical_width,
            "physical_height": self.physical_height,
            "legal": self.legal,
            "file": self.file,
            "duplicates": self.duplicates,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "StoreRecord":
        return cls(**data)


@dataclass
class StoreReport:
    """Outcome of adding a batch of patterns."""

    added: int = 0
    deduplicated: int = 0
    hashes: List[str] = field(default_factory=list)


class LibraryStore:
    """Content-hash-indexed pattern store rooted at a directory.

    One instance is safe for concurrent use from many threads (a reentrant
    lock guards index mutations) and persistent: re-opening the same root
    reads the JSON index back and replays the journal over it.  Use a
    single instance per root — each instance caches the index in memory,
    appends to one journal and rewrites the index wholesale at each
    checkpoint, so two live instances on the same directory would clobber
    each other's entries.
    """

    def __init__(self, root: Union[str, Path], metrics=None):
        self.root = Path(root)
        objects = self.root / "objects"
        if not objects.is_dir():
            objects.mkdir(parents=True, exist_ok=True)
            self._fsync_dir(self.root)
        self._lock = threading.RLock()
        self._records: Dict[str, StoreRecord] = {}
        self._journal = None
        self._journal_seq = 0
        # Checkpoint bookkeeping: records the last published index holds,
        # and journal entries appended since (see _maybe_checkpoint).
        self._published = 0
        self._pending = 0
        self.metrics = metrics if metrics is not None else default_metrics()
        self._m_added = self.metrics.counter(
            "repro_store_added_total", "Unique patterns written to the store"
        )
        self._m_deduplicated = self.metrics.counter(
            "repro_store_deduplicated_total",
            "Patterns deduplicated against an existing topology",
        )
        self._m_unique = self.metrics.gauge(
            "repro_store_unique_patterns", "Unique patterns in the store index"
        )
        self._m_replays = self.metrics.counter(
            "repro_store_journal_replays_total",
            "Journal entries replayed at boot (acked adds newer than the index)",
        )
        self._load_index()
        #: Journal entries applied during this boot (0 after a clean stop).
        self.journal_replayed = self._replay_journal()
        self._m_unique.set(len(self._records))
        self._published = len(self._records)
        if self.journal_replayed:
            self._m_replays.inc(self.journal_replayed)
            with self._lock:
                self._flush()

    # -- persistence ---------------------------------------------------

    @property
    def index_path(self) -> Path:
        return self.root / _INDEX_NAME

    @property
    def journal_path(self) -> Path:
        return self.root / _JOURNAL_NAME

    def close(self) -> None:
        """Checkpoint, then release the journal file handle.

        Every acked add is already durable in the journal, so ``close``
        adds no durability: it publishes ``index.json`` with every record
        (skipped when nothing was journaled since the last checkpoint) and
        truncates the journal, so the next boot replays nothing.  A store
        that is never closed — a crashed process, a lost machine — loses
        no acked add either; its next boot replays the journal instead.
        """
        with self._lock:
            if self._pending:
                self._flush()
            if self._journal is not None:
                self._journal.close()
                self._journal = None

    def _load_index(self) -> None:
        if not self.index_path.exists():
            return
        payload = json.loads(self.index_path.read_text())
        for entry in payload.get("patterns", []):
            record = StoreRecord.from_dict(entry)
            self._records[record.content_hash] = record
        self._journal_seq = int(payload.get("journal_seq", 0))

    def _replay_journal(self) -> int:
        """Apply journal entries newer than the index; returns the count.

        A torn trailing line (crash mid-append, before the fsync was
        acked) terminates the replay: nothing after it was acknowledged
        to a caller, so dropping it is correct, not lossy.
        """
        if not self.journal_path.exists():
            return 0
        index_seq = self._journal_seq
        max_seq = self._journal_seq
        applied = 0
        with open(self.journal_path, "r", encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                    seq = int(entry["seq"])
                    op = entry["op"]
                except (ValueError, KeyError, TypeError):
                    break
                if seq <= index_seq:
                    continue
                if op == "add":
                    record = StoreRecord.from_dict(entry["record"])
                    self._records.setdefault(record.content_hash, record)
                elif op == "dup":
                    record = self._records.get(entry["hash"])
                    if record is not None:
                        record.duplicates += 1
                        if record.legal is None and entry.get("legal") is not None:
                            record.legal = bool(entry["legal"])
                max_seq = max(max_seq, seq)
                applied += 1
        self._journal_seq = max_seq
        return applied

    def _journal_handle(self):
        if self._journal is None:
            self._journal = open(self.journal_path, "a", encoding="utf-8")
        return self._journal

    def _append_journal(self, entry: Dict) -> None:
        """Write-ahead: the entry is durable (fsynced) before this returns."""
        self._journal_seq += 1
        self._pending += 1
        entry["seq"] = self._journal_seq
        handle = self._journal_handle()
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
        handle.flush()
        faults.fire("store.journal_append")
        os.fsync(handle.fileno())
        faults.fire("store.journal_sync")

    @staticmethod
    def _fsync_file(path: Path) -> None:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    @staticmethod
    def _fsync_dir(path: Path) -> None:
        """Make a rename or a new entry durable: fsync its directory."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-specific
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-specific
            pass
        finally:
            os.close(fd)

    def _maybe_checkpoint(self) -> None:
        """Checkpoint once the journal holds as many entries as the last
        checkpoint published (at least one), so each O(N) index rewrite
        is paid for by N commits."""
        if self._pending >= max(self._published, 1):
            self._flush()

    def _flush(self) -> None:
        """The checkpoint: publish the index, then truncate the journal."""
        payload = {
            "version": _INDEX_VERSION,
            "journal_seq": self._journal_seq,
            "patterns": [r.as_dict() for r in self._records.values()],
        }
        tmp = self.index_path.with_name(_INDEX_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=1))
            handle.flush()
            os.fsync(handle.fileno())
        faults.fire("store.flush_tmp")
        os.replace(tmp, self.index_path)
        self._fsync_dir(self.root)
        self._published = len(self._records)
        self._pending = 0
        faults.fire("store.flush_publish")
        # Every journaled entry is now in the published index; truncate.
        self._compact_journal()
        faults.fire("store.flush_compact")

    def _compact_journal(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        with open(self.journal_path, "w", encoding="utf-8") as handle:
            handle.flush()
            os.fsync(handle.fileno())

    # -- writing -------------------------------------------------------

    def add(
        self, pattern: SquishPattern, legal: Optional[bool] = None, flush: bool = True
    ) -> tuple:
        """Store one pattern; returns ``(content_hash, was_new)``.

        A pattern whose ``(style, topology)`` is already present is deduped:
        its duplicate counter increments and nothing is written to the
        object tree.  A known ``legal`` verdict upgrades a record whose
        legality was previously unknown.

        Durability: by the time this returns, the object and the journal
        line are fsynced — a crash or power loss at any later point
        replays the add at next boot.  ``flush=False`` skips the
        checkpoint check (:meth:`add_library` runs it once at the end).
        """
        content_hash = pattern_content_hash(pattern)
        with self._lock:
            record = self._records.get(content_hash)
            if record is not None:
                self._append_journal(
                    {"op": "dup", "hash": content_hash, "legal": legal}
                )
                record.duplicates += 1
                if record.legal is None and legal is not None:
                    record.legal = legal
                self._m_deduplicated.inc()
                if flush:
                    self._maybe_checkpoint()
                return content_hash, False
            rel = Path("objects") / content_hash[:2] / f"{content_hash}.npz"
            target = self.root / rel
            new_shard = not target.parent.is_dir()
            target.parent.mkdir(parents=True, exist_ok=True)
            faults.fire("store.object_write")
            written = save_library(
                PatternLibrary(patterns=[pattern], name=content_hash), target
            )
            # The journal line is about to name this file: its bytes and
            # its directory entries must reach the disk first.
            self._fsync_file(written)
            self._fsync_dir(target.parent)
            if new_shard:
                self._fsync_dir(target.parent.parent)
            record = StoreRecord(
                content_hash=content_hash,
                style=pattern.style,
                rows=pattern.shape[0],
                cols=pattern.shape[1],
                physical_width=pattern.physical_width,
                physical_height=pattern.physical_height,
                legal=legal,
                file=str(written.relative_to(self.root)),
            )
            self._append_journal({"op": "add", "record": record.as_dict()})
            self._records[content_hash] = record
            self._m_added.inc()
            self._m_unique.set(len(self._records))
            if flush:
                self._maybe_checkpoint()
            return content_hash, True

    def add_library(
        self, library: PatternLibrary, legal: Optional[bool] = None
    ) -> StoreReport:
        """Store every pattern of a library, deduplicating as it goes.

        One commit: each pattern is journaled as it is added, and the
        checkpoint check runs once at the end, not per pattern.
        """
        report = StoreReport()
        with self._lock:
            for pattern in library:
                content_hash, was_new = self.add(pattern, legal=legal, flush=False)
                report.hashes.append(content_hash)
                if was_new:
                    report.added += 1
                else:
                    report.deduplicated += 1
            if len(library):
                self._maybe_checkpoint()
        return report

    # -- reading -------------------------------------------------------

    def get(self, content_hash: str) -> SquishPattern:
        """Load one stored pattern by its content hash."""
        with self._lock:
            record = self._records.get(content_hash)
        if record is None:
            raise KeyError(f"unknown content hash {content_hash!r}")
        return load_library(self.root / record.file)[0]

    def record(self, content_hash: str) -> StoreRecord:
        """Index entry for one content hash (no pattern data loaded)."""
        with self._lock:
            try:
                return self._records[content_hash]
            except KeyError:
                raise KeyError(
                    f"unknown content hash {content_hash!r}"
                ) from None

    def query(
        self,
        style: Optional[str] = None,
        legal: Optional[bool] = None,
        min_size: Optional[int] = None,
        max_size: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> PatternLibrary:
        """Load every stored pattern matching the given characteristics.

        ``min_size`` / ``max_size`` bound the larger topology edge
        (``max(rows, cols)``); ``legal`` filters on the recorded verdict
        (records with unknown legality match only ``legal=None``).
        """
        with self._lock:
            records = list(self._records.values())
        matches = PatternLibrary(name=f"{self.root.name}-query")
        for record in records:
            if style is not None and record.style != style:
                continue
            if legal is not None and record.legal is not legal:
                continue
            edge = max(record.rows, record.cols)
            if min_size is not None and edge < min_size:
                continue
            if max_size is not None and edge > max_size:
                continue
            matches.add(load_library(self.root / record.file)[0])
            if limit is not None and len(matches) >= limit:
                break
        return matches

    # -- observability -------------------------------------------------

    def records(self) -> List[StoreRecord]:
        """Snapshot of every index row."""
        with self._lock:
            return list(self._records.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def styles(self) -> List[str]:
        with self._lock:
            return sorted(
                {r.style for r in self._records.values() if r.style is not None}
            )

    def stats(self) -> Dict:
        with self._lock:
            records = list(self._records.values())
        by_style: Dict[str, int] = {}
        for record in records:
            by_style[str(record.style)] = by_style.get(str(record.style), 0) + 1
        return {
            "unique": len(records),
            "duplicates": sum(r.duplicates for r in records),
            "legal": sum(1 for r in records if r.legal is True),
            "by_style": by_style,
        }
