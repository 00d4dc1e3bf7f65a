"""Unit tests for the content-hash-indexed LibraryStore."""

import json
import os

import numpy as np
import pytest

import repro.serve.store as store_module
from repro.serve import LibraryStore, pattern_content_hash
from repro.squish import PatternLibrary, SquishPattern


def _pattern(fill_row=0, style="Layer-10001", size=4, dx=10):
    topology = np.zeros((size, size), dtype=np.uint8)
    topology[fill_row % size] = 1
    return SquishPattern(
        topology=topology,
        dx=np.full(size, dx),
        dy=np.full(size, 10),
        style=style,
    )


class TestContentHash:
    def test_same_topology_same_style_hash_equal(self):
        assert pattern_content_hash(_pattern()) == pattern_content_hash(_pattern())

    def test_geometry_does_not_change_hash(self):
        # Dedup is at topology granularity: delta vectors don't participate.
        assert pattern_content_hash(_pattern(dx=10)) == pattern_content_hash(
            _pattern(dx=20)
        )

    def test_style_and_topology_change_hash(self):
        base = pattern_content_hash(_pattern())
        assert pattern_content_hash(_pattern(style="Layer-10003")) != base
        assert pattern_content_hash(_pattern(fill_row=1)) != base


class TestAddAndDedup:
    def test_add_new_then_duplicate(self, tmp_path):
        store = LibraryStore(tmp_path)
        content_hash, was_new = store.add(_pattern(), legal=True)
        assert was_new
        assert len(store) == 1
        again, was_new = store.add(_pattern())
        assert again == content_hash
        assert not was_new
        assert len(store) == 1
        assert store.stats()["duplicates"] == 1

    def test_duplicate_upgrades_unknown_legality(self, tmp_path):
        store = LibraryStore(tmp_path)
        content_hash, _ = store.add(_pattern())
        assert store.record(content_hash).legal is None
        store.add(_pattern(), legal=True)
        assert store.record(content_hash).legal is True

    def test_add_library_reports_counts(self, tmp_path):
        store = LibraryStore(tmp_path)
        library = PatternLibrary(name="mixed")
        library.add(_pattern(fill_row=0))
        library.add(_pattern(fill_row=1))
        library.add(_pattern(fill_row=0))  # dup of the first
        report = store.add_library(library, legal=True)
        assert report.added == 2
        assert report.deduplicated == 1
        assert len(report.hashes) == 3

    def test_get_round_trips_pattern(self, tmp_path):
        store = LibraryStore(tmp_path)
        pattern = _pattern(fill_row=2)
        content_hash, _ = store.add(pattern)
        loaded = store.get(content_hash)
        assert loaded == pattern
        assert loaded.style == pattern.style

    def test_get_unknown_hash_raises(self, tmp_path):
        with pytest.raises(KeyError):
            LibraryStore(tmp_path).get("deadbeef")


class TestQuery:
    def _populated(self, tmp_path):
        store = LibraryStore(tmp_path)
        store.add(_pattern(fill_row=0, style="Layer-10001", size=4), legal=True)
        store.add(_pattern(fill_row=1, style="Layer-10001", size=8), legal=False)
        store.add(_pattern(fill_row=2, style="Layer-10003", size=8), legal=True)
        return store

    def test_query_by_style(self, tmp_path):
        store = self._populated(tmp_path)
        assert len(store.query(style="Layer-10001")) == 2
        assert len(store.query(style="Layer-10003")) == 1
        assert store.styles() == ["Layer-10001", "Layer-10003"]

    def test_query_by_legality(self, tmp_path):
        store = self._populated(tmp_path)
        assert len(store.query(legal=True)) == 2
        assert len(store.query(legal=False)) == 1

    def test_query_by_size(self, tmp_path):
        store = self._populated(tmp_path)
        assert len(store.query(max_size=4)) == 1
        assert len(store.query(min_size=8)) == 2

    def test_query_limit_and_combined_filters(self, tmp_path):
        store = self._populated(tmp_path)
        assert len(store.query(limit=2)) == 2
        matched = store.query(style="Layer-10001", legal=True)
        assert len(matched) == 1
        assert matched[0].shape == (4, 4)


class TestPersistence:
    def test_reopen_reads_index_back(self, tmp_path):
        store = LibraryStore(tmp_path)
        content_hash, _ = store.add(_pattern(), legal=True)
        store.add(_pattern())  # duplicate counter
        reopened = LibraryStore(tmp_path)
        assert len(reopened) == 1
        record = reopened.record(content_hash)
        assert record.duplicates == 1
        assert record.legal is True
        assert reopened.get(content_hash) == _pattern()

    def test_objects_are_sharded_npz_files(self, tmp_path):
        store = LibraryStore(tmp_path)
        content_hash, _ = store.add(_pattern())
        expected = (
            tmp_path / "objects" / content_hash[:2] / f"{content_hash}.npz"
        )
        assert expected.exists()
        assert store.record(content_hash).file == str(
            expected.relative_to(tmp_path)
        )


def _random_pattern(rng, size=8):
    return SquishPattern(
        topology=(rng.random((size, size)) < 0.5).astype(np.uint8),
        dx=np.full(size, 10),
        dy=np.full(size, 10),
        style="Layer-10001",
    )


def _fill(store, count, rng):
    for _ in range(count):
        store.add_library(PatternLibrary(patterns=[_random_pattern(rng)]))


def _new_pattern_in_existing_shard(store, rng):
    """A pattern the store lacks whose shard directory already exists, so
    adding it creates no directory."""
    while True:
        pattern = _random_pattern(rng)
        content_hash = pattern_content_hash(pattern)
        shard = store.root / "objects" / content_hash[:2]
        if shard.is_dir() and not (shard / f"{content_hash}.npz").exists():
            return pattern


class _FsyncLog:
    """Records each ``os.fsync`` as the ``(st_dev, st_ino)`` it synced."""

    def __init__(self, monkeypatch, real=True):
        self.calls = []
        real_fsync = os.fsync

        def fsync(fd):
            st = os.fstat(fd)
            self.calls.append((st.st_dev, st.st_ino))
            if real:
                real_fsync(fd)

        monkeypatch.setattr(store_module.os, "fsync", fsync)

    @staticmethod
    def key(path):
        st = os.stat(path)
        return st.st_dev, st.st_ino


class TestCheckpoints:
    def test_checkpoints_fall_at_doubling_record_counts(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(store_module.os, "fsync", lambda fd: None)
        store = LibraryStore(tmp_path)
        published = []
        real_flush = store._flush

        def flush():
            published.append(len(store))
            real_flush()

        store._flush = flush
        rng = np.random.default_rng(0)
        _fill(store, 40, rng)
        assert published == [1, 2, 4, 8, 16, 32]
        index = json.loads(store.index_path.read_text())
        assert len(index["patterns"]) == 32
        # The 8 later records live only in the journal until the next
        # checkpoint.
        assert len(store.journal_path.read_text().splitlines()) == 8
        store.close()

    def test_duplicates_count_toward_the_next_checkpoint(self, tmp_path):
        store = LibraryStore(tmp_path)
        store.add(_pattern(fill_row=0))  # checkpoint: 1 record published
        store.add(_pattern(fill_row=0))  # 1 journal entry >= 1: checkpoint
        assert store.journal_path.read_text() == ""
        index = json.loads(store.index_path.read_text())
        assert index["patterns"][0]["duplicates"] == 1
        store.close()

    def test_commits_between_checkpoints_cost_the_same_at_any_size(
        self, tmp_path, monkeypatch
    ):
        """An add between checkpoints writes no index and makes the same
        fsyncs whether the store holds 10 records or 1000."""
        log = _FsyncLog(monkeypatch, real=False)
        store = LibraryStore(tmp_path)
        rng = np.random.default_rng(1)
        costs = []
        for size in (10, 1000):
            _fill(store, size - len(store), rng)
            assert len(store) == size  # checkpoints at 8 and 512, not here
            index_before = store.index_path.read_bytes()
            index_stat = store.index_path.stat()
            log.calls.clear()
            pattern = _new_pattern_in_existing_shard(store, rng)
            report = store.add_library(PatternLibrary(patterns=[pattern]))
            assert report.added == 1
            assert store.index_path.read_bytes() == index_before
            assert store.index_path.stat().st_mtime_ns == index_stat.st_mtime_ns
            assert not store.index_path.with_name("index.json.tmp").exists()
            costs.append(len(log.calls))
        # object, shard directory, journal line
        assert costs == [3, 3]
        store.close()

    def test_close_checkpoints_and_empties_the_journal(self, tmp_path):
        store = LibraryStore(tmp_path)
        rng = np.random.default_rng(2)
        _fill(store, 3, rng)  # checkpoints at 1 and 2; the third is pending
        assert len(json.loads(store.index_path.read_text())["patterns"]) == 2
        store.close()
        assert len(json.loads(store.index_path.read_text())["patterns"]) == 3
        assert store.journal_path.read_text() == ""
        reopened = LibraryStore(tmp_path)
        assert len(reopened) == 3
        assert reopened.journal_replayed == 0

    def test_unclosed_store_replays_its_pending_adds(self, tmp_path):
        store = LibraryStore(tmp_path)
        rng = np.random.default_rng(3)
        _fill(store, 6, rng)  # checkpoint at 4; two adds only journaled
        hashes = [r.content_hash for r in store.records()]
        reopened = LibraryStore(tmp_path)
        assert reopened.journal_replayed == 2
        assert sorted(r.content_hash for r in reopened.records()) == sorted(
            hashes
        )
        # Boot checkpointed the replay: a third boot replays nothing.
        assert LibraryStore(tmp_path).journal_replayed == 0


class TestCommitDurability:
    def test_object_and_new_directories_are_fsynced_before_the_journal(
        self, tmp_path, monkeypatch
    ):
        store = LibraryStore(tmp_path)
        log = _FsyncLog(monkeypatch)
        content_hash, _ = store.add(_pattern(fill_row=0))
        record = store.record(content_hash)
        obj = tmp_path / record.file
        commit = log.calls[:4]
        assert commit == [
            log.key(obj),  # the object's bytes
            log.key(obj.parent),  # its entry in the new shard directory
            log.key(tmp_path / "objects"),  # the new shard's entry
            log.key(store.journal_path),  # only then the journal line
        ]
        # The first add is a checkpoint too: index tmp, root directory,
        # truncated journal, after the commit.
        assert log.calls[4:] == [
            log.key(store.index_path),
            log.key(tmp_path),
            log.key(store.journal_path),
        ]
        store.close()

    def test_an_existing_shard_is_fsynced_but_not_its_parent(
        self, tmp_path, monkeypatch
    ):
        store = LibraryStore(tmp_path)
        rng = np.random.default_rng(4)
        _fill(store, 40, rng)
        pattern = _new_pattern_in_existing_shard(store, rng)
        log = _FsyncLog(monkeypatch)
        content_hash, was_new = store.add(pattern)
        assert was_new
        obj = tmp_path / store.record(content_hash).file
        assert log.calls == [
            log.key(obj),
            log.key(obj.parent),
            log.key(store.journal_path),
        ]
        store.close()
