"""Crash-safety matrix for the LibraryStore's journal + index pipeline.

Each test kills the store (via ``SimulatedCrash`` at a named kill point,
which leaves exactly the disk state a real SIGKILL there would) and then
reopens a fresh instance over the same directory, asserting the durability
contract:

- an **acked** ``add`` (the call returned) is always recovered;
- an **un-acked** add is either fully present or fully absent — the store
  reopens clean either way, never corrupted.
"""

import json

import numpy as np
import pytest

from repro import faults
from repro.faults import FaultPlan, FaultPoint, SimulatedCrash, injected
from repro.serve import LibraryStore, pattern_content_hash
from repro.squish import SquishPattern

#: Every kill point along the add() write path, in write order.  The
#: ``flush_*`` sites fire inside a checkpoint: the matrix's fourth add is
#: one (the last checkpoint published 2 records, and 2 entries are
#: journaled since), so every site is reached on the victim add.
KILL_SITES = (
    "store.object_write",
    "store.journal_append",
    "store.journal_sync",
    "store.flush_tmp",
    "store.flush_publish",
    "store.flush_compact",
)

#: Kill points at which the interrupted add is guaranteed durable: the
#: journal line was written (append) — fsync or not, the bytes reach the
#: file on a simulated crash — so replay recovers it.
DURABLE_AFTER = {
    "store.journal_append",
    "store.journal_sync",
    "store.flush_tmp",
    "store.flush_publish",
    "store.flush_compact",
}


@pytest.fixture(autouse=True)
def clean_active_plan():
    faults.reset()
    yield
    faults.reset()


def _pattern(fill_row=0, style="Layer-10001", size=4):
    topology = np.zeros((size, size), dtype=np.uint8)
    topology[fill_row % size] = 1
    return SquishPattern(
        topology=topology,
        dx=np.full(size, 10),
        dy=np.full(size, 10),
        style=style,
    )


def _crash_plan(site, nth=1):
    return FaultPlan([FaultPoint(site=site, nth=nth, times=1, crash=True)])


class TestKillPointMatrix:
    @pytest.mark.parametrize("site", KILL_SITES)
    def test_acked_adds_survive_a_crash_at(self, site, tmp_path):
        store = LibraryStore(tmp_path)
        acked = []
        for row in range(3):  # acked before the fault plan goes live
            content_hash, was_new = store.add(_pattern(fill_row=row))
            assert was_new
            acked.append(content_hash)
        victim = _pattern(fill_row=3)
        with injected(_crash_plan(site)):
            with pytest.raises(SimulatedCrash):
                store.add(victim)
        # The crashed process is gone; a fresh instance reopens the dir.
        reopened = LibraryStore(tmp_path)
        for content_hash in acked:
            assert reopened.record(content_hash) is not None
            assert reopened.get(content_hash) is not None
        victim_hash = pattern_content_hash(victim)
        try:
            reopened.record(victim_hash)
            recovered = True
        except KeyError:
            recovered = False
        if recovered:
            # A recovered un-acked add must be *fully* present: its
            # object file loads, not just its index row.
            assert reopened.get(victim_hash) == victim
        if site in DURABLE_AFTER:
            assert recovered

    def test_the_victim_add_reaches_every_kill_site(self, tmp_path):
        store = LibraryStore(tmp_path)
        for row in range(3):
            store.add(_pattern(fill_row=row))
        plan = FaultPlan([])
        with injected(plan):
            store.add(_pattern(fill_row=3))
        assert plan.counts() == {site: 1 for site in KILL_SITES}

    @pytest.mark.parametrize(
        "site", [s for s in KILL_SITES if s.startswith("store.flush_")]
    )
    def test_a_crash_in_a_later_checkpoint_loses_no_acked_add(
        self, site, tmp_path
    ):
        # Adds 5-7 are journaled only (the checkpoint at 4 published 4
        # records); the 8th add's checkpoint crashes.
        store = LibraryStore(tmp_path)
        patterns = [_pattern(fill_row=row, size=8) for row in range(8)]
        acked = [store.add(p)[0] for p in patterns[:7]]
        with injected(_crash_plan(site)):
            with pytest.raises(SimulatedCrash):
                store.add(patterns[7])  # journaled before the crash
        reopened = LibraryStore(tmp_path)
        for content_hash, pattern in zip(acked, patterns):
            assert reopened.get(content_hash) == pattern
        assert len(reopened) == 8

    @pytest.mark.parametrize("site", KILL_SITES)
    def test_reopened_store_keeps_serving_writes(self, site, tmp_path):
        store = LibraryStore(tmp_path)
        store.add(_pattern(fill_row=0))
        with injected(_crash_plan(site)):
            with pytest.raises(SimulatedCrash):
                store.add(_pattern(fill_row=1))
        reopened = LibraryStore(tmp_path)
        content_hash, _ = reopened.add(_pattern(fill_row=2))
        assert reopened.record(content_hash) is not None
        third = LibraryStore(tmp_path)  # and the new write is durable too
        assert third.record(content_hash) is not None


class TestJournalReplay:
    def test_journal_only_state_replays(self, tmp_path):
        # Kill between the journal fsync and the in-memory mutate: the add
        # exists ONLY in the journal.  Boot must replay it into the index.
        store = LibraryStore(tmp_path)
        victim = _pattern(fill_row=1)
        with injected(_crash_plan("store.journal_sync")):
            with pytest.raises(SimulatedCrash):
                store.add(victim)
        reopened = LibraryStore(tmp_path)
        assert reopened.journal_replayed >= 1
        assert reopened.get(pattern_content_hash(victim)) == victim

    def test_replayed_duplicates_restore_counters(self, tmp_path):
        store = LibraryStore(tmp_path)
        store.add(_pattern(fill_row=0))
        # Crash during the *flush* of a duplicate add: the dup journal
        # line is durable but the index still shows zero duplicates.
        with injected(_crash_plan("store.flush_tmp")):
            with pytest.raises(SimulatedCrash):
                store.add(_pattern(fill_row=0), legal=True)
        reopened = LibraryStore(tmp_path)
        assert reopened.stats()["duplicates"] == 1
        # The dup's legality verdict was replayed as an upgrade too.
        record = reopened.record(pattern_content_hash(_pattern(fill_row=0)))
        assert record.legal is True

    def test_torn_trailing_journal_line_is_tolerated(self, tmp_path):
        store = LibraryStore(tmp_path)
        with injected(_crash_plan("store.journal_sync")):
            with pytest.raises(SimulatedCrash):
                store.add(_pattern(fill_row=1))
        # A torn write: garbage trailing bytes after the good line.
        with open(store.journal_path, "a") as handle:
            handle.write('{"seq": 99, "op": "ad')
        reopened = LibraryStore(tmp_path)
        assert len(reopened) == 1  # good prefix replayed, tail dropped

    def test_flush_compacts_the_journal(self, tmp_path):
        store = LibraryStore(tmp_path)
        store.add(_pattern(fill_row=0))
        store.add(_pattern(fill_row=1))
        # A clean flush publishes the index and truncates the journal.
        assert store.journal_path.read_text() == ""
        payload = json.loads(store.index_path.read_text())
        assert payload["journal_seq"] >= 2

    def test_replay_skips_entries_older_than_index(self, tmp_path):
        # Crash after publish but before compaction: the journal still
        # holds entries the published index already covers.  Boot must
        # not double-apply them.
        store = LibraryStore(tmp_path)
        with injected(_crash_plan("store.flush_publish")):
            with pytest.raises(SimulatedCrash):
                store.add(_pattern(fill_row=0))
        assert store.journal_path.read_text() != ""
        reopened = LibraryStore(tmp_path)
        assert len(reopened) == 1
        assert reopened.stats()["duplicates"] == 0
        assert reopened.journal_replayed == 0

    def test_object_write_crash_leaves_no_trace(self, tmp_path):
        # Killed before the object file was written: nothing was acked,
        # nothing was journaled — the store reopens empty.
        store = LibraryStore(tmp_path)
        with injected(_crash_plan("store.object_write")):
            with pytest.raises(SimulatedCrash):
                store.add(_pattern(fill_row=0))
        reopened = LibraryStore(tmp_path)
        assert len(reopened) == 0
        assert reopened.journal_replayed == 0
