"""Restart recovery + retention races for the durable JobTable.

Covers the crash contract of ``--state-dir``: terminal jobs are pollable
across a restart with their full outcome, in-flight jobs resurface as
FAILED ``server_restart`` (never silently vanish), and the TTL reaper can
race status/cancel lookups without corrupting the table.
"""

import threading
import time

import pytest

from repro.serve import CODE_SERVER_RESTART, JobTable
from repro.serve.jobs import (
    CODE_LEGALIZE_FAILED,
    FAILED,
    QUEUED,
    RUNNING,
    SUCCEEDED,
)


def _restart(state_dir, **kwargs):
    """A fresh JobTable over the same state dir — 'the process rebooted'."""
    return JobTable(state_dir=state_dir, **kwargs)


class TestTerminalRehydration:
    def test_succeeded_job_pollable_after_restart(self, tmp_path):
        table = JobTable(state_dir=tmp_path)
        job = table.create()
        job.transition(QUEUED)
        job.transition(RUNNING)
        job.succeed()
        rebooted = _restart(tmp_path)
        assert rebooted.restored == 1
        restored = rebooted.get(job.job_id)
        assert restored is not None
        assert restored.state == SUCCEEDED
        assert restored.restored is True
        assert restored.wait(timeout=0)  # terminal: waiters release

    def test_failed_job_keeps_error_and_code(self, tmp_path):
        table = JobTable(state_dir=tmp_path)
        job = table.create()
        job.transition(QUEUED)
        job.fail("legalization produced nothing", code=CODE_LEGALIZE_FAILED)
        restored = _restart(tmp_path).get(job.job_id)
        assert restored.state == FAILED
        assert restored.error_code == CODE_LEGALIZE_FAILED
        assert "legalization" in restored.error

    def test_restored_view_is_the_journaled_snapshot(self, tmp_path):
        table = JobTable(state_dir=tmp_path)
        job = table.create()
        job.transition(QUEUED)
        job.succeed(produced=0)
        # persist() re-journals with later-arriving response data;
        # last record wins at replay.
        job._restored_view = None  # (not restored; just exercising persist)
        payload = job.as_dict()
        payload["produced"] = 7
        table.state_store._append({"op": "terminal", "record": payload})
        restored = _restart(tmp_path).get(job.job_id)
        assert restored.produced == 7
        assert restored.as_dict()["produced"] == 7

    def test_client_key_survives_restart(self, tmp_path):
        table = JobTable(state_dir=tmp_path)
        job = table.create(client_id="ck-abc")
        job.transition(QUEUED)
        job.succeed()
        rebooted = _restart(tmp_path)
        found = rebooted.find_client("ck-abc")
        assert found is not None and found.job_id == job.job_id


class TestOrphanResurrection:
    def test_in_flight_job_resurfaces_as_server_restart(self, tmp_path):
        table = JobTable(state_dir=tmp_path)
        job = table.create()
        job.transition(QUEUED)
        job.transition(RUNNING)  # crash happens here: never terminal
        rebooted = _restart(tmp_path)
        assert rebooted.resurrected == 1
        orphan = rebooted.get(job.job_id)
        assert orphan.state == FAILED
        assert orphan.error_code == CODE_SERVER_RESTART
        assert "restart" in orphan.error

    def test_resurrection_is_durable_across_a_second_restart(self, tmp_path):
        table = JobTable(state_dir=tmp_path)
        job = table.create()
        job.transition(QUEUED)
        first_reboot = _restart(tmp_path)
        assert first_reboot.get(job.job_id).error_code == CODE_SERVER_RESTART
        second_reboot = _restart(tmp_path)
        # Compaction journaled the orphan's terminal record: it restores
        # as a plain terminal now, not a fresh resurrection.
        assert second_reboot.resurrected == 0
        assert (
            second_reboot.get(job.job_id).error_code == CODE_SERVER_RESTART
        )

    def test_new_ids_never_collide_with_restored_ones(self, tmp_path):
        table = JobTable(state_dir=tmp_path)
        old = [table.create() for _ in range(3)]
        for job in old:
            job.transition(QUEUED)
            job.succeed()
        rebooted = _restart(tmp_path)
        fresh = rebooted.create()
        assert fresh.job_id not in {job.job_id for job in old}
        # Serial numbering continues past the restored high-water mark.
        assert int(fresh.job_id.split("-")[1]) == 4

    def test_ttl_window_restarts_at_boot(self, tmp_path):
        table = JobTable(state_dir=tmp_path, ttl=600.0)
        job = table.create()
        job.transition(QUEUED)
        job.succeed()
        rebooted = _restart(tmp_path, ttl=0.05)
        assert rebooted.get(job.job_id) is not None  # fresh window
        time.sleep(0.08)
        assert rebooted.get(job.job_id) is None  # then TTL applies


    def test_jobs_past_their_ttl_are_dropped_at_boot(self, tmp_path):
        """A restart after the TTL restores none of the finished jobs and
        compacts the journal to nothing; new ids still continue past
        theirs."""
        table = JobTable(state_dir=tmp_path, ttl=0.05)
        serials = []
        for _ in range(300):
            job = table.create()
            job.transition(QUEUED)
            job.succeed()
            serials.append(int(job.job_id.split("-")[1]))
        table.close()
        time.sleep(0.1)
        rebooted = _restart(tmp_path, ttl=0.05)
        try:
            assert rebooted.restored == 0
            assert len(rebooted) == 0
            journal = (tmp_path / "jobs.jsonl").read_text()
            assert journal.splitlines() == []
            fresh = rebooted.create()
            assert int(fresh.job_id.split("-")[1]) == max(serials) + 1
        finally:
            rebooted.close()


class TestRetentionRaces:
    def test_ttl_purge_races_status_lookups(self, tmp_path):
        """Hammer get()/counts() from threads while jobs expire and new
        ones are created — no exception, no corrupted table."""
        table = JobTable(state_dir=tmp_path, ttl=0.01)
        ids = []
        for _ in range(20):
            job = table.create()
            job.transition(QUEUED)
            job.succeed()
            ids.append(job.job_id)
        errors = []

        def poll():
            try:
                for _ in range(200):
                    for job_id in ids:
                        job = table.get(job_id)
                        if job is not None:
                            job.as_dict()
                    table.counts()
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        def churn():
            try:
                for _ in range(50):
                    job = table.create()
                    job.transition(QUEUED)
                    job.succeed()
                    time.sleep(0.001)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=poll) for _ in range(4)]
        threads.append(threading.Thread(target=churn))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        time.sleep(0.02)
        table.purge()
        for job_id in ids:
            assert table.get(job_id) is None

    def test_cancel_races_ttl_expiry(self, tmp_path):
        """A cancel landing after the TTL purged the job is a clean miss
        (the HTTP layer 404s), never a crash or a zombie entry."""
        table = JobTable(ttl=0.01)
        job = table.create()
        job.transition(QUEUED)
        job.succeed()
        time.sleep(0.03)
        assert table.get(job.job_id) is None  # purged on access
        # Cancelling the stale handle is a terminal no-op.
        assert job.request_cancel() is False
        assert job.state == SUCCEEDED
        assert len(table) == 0

    def test_purged_client_key_is_released(self, tmp_path):
        table = JobTable(ttl=0.01)
        job = table.create(client_id="ck-reuse")
        job.transition(QUEUED)
        job.succeed()
        time.sleep(0.03)
        assert table.find_client("ck-reuse") is None
        # The key is reusable after the purge: a fresh job claims it.
        fresh = table.create(client_id="ck-reuse")
        assert table.find_client("ck-reuse").job_id == fresh.job_id


class TestStatelessTableUnchanged:
    def test_no_state_dir_means_no_journal(self, tmp_path):
        table = JobTable()
        job = table.create()
        job.transition(QUEUED)
        job.succeed()
        assert table.state_store is None
        assert list(tmp_path.iterdir()) == []
