"""Span projection tests: a job's record read as a Dapper-style span tree.

``job_spans`` derives every span from the lifecycle job — its transitions,
stage events and engine hops — so these tests write a job's record the way
the serving stack does and read the tree back: nesting, attrs, the JSON
keys and one root per trace.
"""

import json
import time

import numpy as np

from repro.api import PatternPipeline
from repro.obs import NULL_METRICS, job_spans
from repro.obs.trace import StageTiming
from repro.serve import BatchedSamplingModel, ServeEngine
from repro.serve.jobs import RUNNING, Job

SPAN_KEYS = {
    "name", "trace_id", "span_id", "parent_id", "start", "end", "duration"
}


class _StubModel:
    window = 16
    fitted = True

    def sample_batch(self, conditions, rng, shape=None, **kwargs):
        return np.zeros((len(conditions), 16, 16), dtype=np.uint8)


class _Request:
    def __init__(self, request_id, source="cli", objective="legal"):
        self.request_id = request_id
        self.source = source
        self.objective = objective


def _served_job(request_id=7, calls=(2,), persist=True):
    """A job whose record is written as ``PatternService`` writes one: a
    RUNNING edge, then stages recorded through a pipeline bound to the
    job — one sample stage wrapping ``calls`` engine sampling calls (each
    admission -> queue wait -> gather -> execute) and a persist stage —
    and the terminal edge."""
    job = Job(f"job-{request_id}", request=_Request(request_id))
    job.transition(RUNNING, stage="chat")
    pipeline = PatternPipeline(
        model=_StubModel(), metrics=NULL_METRICS, job=job
    )
    with pipeline.stage("sample", produced=2):
        for count in calls:
            t = [time.perf_counter() for _ in range(5)]
            job.record_engine("admission", t[0], t[1], count=count)
            job.record_engine("queue_wait", t[1], t[2])
            job.record_engine("batch_gather", t[2], t[3], batch_samples=4)
            job.record_engine("execute", t[3], t[4], count=count)
    if persist:
        with pipeline.stage("persist", store_added=2):
            pass
    job.succeed()
    return job


def _by_name(spans):
    return {span["name"]: span for span in spans}


class TestSpans:
    def test_trace_and_nested_spans(self):
        spans = job_spans(_served_job())
        named = _by_name(spans)
        root = named["request"]
        assert root["parent_id"] is None
        assert root["trace_id"] == 7
        assert root["attrs"] == {"source": "cli", "objective": "legal"}
        for name in ("sample", "sample_call", "persist"):
            assert named[name]["parent_id"] == root["span_id"]
        call = named["sample_call"]
        assert call["attrs"] == {"count": 2}
        for hop in ("admission", "queue_wait", "batch_gather", "execute"):
            assert named[hop]["parent_id"] == call["span_id"]
        # The root covers every span of its trace.
        for span in spans:
            assert root["start"] <= span["start"] <= span["end"] <= root["end"]

    def test_hop_and_stage_detail_become_attrs(self):
        spans = job_spans(_served_job())
        named = _by_name(spans)
        assert named["batch_gather"]["attrs"] == {"batch_samples": 4}
        assert named["execute"]["attrs"] == {"count": 2}
        assert "attrs" not in named["queue_wait"]
        assert named["persist"]["attrs"] == {"store_added": 2}
        (stage,) = [s for s in spans if s["name"] == "sample"]
        assert stage["attrs"] == {"produced": 2}
        assert stage["duration"] >= 0.0

    def test_each_admission_opens_the_next_sampling_call(self):
        spans = job_spans(_served_job(calls=(1, 3), persist=False))
        calls = [s for s in spans if s["name"] == "sample_call"]
        assert [c["attrs"]["count"] for c in calls] == [1, 3]
        for call in calls:
            hops = [s for s in spans if s["parent_id"] == call["span_id"]]
            assert [h["name"] for h in hops] == [
                "admission", "queue_wait", "batch_gather", "execute"
            ]
            # A call runs from its admission to the end of its last hop.
            assert call["start"] == hops[0]["start"]
            assert call["end"] == max(h["end"] for h in hops)
        assert "persist" not in _by_name(spans)

    def test_engine_worker_hops_join_the_request_trace(self):
        """The engine's worker thread stamps the hops; the request's trace
        holds them under the sampling call that submitted the work."""
        engine = ServeEngine(
            _StubModel(), gather_window=0.0, metrics=NULL_METRICS
        )
        job = Job("job-engine", request=_Request(5))
        job.transition(RUNNING, stage="chat")
        client = BatchedSamplingModel(engine, job)
        with engine:
            client.sample(2, 0, np.random.default_rng(0))
        job.succeed()
        spans = job_spans(job)
        (call,) = [s for s in spans if s["name"] == "sample_call"]
        hops = [s["name"] for s in spans if s["parent_id"] == call["span_id"]]
        assert hops == ["admission", "queue_wait", "batch_gather", "execute"]
        assert {s["trace_id"] for s in spans} == {5}

    def test_a_job_that_never_ran_has_no_spans(self):
        job = Job("job-queued", request=_Request(9))
        job.request_cancel()
        assert job_spans(job) == []

    def test_a_job_restored_from_the_journal_has_no_spans(self):
        assert job_spans(Job.restore(_served_job().as_dict())) == []

    def test_a_running_job_projects_up_to_now(self):
        job = Job("job-live", request=_Request(4))
        job.transition(RUNNING, stage="chat")
        before = time.perf_counter()
        (root,) = job_spans(job)
        assert root["end"] >= round(before, 6)


class TestTreeAndExport:
    def test_tree_nests_and_sorts_children(self):
        spans = job_spans(_served_job(calls=(1, 2)))
        nodes = {s["span_id"]: {**s, "children": []} for s in spans}
        for span in sorted(spans, key=lambda s: s["start"]):
            if span["parent_id"] is not None:
                nodes[span["parent_id"]]["children"].append(
                    nodes[span["span_id"]]
                )
        root = nodes[1]
        assert root["name"] == "request"
        starts = [child["start"] for child in root["children"]]
        assert starts == sorted(starts)
        names = [c["name"] for c in root["children"]]
        assert names.count("sample") == 1
        assert names.count("sample_call") == 2
        assert [c["name"] for c in root["children"]][-1] == "persist"

    def test_export_jsonl(self):
        for span in job_spans(_served_job()):
            line = json.loads(json.dumps(span, sort_keys=True))
            assert set(line) - {"attrs"} == SPAN_KEYS
            assert abs(line["duration"] - (line["end"] - line["start"])) < 2e-6

    def test_one_root_per_trace_and_every_parent_resolves(self):
        spans = [
            span
            for request_id in (1, 2, 3)
            for span in job_spans(_served_job(request_id, calls=(1, 2)))
        ]
        traces = {}
        for span in spans:
            traces.setdefault(span["trace_id"], []).append(span)
        assert sorted(traces) == [1, 2, 3]
        for trace in traces.values():
            roots = [s for s in trace if s["parent_id"] is None]
            assert [r["name"] for r in roots] == ["request"]
            ids = [s["span_id"] for s in trace]
            assert len(set(ids)) == len(ids)
            assert all(
                s["parent_id"] in ids for s in trace if s is not roots[0]
            )


class TestStageTimingStart:
    def test_start_stays_off_the_wire_and_out_of_equality(self):
        timing = StageTiming("legalize", 0.25, {"legal": 2}, start=12.5)
        assert timing.as_dict() == {
            "stage": "legalize", "seconds": 0.25, "detail": {"legal": 2}
        }
        assert timing == StageTiming("legalize", 0.25, {"legal": 2})
