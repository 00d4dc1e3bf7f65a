"""Self-tests of the benchmark harness (no server is started).

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import budget  # noqa: E402
from loadgen import Outcome, poisson_schedule  # noqa: E402
from stats import tail_percentile  # noqa: E402
from tracing import SpanRecorder  # noqa: E402


def test_poisson_schedule_is_identical_for_a_seed():
    first = poisson_schedule(seed=7, rate=1.0, seconds=20.0)
    assert first == poisson_schedule(seed=7, rate=1.0, seconds=20.0)
    assert first != poisson_schedule(seed=8, rate=1.0, seconds=20.0)
    assert len(first) == 20
    assert first == sorted(first)
    assert 0.0 < first[0] and abs(first[-1] - 20.0) < 1e-9


def test_tail_percentile_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    q, value = tail_percentile(values)
    assert q == 90.0
    assert sum(1 for v in values if v > value) >= 10
    assert tail_percentile(values[:20])[0] == 50.0
    assert tail_percentile(values[:15]) is None


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_wrapped_calls():
    clock = _Clock()
    recorder = SpanRecorder(clock=clock)

    def inner():
        clock.now += 2.0

    wrapped_inner = recorder.wrap("drc", "check_pattern", inner)

    def outer():
        clock.now += 1.0
        wrapped_inner()
        clock.now += 0.5
        wrapped_inner()

    recorder.wrap("legalize", "legalize", outer)()
    spans = {(s[1], s[3]): s for s in recorder.spans}
    outer_span = spans[("legalize", 0.0)]
    assert outer_span[4] - outer_span[3] == 5.5
    assert outer_span[5] == 1.5
    assert [s[5] for s in recorder.spans if s[1] == "check_pattern"] == [2.0, 2.0]


def _synthetic_trace():
    """Two requests: one pipeline job, one chat job blocked inside the agent."""
    thread, engine = 1, 2
    spans = [
        # request A (job-a) on the request thread
        ("jobs", "submit_job", 9, 10.010, 10.012, 0.002,
         {"job_id": "job-a", "created_at": 10.011}),
        ("legalize", "legalize_many", thread, 10.500, 10.530, 0.020, None),
        ("drc", "check_pattern", thread, 10.510, 10.520, 0.010, None),
        ("store", "add_library", thread, 10.540, 10.545, 0.005,
         {"added": 1, "deduplicated": 0}),
        # engine execute of request A
        ("diffusion", "sample_batch", engine, 10.101, 10.450, 0.049, {"batch": 1}),
        ("diffusion", "predict_x0_many", engine, 10.110, 10.410, 0.300, None),
        # request B (job-b): the agent blocks on one engine call
        ("jobs", "submit_job", 9, 20.002, 20.004, 0.002,
         {"job_id": "job-b", "created_at": 20.003}),
        ("agent", "handle_request", thread, 20.010, 21.000, 0.990, None),
        ("diffusion", "sample_batch", engine, 20.200, 20.600, 0.400, {"batch": 1}),
    ]
    events = [
        ("job-a", "QUEUED", None, 9, 10.0115),
        ("job-a", "RUNNING", "pipeline", thread, 10.0120),
        ("job-a", "RUNNING", "sample", thread, 10.0121),
        ("job-a", "LEGALIZING", "legalize", thread, 10.495),
        ("job-a", "RUNNING", "score", thread, 10.535),
        ("job-a", "PERSISTING", "persist", thread, 10.538),
        ("job-a", "SUCCEEDED", None, thread, 10.550),
        ("job-b", "QUEUED", None, 9, 20.0035),
        ("job-b", "RUNNING", "chat", thread, 20.005),
        ("job-b", "PERSISTING", "persist", thread, 21.001),
        ("job-b", "SUCCEEDED", None, thread, 21.004),
    ]
    trace = budget.Trace.from_payload(
        {"spans": spans, "events": events, "meta": {}}
    )
    a = Outcome(index=0, requested=1, due=10.0, sent=10.001, posted=10.015,
                end=10.600, result_rtt=0.002, job_id="job-a")
    a.status = {"engine_events": [
        {"kind": "admission", "t": 0.089, "seconds": 0.0001},
        {"kind": "queue_wait", "t": 0.0891, "seconds": 0.0005},
        {"kind": "batch_gather", "t": 0.0896, "seconds": 0.0004},
        {"kind": "execute", "t": 0.090, "seconds": 0.350},
    ]}
    b = Outcome(index=1, requested=1, due=20.0, sent=20.0, posted=20.006,
                end=21.050, result_rtt=0.003, job_id="job-b")
    b.status = {"engine_events": [
        {"kind": "admission", "t": 0.097, "seconds": 0.0001},
        {"kind": "queue_wait", "t": 0.0971, "seconds": 0.0900},
        {"kind": "batch_gather", "t": 0.1871, "seconds": 0.0059},
        {"kind": "execute", "t": 0.193, "seconds": 0.410},
    ]}
    return trace, [a, b]


def test_budget_rows_sum_exactly_to_end_to_end():
    trace, outcomes = _synthetic_trace()
    rows, latency, n = budget.budget_table(outcomes, trace)
    assert n == 2
    assert math.isclose(latency, (0.600 + 1.050) / 2)
    assert math.isclose(math.fsum(rows.values()), latency, rel_tol=0, abs_tol=1e-12)
    # Request A's engine execute splits into its diffusion spans and the
    # engine's remainder; B's agent self time excludes its engine wait.
    assert math.isclose(rows["execute: predict_x0_many"], 0.300 / 2)
    assert math.isclose(rows["legalize and DRC"], 0.030 / 2)
    agent_self = 0.990 - (20.003 + 0.193 + 0.410 - (20.003 + 0.097))
    assert math.isclose(rows["agent self"], agent_self / 2)
    # Uncovered gaps: A's sample and legalize stages outside any call
    # (0.142 s), B's chat stage outside the agent call (0.006 s).
    assert math.isclose(rows[budget.UNATTRIBUTED], (0.142 + 0.006) / 2)
