"""Workloads, seeded request streams and the HTTP load generator.

The generator is this one process: at most two threads, each holding at
most one connection at a time (one connection per HTTP call, as the
server closes every connection after its response).  A request is
submitted with ``POST /v1/jobs``, polled with ``GET /v1/jobs/{id}`` every
``POLL_INTERVAL`` seconds until terminal, then fetched with
``GET /v1/jobs/{id}/result``.  Only the standard library is used, so the
benchmark keeps working whatever the repository does to its client SDK.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

STYLES = ("Layer-10001", "Layer-10003")

FREESIZE_TEXT = (
    "Generate 1 legal patterns, 256*256 topology, "
    "physical size 4096nm * 4096nm, style {style}."
)

TERMINAL_STATES = frozenset({"SUCCEEDED", "FAILED", "CANCELLED", "EXPIRED"})

#: Seconds between status polls of one job.
POLL_INTERVAL = 0.02

#: Client-side patience for one job, far above any healthy latency.
JOB_TIMEOUT = 120.0

#: Socket timeout of one HTTP call.
HTTP_TIMEOUT = 60.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    ``loop`` is ``open`` (arrivals at ``rate`` per second regardless of
    completions, served by ``threads`` generator threads) or ``closed``
    (``threads`` clients, each sending its next request when the previous
    one has been fetched).  ``slo`` is the latency limit of
    ``slo_met_frac``.
    """

    name: str
    loop: str
    threads: int
    kind: str
    count: int
    slo: float
    rate: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    "interactive": Workload(
        "interactive", loop="open", threads=2, kind="pipeline", count=1,
        slo=2.0, rate=0.5,
    ),
    "freesize": Workload(
        "freesize", loop="closed", threads=1, kind="chat", count=1, slo=30.0,
    ),
}


def poisson_schedule(seed: int, rate: float, seconds: float) -> List[float]:
    """Arrival offsets (seconds from the window start) at Poisson ``rate``.

    The ``round(rate * seconds)`` inter-arrival gaps are stratified: they
    are the midpoint quantiles of the exponential distribution, in an order
    drawn from ``seed``, scaled so that the last request arrives exactly at
    the end of the window.  Every seed thus sees the same number of
    requests and the same mix of short and long gaps, which a latency
    percentile over a few dozen requests is very sensitive to; only which
    requests crowd together changes.
    """
    count = max(1, round(rate * seconds))
    gaps = [-math.log(1.0 - (i + 0.5) / count) for i in range(count)]
    random.Random(f"schedule:{seed}").shuffle(gaps)
    scale = seconds / math.fsum(gaps)
    offsets, t = [], 0.0
    for gap in gaps:
        t += gap * scale
        offsets.append(t)
    return offsets


def make_request(workload: Workload, seed: int, index: int) -> Dict:
    """The ``index``-th request body of ``workload`` under ``seed``.

    Styles alternate; which style goes first, and every sampling seed,
    come from ``seed``.
    """
    rng = random.Random(f"request:{workload.name}:{seed}:{index}")
    first = random.Random(f"first-style:{seed}").randrange(2)
    style = STYLES[(first + index) % 2]
    if workload.kind == "chat":
        return {"kind": "chat", "text": FREESIZE_TEXT.format(style=style)}
    return {
        "kind": "pipeline",
        "params": {
            "count": workload.count,
            "style": style,
            "seed": rng.randrange(2**31),
        },
    }


class HttpClient:
    """One short-lived connection per call, JSON in and out."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port

    def call(self, method: str, path: str, body: Optional[Dict] = None):
        """``(status, payload)``; raises ``OSError`` or ``HTTPException``."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=HTTP_TIMEOUT)
        try:
            data = json.dumps(body).encode("utf-8") if body is not None else None
            headers = {"Content-Type": "application/json"} if data else {}
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        if response.headers.get("Content-Type", "").startswith("application/json"):
            return response.status, json.loads(raw.decode("utf-8") or "{}")
        return response.status, raw.decode("utf-8")


@dataclass
class Outcome:
    """Client-side record of one request (times on ``time.perf_counter``)."""

    index: int
    requested: int
    due: float
    sent: float = 0.0
    posted: float = 0.0
    end: float = 0.0
    result_rtt: float = 0.0
    polls: int = 0
    job_id: Optional[str] = None
    produced: int = 0
    store_added: int = 0
    store_deduplicated: int = 0
    status: Dict = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def latency(self) -> float:
        return self.end - self.due


def execute(
    client: HttpClient,
    index: int,
    body: Dict,
    requested: int,
    due: float,
) -> Outcome:
    """Submit, poll to a terminal state and fetch one request's result."""
    out = Outcome(index=index, requested=requested, due=due)
    try:
        out.sent = time.perf_counter()
        status, payload = client.call("POST", "/v1/jobs", body)
        out.posted = time.perf_counter()
        if status != 202:
            out.error = f"submit answered {status}: {payload}"
            return out
        out.job_id = payload["job_id"]
        while True:
            time.sleep(POLL_INTERVAL)
            status, view = client.call("GET", f"/v1/jobs/{out.job_id}")
            out.polls += 1
            if status != 200:
                out.error = f"status answered {status}: {view}"
                return out
            if view["state"] in TERMINAL_STATES:
                break
            if time.perf_counter() - out.sent > JOB_TIMEOUT:
                out.error = f"job still {view['state']} after {JOB_TIMEOUT}s"
                return out
        fetch = time.perf_counter()
        status, result = client.call("GET", f"/v1/jobs/{out.job_id}/result")
        out.end = time.perf_counter()
        out.result_rtt = out.end - fetch
    except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
        out.error = f"{type(exc).__name__}: {exc}"
        return out
    out.status = view
    if status != 200:
        out.error = f"result answered {status}: {result}"
        return out
    stats = result.get("stats", {})
    out.produced = int(result.get("produced", 0))
    out.store_added = int(stats.get("store_added", 0))
    out.store_deduplicated = int(stats.get("store_deduplicated", 0))
    return out


def run_load(
    client: HttpClient,
    workload: Workload,
    seed: int,
    seconds: float,
) -> tuple:
    """Drive ``workload`` for ``seconds``; returns ``(t0, outcomes)``.

    Open loop: every scheduled request is sent at (or, when both threads
    are busy, after) its due time, and its latency counts from the due
    time.  Closed loop: each client sends until the window closes; a
    request's latency counts from when it was sent.  Requests sent inside
    the window are always waited for.
    """
    lock = threading.Lock()
    outcomes: List[Outcome] = []
    cursor = [0]
    offsets = (
        poisson_schedule(seed, workload.rate, seconds)
        if workload.loop == "open"
        else None
    )
    requested = workload.count
    t0 = time.perf_counter() + 0.05

    def take() -> Optional[int]:
        with lock:
            index = cursor[0]
            if offsets is not None and index >= len(offsets):
                return None
            cursor[0] += 1
            return index

    def open_client() -> None:
        while True:
            index = take()
            if index is None:
                return
            due = t0 + offsets[index]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            body = make_request(workload, seed, index)
            outcome = execute(client, index, body, requested, due)
            with lock:
                outcomes.append(outcome)

    def closed_client() -> None:
        delay = t0 - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        while time.perf_counter() < t0 + seconds:
            index = take()
            body = make_request(workload, seed, index)
            outcome = execute(client, index, body, requested, time.perf_counter())
            with lock:
                outcomes.append(outcome)

    target = open_client if workload.loop == "open" else closed_client
    threads = [
        threading.Thread(target=target, name=f"loadgen-{i}", daemon=True)
        for i in range(workload.threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 2 * JOB_TIMEOUT)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")
    outcomes.sort(key=lambda o: o.index)
    return t0, outcomes
