"""Stdlib-only asyncio HTTP front-end over :class:`PatternService`.

The first wire protocol of the serving stack: requests enter as lifecycle
jobs (:mod:`repro.serve.jobs`) and every endpoint is a view of the job
table, so the process boundary adds no second bookkeeping layer.

Endpoints::

    POST   /v1/jobs           submit -> 202 {job_id} | 429 queue_full |
                              503 shutdown (draining; has Retry-After)
    GET    /v1/jobs/{id}      progress: state, stage, transitions,
                              stage_events, engine_events  | 404
    GET    /v1/jobs/{id}/result
                              200 result (the job's compact outcome;
                              ``?topologies=1`` unpacks its patterns) |
                              202 still running | 409 cancelled |
                              429 queue_full | 504 deadline_expired |
                              500 failed
    DELETE /v1/jobs/{id}      cancel: 200 honored | 409 conflict
                              (job already finished) | 404
    GET    /metrics           Prometheus text exposition (repro.obs)
    GET    /healthz           liveness + job-table counts

Status mapping is keyed on the job's stable ``error_code`` (never the
message text): the engine's admission backpressure surfaces as 429, its
deadline expiry as 504, a cancel race against a finished job as 409, and
any other failure as 500.
Every 429 carries a ``Retry-After`` header derived from the service's
live batch latency (:meth:`PatternService.retry_after_hint`), so
backpressured clients pace their retries to how fast the queue actually
drains.

The server is a plain ``asyncio.start_server`` loop running on a
dedicated thread, so it embeds in tests (ephemeral port: ``port=0``), the
CLI (``repro serve --http``) and scripts the same way.  Handlers never
block the loop: job submission, status and cancel are sub-millisecond
job-table operations — the heavy work runs on the service's request pool
and the engine behind it.  ``serve_forever`` installs SIGINT/SIGTERM
handlers (both signals drain identically) and performs a graceful
shutdown: stop accepting, let every admitted job reach a terminal state,
then stop the service and its engine threads.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import faults
from repro.api.config import OBJECTIVES
from repro.faults import FaultError
from repro.obs.export import render_exposition
from repro.serve.engine import QueueFullError
from repro.serve.jobs import (
    CANCELLED,
    CODE_DEADLINE_EXPIRED,
    CODE_INVALID_REQUEST,
    CODE_QUEUE_FULL,
    CODE_SHUTDOWN,
    EXPIRED,
    SUCCEEDED,
)
from repro.serve.service import PatternService, ServeRequest

#: Submission bodies beyond this are rejected with 413.
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Request fields POST /v1/jobs accepts.
_SUBMIT_FIELDS = frozenset(
    {"text", "objective", "source", "deadline", "kind", "params",
     "client_job_id"}
)


class PatternHttpServer:
    """Asyncio HTTP server exposing a :class:`PatternService`.

    Args:
        service: the service to expose; ``start`` warms it (model resolve
            + engine up) before accepting, so no request ever pays — or
            blocks the event loop with — the model fit.
        host / port: bind address.  ``port=0`` binds an ephemeral port;
            read the real one from ``.port`` after ``start()``.
    """

    def __init__(
        self,
        service: PatternService,
        host: str = "127.0.0.1",
        port: int = 8763,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._draining = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._server is not None and self._server.is_serving()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self, timeout: float = 120.0) -> "PatternHttpServer":
        """Warm the service, bind the socket, start serving (background
        thread); returns once the port is accepting."""
        if self._thread is not None:
            return self
        # The expensive part (model fit / registry load, engine start)
        # happens before the loop exists, so it cannot stall handlers.
        self.service.start()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-http", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=timeout):
            raise RuntimeError("HTTP server failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"HTTP server failed to bind {self.host}:{self.port}"
            ) from self._startup_error
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self._server = loop.run_until_complete(
                asyncio.start_server(self._handle_client, self.host, self.port)
            )
            self.port = self._server.sockets[0].getsockname()[1]
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            self._server.close()
            loop.run_until_complete(self._server.wait_closed())
            loop.close()

    def stop(self, drain: bool = True, stop_service: bool = True) -> None:
        """Stop the server; optionally drain admitted jobs and stop the
        service (the SIGINT path).  ``drain=False`` abandons queued work.

        The drain happens *while the event loop is still serving*: new
        submissions receive 503 + ``Retry-After`` (instead of a reset
        connection), status/result polls keep working, and only once
        every admitted job is terminal does the listener go down.
        """
        if drain:
            self._draining.set()
            self.service.drain()
        loop, self._loop = self._loop, None
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        self._server = None
        self._ready.clear()
        self._draining.clear()
        if stop_service:
            self.service.stop()

    def serve_forever(self) -> None:
        """Blocking entrypoint with graceful drain on SIGINT/SIGTERM."""
        stop_requested = threading.Event()

        def _on_signal(signum, frame):
            stop_requested.set()

        previous = {
            sig: signal.signal(sig, _on_signal)
            for sig in (signal.SIGINT, signal.SIGTERM)
        }
        try:
            self.start()
            stop_requested.wait()
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            self.stop(drain=True, stop_service=True)

    def __enter__(self) -> "PatternHttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- connection handling -------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        extra_headers: Dict[str, str] = {}
        try:
            faults.fire("http.accept")
        except FaultError:
            # Injected accept failure: the client sees a dropped
            # connection, exactly like a crashed front-end.
            writer.close()
            return
        try:
            response = await self._handle_request(reader)
            # Handlers return (status, payload, content_type) or the same
            # plus a headers dict (e.g. Retry-After on 429).
            if len(response) == 4:
                status, payload, content_type, extra_headers = response
            else:
                status, payload, content_type = response
        except Exception as exc:  # defensive: a handler bug must not
            # kill the connection silently
            status, content_type = 500, "application/json"
            payload = json.dumps(
                {"error": f"{type(exc).__name__}: {exc}",
                 "error_code": "internal"}
            )
        try:
            faults.fire("http.respond")
            body = payload.encode("utf-8")
            extra = "".join(
                f"{name}: {value}\r\n"
                for name, value in (extra_headers or {}).items()
            )
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{extra}"
                "Connection: close\r\n"
                "\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except FaultError:
            pass  # injected respond failure: drop without answering
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def _handle_request(self, reader) -> Tuple:
        request_line = await reader.readline()
        if not request_line:
            return 400, _error_body("empty request"), "application/json"
        try:
            method, target, _version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            return 400, _error_body("malformed request line"), "application/json"
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            return 400, _error_body("bad Content-Length"), "application/json"
        if length > MAX_BODY_BYTES:
            return (
                413,
                _error_body(f"body exceeds {MAX_BODY_BYTES} bytes"),
                "application/json",
            )
        body = await reader.readexactly(length) if length else b""
        return self._route(method.upper(), target, body)

    # -- routing -------------------------------------------------------

    def _route(self, method: str, target: str, body: bytes):
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        query = parse_qs(parts.query)
        if path == "/v1/jobs":
            if method == "POST":
                return self._submit(body)
            return self._method_not_allowed()
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/result"):
                job_id = rest[: -len("/result")]
                if method == "GET":
                    return self._result(job_id, query)
                return self._method_not_allowed()
            job_id = rest
            if "/" in job_id:
                return self._not_found("unknown route")
            if method == "GET":
                return self._status(job_id)
            if method == "DELETE":
                return self._cancel(job_id)
            return self._method_not_allowed()
        if path == "/metrics" and method == "GET":
            exposition = render_exposition(self.service.metrics.snapshot())
            return 200, exposition, "text/plain; version=0.0.4; charset=utf-8"
        if path == "/healthz" and method == "GET":
            return (
                200,
                json.dumps({"ok": True, "jobs": self.service.jobs.counts()}),
                "application/json",
            )
        return self._not_found("unknown route")

    def _method_not_allowed(self):
        return 405, _error_body("method not allowed"), "application/json"

    def _not_found(self, message: str):
        return (
            404,
            _error_body(message, code="not_found"),
            "application/json",
        )

    # -- endpoints -----------------------------------------------------

    def _submit(self, body: bytes):
        if self._draining.is_set() or not self.service.accepting:
            # Graceful drain: refuse loudly and retryably instead of
            # resetting the connection — the client backs off and
            # resubmits against the restarted server.
            return (
                503,
                _error_body(
                    "service is draining; retry after the restart",
                    code=CODE_SHUTDOWN,
                ),
                "application/json",
                self._retry_after_headers(),
            )
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return (
                400,
                _error_body(f"bad JSON body: {exc}"),
                "application/json",
            )
        if not isinstance(payload, dict):
            return (
                400,
                _error_body("body must be a JSON object"),
                "application/json",
            )
        unknown = set(payload) - _SUBMIT_FIELDS
        if unknown:
            return (
                400,
                _error_body(
                    f"unknown fields {sorted(unknown)}; "
                    f"allowed: {sorted(_SUBMIT_FIELDS)}"
                ),
                "application/json",
            )
        kind = payload.get("kind", "chat")
        text = payload.get("text", "")
        if kind == "chat" and not text:
            return (
                400,
                _error_body('"text" is required for kind="chat"'),
                "application/json",
            )
        client_job_id = payload.get("client_job_id")
        if client_job_id is not None and (
            not isinstance(client_job_id, str) or not client_job_id
        ):
            return (
                400,
                _error_body('"client_job_id" must be a non-empty string'),
                "application/json",
            )
        source = payload.get("source", "default")
        if not isinstance(source, str) or not source:
            return (
                400,
                _error_body('"source" must be a non-empty string'),
                "application/json",
            )
        objective = payload.get("objective")
        if objective is not None and objective not in OBJECTIVES:
            return (
                400,
                _error_body(
                    f'"objective" must be one of {list(OBJECTIVES)}'
                ),
                "application/json",
            )
        try:
            request = ServeRequest(
                text=text,
                objective=objective,
                source=source,
                deadline=payload.get("deadline"),
                kind=kind,
                params=payload.get("params"),
                client_job_id=client_job_id,
            )
            job = self.service.submit_job(request, enforce_queue_limit=True)
        except QueueFullError as exc:
            return (
                429,
                _error_body(str(exc), code=exc.code),
                "application/json",
                self._retry_after_headers(),
            )
        except (ValueError, TypeError) as exc:
            return 400, _error_body(str(exc)), "application/json"
        return (
            202,
            json.dumps(
                {
                    "job_id": job.job_id,
                    "state": job.state,
                    "status_url": f"/v1/jobs/{job.job_id}",
                    "result_url": f"/v1/jobs/{job.job_id}/result",
                }
            ),
            "application/json",
        )

    def _status(self, job_id: str):
        status = self.service.job_status(job_id)
        if status is None:
            return self._not_found(f"unknown job {job_id!r}")
        return 200, json.dumps(status), "application/json"

    def _cancel(self, job_id: str):
        job, effective = self.service.cancel_job(job_id)
        if job is None:
            return self._not_found(f"unknown job {job_id!r}")
        if not effective:
            # The cancel lost the race: the job already reached a
            # different terminal state.
            return (
                409,
                json.dumps(
                    {
                        "error": (
                            f"job {job_id} already finished in state "
                            f"{job.state}; nothing to cancel"
                        ),
                        "error_code": "conflict",
                        "job_id": job_id,
                        "state": job.state,
                    }
                ),
                "application/json",
            )
        return (
            200,
            json.dumps(
                {
                    "job_id": job_id,
                    "state": job.state,
                    "cancel_requested": job.cancel_requested,
                }
            ),
            "application/json",
        )

    def _result(self, job_id: str, query: Dict):
        job = self.service.jobs.get(job_id)
        if job is None:
            return self._not_found(f"unknown job {job_id!r}")
        job.maybe_expire()
        if not job.is_terminal:
            return (
                202,
                json.dumps(
                    {
                        "job_id": job_id,
                        "state": job.state,
                        "stage": job.stage,
                        "detail": "job has not reached a terminal state yet",
                    }
                ),
                "application/json",
            )
        if job.state == SUCCEEDED:
            include_topologies = query.get("topologies", ["0"])[0] in (
                "1",
                "true",
            )
            return (
                200,
                json.dumps(_result_payload(job, include_topologies)),
                "application/json",
            )
        # Terminal failures map by stable code, never by message text.
        status = 500
        if job.error_code == CODE_SHUTDOWN:
            # Shed during a drain, not cancelled by the user: retryable.
            status = 503
        elif job.state == CANCELLED:
            status = 409
        elif job.state == EXPIRED or job.error_code == CODE_DEADLINE_EXPIRED:
            status = 504
        elif job.error_code == CODE_QUEUE_FULL:
            status = 429
        elif job.error_code == CODE_INVALID_REQUEST:
            status = 400
        body = json.dumps(
            {
                "job_id": job_id,
                "state": job.state,
                "error": job.error,
                "error_code": job.error_code,
            }
        )
        if status in (429, 503):
            return status, body, "application/json", self._retry_after_headers()
        return status, body, "application/json"

    def _retry_after_headers(self) -> Dict[str, str]:
        """``Retry-After`` for backpressure responses, from live latency."""
        return {"Retry-After": str(self.service.retry_after_hint())}


def _error_body(message: str, code: str = CODE_INVALID_REQUEST) -> str:
    return json.dumps({"error": message, "error_code": code})


def _result_payload(job, include_topologies: bool) -> Dict:
    """JSON view of a succeeded job's outcome (library + stage record).

    Read from the job's compact :class:`~repro.serve.jobs.JobOutcome`;
    topologies are unpacked only when asked for.
    """
    outcome = job.outcome
    payload: Dict = {
        "job_id": job.job_id,
        "state": job.state,
        "produced": job.produced,
        "stage_events": [e.as_dict() for e in job.stage_events],
    }
    if outcome is None:
        return payload
    stats = outcome.stats
    payload["request_id"] = stats.request_id
    payload["stats"] = {
        "wall_seconds": round(stats.wall_seconds, 4),
        "queue_wait_seconds": round(stats.queue_wait_seconds, 4),
        "samples": stats.samples,
        "store_added": stats.store_added,
        "store_deduplicated": stats.store_deduplicated,
    }
    if outcome.patterns is None:
        return payload
    payload["dropped"] = outcome.dropped
    if outcome.scores:
        payload["scores"] = outcome.scores
    if outcome.timings is not None:
        payload["timings"] = [t.as_dict() for t in outcome.timings]
    patterns = []
    for index, packed in enumerate(outcome.patterns):
        entry: Dict = {"index": index, "shape": list(packed.shape)}
        if include_topologies:
            entry["topology"] = packed.unpack().tolist()
        patterns.append(entry)
    payload["library"] = patterns
    return payload


__all__ = [
    "MAX_BODY_BYTES",
    "PatternHttpServer",
]
