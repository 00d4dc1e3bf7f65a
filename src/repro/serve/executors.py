"""Executor backends: layer 3 of the serving engine, behind a protocol.

:class:`~repro.serve.engine.ServeEngine` owns admission, batching policy
and routing; an :class:`ExecutorBackend` owns only *where trajectories
run*.  The one backend is :class:`ThreadExecutor`: ``engine_workers``
in-process threads gather batches and run each trajectory through the
bound model object directly.  True parallelism is whatever numpy
releases the GIL for.  The base class stays as the seam for other
placement strategies.
"""

from __future__ import annotations

import threading
import time
from typing import List


class ExecutorBackend:
    """Protocol of the engine's executor layer.

    A backend brings workers up against an engine, has them drain its
    queue (``engine._worker_loop``, or ``engine._next_batch()`` /
    ``engine._plan()`` / ``engine._finish_plan()`` for a backend that runs
    trajectories its own way), and tears them down.  A backend instance
    belongs to one engine and is restartable (stop then start again).
    """

    name = "base"

    def start(self, engine) -> None:
        raise NotImplementedError

    @property
    def running(self) -> bool:
        raise NotImplementedError

    def join(self, deadline: float) -> None:
        """Wait (until ``deadline``, perf_counter clock) for workers to
        finish their loops.  Does not interrupt them — the engine flips
        its drain/halt events first."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release worker resources after the loops ended.  Must be
        idempotent."""


class ThreadExecutor(ExecutorBackend):
    """The classic in-process pool: ``engine_workers`` gather threads."""

    name = "thread"

    def __init__(self) -> None:
        self._threads: List[threading.Thread] = []

    def start(self, engine) -> None:
        self._threads = [
            threading.Thread(
                target=engine._worker_loop,
                args=(index,),
                name=f"repro-serve-engine-{index}",
                daemon=True,
            )
            for index in range(engine.engine_workers)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def running(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    def join(self, deadline: float) -> None:
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.perf_counter()))

    def shutdown(self) -> None:
        self._threads = []
