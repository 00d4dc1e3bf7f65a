"""Spawn ``repro serve --http`` as a subprocess and stop it cleanly."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

_READY = re.compile(r"serving HTTP on http://([\d.]+):(\d+)")

#: Seconds a server may take from spawn to listening (imports + model fit).
START_TIMEOUT = 150.0

#: Seconds a server may take to drain and exit after SIGTERM.
STOP_TIMEOUT = 60.0


class Server:
    """One server process with a fresh store, state dir and model cache.

    ``spans_out`` launches it through ``launch_traced.py`` instead of
    ``python -m repro.cli``, so the span wrappers are installed.
    """

    def __init__(self, root: Path, workdir: Path, spans_out: Optional[Path] = None):
        self.root = root
        self.workdir = workdir
        self.spans_out = spans_out
        self.store_dir = workdir / "store"
        self.proc: Optional[subprocess.Popen] = None
        self.spawned_at = 0.0
        self.host = ""
        self.port = 0
        self.log: List[str] = []
        self._drain: Optional[threading.Thread] = None

    def start(self) -> "Server":
        self.workdir.mkdir(parents=True, exist_ok=True)
        serve_args = [
            "serve", "--http", "127.0.0.1:0",
            "--store", str(self.store_dir),
            "--state-dir", str(self.workdir / "state"),
            "--model-cache", str(self.workdir / "model-cache"),
        ]
        if self.spans_out is None:
            argv = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            launcher = Path(__file__).resolve().parent / "launch_traced.py"
            argv = [
                sys.executable, str(launcher),
                "--spans-out", str(self.spans_out), "--", *serve_args,
            ]
        env = dict(os.environ)
        # The ready line goes to a pipe; unbuffered, it arrives at once.
        env["PYTHONUNBUFFERED"] = "1"
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=str(self.root),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        ready = threading.Event()

        def pump() -> None:
            for line in self.proc.stdout:
                self.log.append(line.rstrip())
                match = _READY.search(line)
                if match and not ready.is_set():
                    self.host, self.port = match.group(1), int(match.group(2))
                    ready.set()
            ready.set()

        self._drain = threading.Thread(target=pump, name="server-log", daemon=True)
        self._drain.start()
        if not ready.wait(START_TIMEOUT) or not self.port:
            self.stop()
            tail = "\n".join(self.log[-20:])
            raise RuntimeError(f"server did not start listening:\n{tail}")
        return self

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        if match is None:
            raise RuntimeError("VmHWM missing from /proc status")
        return int(match.group(1)) / 1024.0

    def stop(self) -> int:
        """SIGTERM (graceful drain), then SIGKILL if it hangs; waits."""
        proc = self.proc
        if proc is None:
            return 0
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self._drain is not None:
            self._drain.join(timeout=10.0)
        return proc.returncode
