"""Run ``repro.cli`` with the benchmark's span wrappers installed.

Usage (from the repository root)::

    python perfbench/launch_traced.py --spans-out SPANS.json -- \
        serve --http 127.0.0.1:0 --store DIR ...

Everything after ``--`` goes to ``repro.cli.main`` unchanged.  The imports
are timed (the ``setup.import_s`` row), the wrappers of
:mod:`tracing` are installed, the server runs until SIGTERM, and the
spans collected in memory are written to ``--spans-out`` on exit.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))

#: Modules imported before patching, so that functions they import by name
#: are rebound too (``repro.cli`` imports the serving stack lazily).
_MODULES = (
    "repro.cli",
    "repro.serve.http",
    "repro.serve.service",
    "repro.serve.jobs",
    "repro.serve.registry",
    "repro.serve.store",
    "repro.core.chatpattern",
    "repro.agent.tools",
    "repro.api.pipeline",
    "repro.ops",
    "repro.ops.extend",
    "repro.ops.modify",
    "repro.metrics.legality",
    "repro.legalize.legalizer",
    "repro.drc.checker",
    "repro.diffusion.model",
    "repro.diffusion.denoisers.neighborhood",
)


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out" or argv[2] != "--":
        print(
            "usage: launch_traced.py --spans-out PATH -- REPRO_CLI_ARGS...",
            file=sys.stderr,
        )
        return 2
    spans_out, cli_args = argv[1], argv[3:]
    sys.path.insert(0, _HERE)
    import tracing

    started = time.perf_counter()
    for name in _MODULES:
        importlib.import_module(name)
    import_seconds = time.perf_counter() - started

    recorder = tracing.SpanRecorder()
    tracing.install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_out, {"import_s": import_seconds})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
