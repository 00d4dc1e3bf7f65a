"""The serving path imports no scipy and none of the offline tuner.

scipy is needed only by the LegalGAN baseline and the LP cross-check of
the legalizer, and the engine needs only the tuner's controller; a server
must start, and its cold start stay short, without the rest.  The checks
run in a fresh interpreter so modules other tests imported cannot leak
into ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


SERVING = (
    "import repro.cli, repro.serve.http, repro.serve.service, "
    "repro.api.pipeline\n"
)

#: The offline tuner: ``repro tune`` loads these, a server never does.
OFFLINE_TUNE = (
    "repro.tune.report",
    "repro.tune.search",
    "repro.tune.simulate",
    "repro.tune.workload",
)


def _run(code: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_serving_modules_do_not_import_scipy():
    _run(
        "import sys\n" + SERVING
        + "assert 'scipy' not in sys.modules, "
        "sorted(m for m in sys.modules if m.startswith('scipy'))[:5]\n"
    )


def test_serving_modules_load_only_the_tuner_controller():
    _run(
        "import sys\n" + SERVING
        + "import repro.serve.engine\n"
        f"loaded = sorted(set({OFFLINE_TUNE!r}) & set(sys.modules))\n"
        "assert not loaded, loaded\n"
        "assert 'repro.tune.controller' in sys.modules\n"
    )


def test_offline_tuner_names_resolve_on_first_use():
    _run(
        "import sys\n"
        "from repro.tune import grid_search, WorkloadSpec, render_report\n"
        "import repro.tune as tune\n"
        "from repro.tune.search import grid_search as direct\n"
        "assert grid_search is direct\n"
        "assert 'repro.tune.report' in sys.modules\n"
        "for name in tune.__all__:\n"
        "    getattr(tune, name)\n"
        "try:\n"
        "    tune.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown name resolved')\n"
    )
