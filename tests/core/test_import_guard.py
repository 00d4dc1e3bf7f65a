"""The serving path imports no scipy.

scipy is needed only by the LegalGAN baseline and the LP cross-check of
the legalizer; a server must start, and its cold start stay short, without
it.  The check runs in a fresh interpreter so modules other tests imported
cannot leak into ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_serving_modules_do_not_import_scipy():
    code = (
        "import sys\n"
        "import repro.cli, repro.serve.http, repro.serve.service, "
        "repro.api.pipeline\n"
        "assert 'scipy' not in sys.modules, "
        "sorted(m for m in sys.modules if m.startswith('scipy'))[:5]\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
