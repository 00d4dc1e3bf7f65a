"""The benchmark's span recorder must find every function it wraps.

``perfbench/tracing.py`` wraps its ``TARGETS`` by looking each one up the
way ``install()`` does: methods in their class's ``__dict__`` (so only a
method defined on that class itself counts), module functions by module
attribute.  A renamed or inherited target would break traced runs only
at run time; this pins the lookup in the test suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module_name,attribute", [target[:2] for target in _targets()]
)
def test_target_resolves_like_install(module_name, attribute):
    module = importlib.import_module(module_name)
    if "." in attribute:
        class_name, method = attribute.split(".")
        cls = getattr(module, class_name)
        assert callable(cls.__dict__[method])
    else:
        assert callable(getattr(module, attribute))
