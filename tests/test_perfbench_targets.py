"""Every name the benchmark's tracer wraps still resolves in the package.

The benchmark's own tests lie outside the `testpaths` of pyproject.toml,
so without this guard a deletion that breaks the traced run would pass
the test suite.  It reads TARGETS from perfbench/tracing.py, so it follows
that list as it changes.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("span, module_name, dotted, holders", TARGETS,
                         ids=[target[0] for target in TARGETS])
def test_traced_name_resolves_in_every_holder(span, module_name, dotted, holders):
    for holder_name in (module_name, *holders):
        obj = importlib.import_module(f"hodgekit.{holder_name}")
        for part in dotted.split("."):
            assert hasattr(obj, part), f"{span}: hodgekit.{holder_name} has no {dotted}"
            obj = getattr(obj, part)
        assert callable(obj), f"{span}: hodgekit.{holder_name}.{dotted} is not callable"
