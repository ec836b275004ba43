"""The bench tracer's wrap targets exist in the package.

bench/traced.py wraps the functions of TRACED_MODULES and the methods named
in METHODS by name, so a rename or deletion in the package would break only
traced bench runs; this test makes it fail the suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parent.parent / "bench" / "traced.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, cls, method", _traced().METHODS)
def test_traced_method_resolves(module, cls, method):
    owner = getattr(importlib.import_module(f"supergrade.{module}"), cls)
    assert callable(vars(owner)[method])


@pytest.mark.parametrize("module", _traced().TRACED_MODULES)
def test_traced_module_imports(module):
    importlib.import_module(f"supergrade.{module}")
