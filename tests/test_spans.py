"""The traced benchmark pass (`benchmark/spans.py`) wraps program
functions by module and name; every one of them must still resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("module, name", load_spans())
def test_span_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"prehomog.{module}"), name, None))
