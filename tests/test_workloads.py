"""The benchmark's own checks (`benchmark/workloads.py`) on the program:
every operation of each workload, for seed 1, gives the output its check
accepts, so a change that the benchmark would report as a failed or
incorrect operation fails here first."""

import importlib.util
from pathlib import Path

import pytest

from prehomog import fixtures
from prehomog.cli import run

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["dtilde3", "sweep", "pointwise"])
def test_every_operation_passes_its_check(name, tmp_path):
    workloads = load_workloads()
    assert sorted(workloads.WORKLOADS) == ["dtilde3", "pointwise", "sweep"]
    ops = workloads.build(name, 1, fixtures, tmp_path)
    failures = [(op.label, op.check(*run(op.argv))) for op in ops]
    assert len(ops) == {"dtilde3": 1, "sweep": 62, "pointwise": 56}[name]
    assert [f for f in failures if f[1] is not None] == []
