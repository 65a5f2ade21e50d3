"""Smoke test of the benchmark's workloads against the library in src/.

Loads bench/workloads.py without writing into bench/, builds every
workload's operations with seed 11 and runs the first operation of each
kind through its checker.  A library name that the benchmark reads (a
checker, `co_line(g).graph`, a ground limit) that goes missing fails here.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("common", "graphs", "transforms", "matching", "exactla", "simplex",
           "equicert", "recognizers", "corpus", "cli")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("workloads", "reference"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    module = importlib.import_module("workloads")
    yield module
    for name in ("workloads", "reference"):
        sys.modules.pop(name, None)


def test_first_operation_of_each_kind_checks_ok(workloads, tmp_path):
    eq = types.SimpleNamespace(**{m: importlib.import_module(f"equilab.{m}") for m in MODULES})
    kinds = {}
    for name, build in workloads.WORKLOADS.items():
        for op in build(eq, 11, tmp_path, set()):
            kinds.setdefault(op.kind, op)
    assert len(kinds) == 9
    for kind, op in kinds.items():
        status, detail = op.check(*op.run())
        assert status == workloads.OK, f"{kind} {op.label}: {status} {detail}"
