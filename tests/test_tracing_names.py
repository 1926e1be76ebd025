"""The traced benchmark pass wraps qformlab functions by name.

`perfbench/tracing.py` looks each entry of TARGETS and CACHES up by
module and attribute only when a traced pass runs, so a renamed or
deleted function would otherwise surface there alone.  This reads the
two tables and changes nothing in them.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    module = importlib.import_module("tracing")
    monkeypatch.delitem(sys.modules, "tracing")
    return module


def test_traced_names_resolve_in_qformlab(tracing):
    for prefix, module, qualname, _ in tracing.TARGETS:
        # a method must be the class's own: the tracer reads cls.__dict__
        owner = importlib.import_module("qformlab." + module)
        *path, attr = qualname.split(".")
        for name in path:
            owner = getattr(owner, name)
        assert callable(vars(owner).get(attr)), prefix
    for metric, attrs in tracing.CACHES.items():
        for module, attr in attrs:
            assert hasattr(importlib.import_module("qformlab." + module), attr), metric
