"""Every name a rabounds module exports resolves, so no deleted name stays exported.

The same holds for every name the benchmark's tracer patches."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import rabounds

MODULES = ["rabounds"] + sorted(
    m.name
    for m in pkgutil.iter_modules(rabounds.__path__, "rabounds.")
    if m.name != "rabounds.__main__"
)


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(mod, name)] == []


def test_traced_names_resolve(monkeypatch):
    # perfbench/tests is not in this suite, so a dropped name would otherwise
    # surface only in a traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    targets = importlib.import_module("perfbench.tracer").TARGETS
    assert targets
    missing = [(m, a) for m, a in targets if not hasattr(importlib.import_module(m), a)]
    assert missing == []
