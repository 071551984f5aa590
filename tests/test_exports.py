"""Every name a rabounds module exports resolves, so no deleted name stays exported."""

import importlib
import pkgutil

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
