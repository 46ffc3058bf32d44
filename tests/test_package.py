import importlib
import pkgutil

import pytest

import anosovlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(anosovlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"anosovlab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
