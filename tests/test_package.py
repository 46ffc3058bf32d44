import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import anosovlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(anosovlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"anosovlab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_every_traced_name_resolves():
    # bench/run.py --trace rebinds each TRACED name by looking it up in the
    # package; a renamed or deleted function breaks traced runs
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for qualname in tracing.TRACED:
        module_name, attr = qualname.split(".")
        module = importlib.import_module(f"anosovlab.{module_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(qualname)
    assert len(tracing.TRACED) == 15
    assert missing == []
