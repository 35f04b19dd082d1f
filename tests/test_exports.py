"""Every name a qmdp module lists in ``__all__`` resolves on that module, and
every qmdp attribute the traced benchmark wraps still exists."""

import importlib
import pkgutil
from functools import reduce
from pathlib import Path

import pytest

import qmdp

MODULES = sorted(info.name for info in pkgutil.iter_modules(qmdp.__path__, "qmdp."))


def test_every_module_is_listed():
    assert "qmdp.solvers" in MODULES and "qmdp.qsim" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which {name} does not define"


def test_perfbench_targets_resolve(monkeypatch):
    # a rename of a wrapped function fails here, not only in the traced run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    layers = importlib.import_module("layers")
    missing = [f"qmdp.{module}.{attr}" for module, attr, *_ in layers.TARGETS
               if reduce(lambda owner, name: getattr(owner, name, None), attr.split("."),
                         importlib.import_module(f"qmdp.{module}")) is None]
    assert len(layers.TARGETS) > 20 and not missing, missing
