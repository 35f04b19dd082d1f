"""Every name a qmdp module lists in ``__all__`` resolves on that module."""

import importlib
import pkgutil

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
