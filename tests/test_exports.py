"""Public surface: every name a fncalc module lists in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import fncalc

MODULES = sorted(f"fncalc.{info.name}" for info in pkgutil.iter_modules(fncalc.__path__))


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
