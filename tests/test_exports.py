"""Public surface: every name a fncalc module lists in ``__all__`` resolves, and
every public class or function a module defines is listed there."""

import importlib
import inspect
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


@pytest.mark.parametrize("module_name", MODULES)
def test_public_definitions_are_exported(module_name):
    """A class or function defined in a module without a leading underscore is
    in that module's ``__all__``."""
    module = importlib.import_module(module_name)
    exported = set(getattr(module, "__all__", ()))
    public = [
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isclass(value) or inspect.isfunction(value))
        and value.__module__ == module_name
    ]
    unlisted = sorted(name for name in public if name not in exported)
    assert not unlisted, f"{module_name} defines public names outside __all__: {unlisted}"
