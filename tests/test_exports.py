"""Public surface: every name a fncalc module lists in ``__all__`` resolves,
every public class or function a module defines is listed there, every name
the package re-exports is listed in its submodule's ``__all__``, and every
name a fncalc or test module imports is used or re-exported."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import fncalc

MODULES = sorted(f"fncalc.{info.name}" for info in pkgutil.iter_modules(fncalc.__path__))
TESTS = pathlib.Path(__file__).resolve().parent
TEST_MODULES = sorted(f"tests.{path.stem}" for path in TESTS.glob("*.py"))


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


def test_package_reexports_are_exported():
    """A name ``fncalc/__init__.py`` imports from a submodule is in that
    submodule's ``__all__``, so a name dropped there cannot linger as a re-export."""
    tree = ast.parse(pathlib.Path(fncalc.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(f"fncalc.{node.module}").__all__
    ]
    assert not unlisted, f"fncalc re-exports names outside their module's __all__: {unlisted}"


@pytest.mark.parametrize("module_name", MODULES + TEST_MODULES)
def test_imported_names_are_used(module_name):
    """A name a module (not the package ``__init__``, which re-exports)
    imports at top level is read in that module or listed in its ``__all__``."""
    if module_name.startswith("tests."):
        path, exported = TESTS / f"{module_name[len('tests.'):]}.py", ()
    else:
        module = importlib.import_module(module_name)
        path, exported = pathlib.Path(module.__file__), getattr(module, "__all__", ())
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used - set(exported))
    assert not unused, f"{module_name} imports names it never uses: {unused}"
