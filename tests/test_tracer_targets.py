"""The benchmark tracer's targets still name functions and methods of fncalc.

``perfbench/tracer.py`` wraps each target at its binding sites by name; a
refactor that renames or moves one would break ``perfbench/run.py --trace 1``.
The tracer module is loaded from its file and not modified.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _tracer_targets()


def test_target_count():
    assert len(TARGETS) == 40
    assert len({name for name, *_ in TARGETS}) == 35


@pytest.mark.parametrize(
    "target", TARGETS, ids=[f"{name}:{attr}" for name, _, attr, _ in TARGETS]
)
def test_target_resolves(target):
    _, module_name, attr, owner_name = target
    module = importlib.import_module(module_name)
    if owner_name is None:
        assert callable(getattr(module, attr))
    else:
        assert callable(vars(getattr(module, owner_name))[attr])
