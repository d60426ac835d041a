"""Per-layer tracing for the fncalc benchmark, installed from outside the program.

The tracer replaces each public function or method it measures with a
wrapper, at every place the program binds it: the defining module, every
module that imported it with ``from .x import name``, the package namespace,
and the class attribute for methods. Nothing inside ``src/`` is edited.

Each wrapped call records a count and its self time (its duration minus the
time covered by wrapped calls nested inside it). Calls outside the scalar
layer also keep a span ``(id, name, start, end, parent, op)`` in memory;
``write_spans`` saves them as JSON lines. The scalar layer (ScalarExpr
arithmetic, ``partial``, ``cancel``, ``parse``, ``str``) runs hundreds of
thousands of times per pass, so it keeps counts and self time only, no span
records.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

ARITH_METHODS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__pow__")

#: (metric name, module, attribute, class attribute or None) for each target.
TARGETS = (
    *(("scalar.arith", "fncalc.scalar", m, "ScalarExpr") for m in ARITH_METHODS),
    ("scalar.partial", "fncalc.scalar", "partial", "ScalarExpr"),
    ("scalar.cancel", "sympy.polys.rings", "cancel", "PolyElement"),
    ("scalar.parse", "fncalc.scalar", "parse_expr", None),
    ("scalar.str", "fncalc.scalar", "__str__", "ScalarExpr"),
    ("calculus.insertion", "fncalc.calculus", "insertion", None),
    ("calculus.lie_derivative", "fncalc.calculus", "lie_derivative", None),
    ("calculus.exterior_d", "fncalc.calculus", "exterior_d", None),
    ("calculus.fn_bracket", "fncalc.calculus", "fn_bracket", None),
    ("calculus.rn_bracket", "fncalc.calculus", "rn_bracket", None),
    ("calculus.nijenhuis_torsion", "fncalc.calculus", "nijenhuis_torsion", None),
    ("calculus.lie_bracket", "fncalc.calculus", "lie_bracket", None),
    ("calculus.form_eval", "fncalc.calculus", "__call__", "KForm"),
    ("calculus.compose", "fncalc.calculus", "compose", "VectorValuedForm"),
    ("algebroid.check_axioms", "fncalc.algebroid", "check_axioms", None),
    ("algebroid.bracket", "fncalc.algebroid", "bracket", "TangentAlgebroid"),
    ("algebroid.check_cohomology", "fncalc.algebroid", "check_cohomology", None),
    ("algebroid.derivation_from_algebroid", "fncalc.algebroid", "derivation_from_algebroid", None),
    ("algebroid.check_bundle_axioms", "fncalc.algebroid", "check_bundle_axioms", None),
    ("algebroid.invertible_algebroid", "fncalc.algebroid", "invertible_algebroid", None),
    ("algebroid.verify_trivial_isomorphism", "fncalc.algebroid", "verify_trivial_isomorphism", None),
    ("structures.idempotent_algebroid", "fncalc.structures", "idempotent_algebroid", None),
    ("structures.complex_projectors", "fncalc.structures", "complex_projectors", None),
    ("structures.complex_algebroid", "fncalc.structures", "complex_algebroid", None),
    ("structures.product_algebroid", "fncalc.structures", "product_algebroid", None),
    ("structures.foliation_connection", "fncalc.structures", "foliation_connection", None),
    ("structures.d_components", "fncalc.structures", "d_components", None),
    ("structures.tangent_data_for_chart", "fncalc.structures", "tangent_data_for_chart", None),
    ("structures.connection_from_semispray", "fncalc.structures", "connection_from_semispray", None),
    ("structures.connection_algebroid", "fncalc.structures", "connection_algebroid", None),
    ("linalg.inverse", "fncalc.linalg", "inverse", None),
    ("linalg.column_space_basis", "fncalc.linalg", "column_space_basis", None),
    ("cli.load_manifest", "fncalc.cli", "load_manifest", None),
    ("cli.run_check", "fncalc.cli", "run_check", None),
    ("cli.emit", "fncalc.cli", "emit", None),
)

#: Every wrapped function, by metric name, in a fixed order.
FUNCTIONS = tuple(dict.fromkeys(name for name, *_ in TARGETS))
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in FUNCTIONS))

#: Modules whose namespaces may hold a binding of a wrapped function.
BINDING_MODULES = (
    "fncalc",
    "fncalc.scalar",
    "fncalc.calculus",
    "fncalc.linalg",
    "fncalc.randgen",
    "fncalc.algebroid",
    "fncalc.structures",
    "fncalc.fixtures",
    "fncalc.cli",
)


def _total_degree(poly) -> int:
    return max((sum(m) for m in poly.itermonoms()), default=0)


class Tracer:
    """Counts, self times, typed errors and spans for every wrapped call."""

    def __init__(self):
        self.op_id = -1
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple] = []
        self.passes: list[dict] = []
        self.reset()

    def reset(self) -> None:
        """Zero the counters; spans already recorded are kept."""
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.cancel_useful = 0
        self.cancel_gaussian = 0

    def pass_done(self, wall: float) -> None:
        """Keep the counters of a pass that took ``wall`` seconds."""
        self.passes.append(
            {
                "wall": wall,
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "errors": dict(self.errors),
                "cancel_useful": self.cancel_useful,
                "cancel_gaussian": self.cancel_gaussian,
            }
        )

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every target at every binding site; ``uninstall`` restores."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [sys.modules[m] for m in BINDING_MODULES if m in sys.modules]
        for name, module_name, attr, owner_name in TARGETS:
            module = sys.modules[module_name]
            if owner_name is not None:
                owner = getattr(module, owner_name)
                self._bind(owner, attr, self._wrap(name, vars(owner)[attr]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _bind(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        layer = name.split(".")[0]
        keep_span = layer != "scalar"
        is_cancel = name == "scalar.cancel"
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [0.0, layer, span_id]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                crosses = parent is None or parent[1] != layer
                if crosses and type(exc).__module__.startswith("fncalc"):
                    tracer.errors[layer] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if keep_span:
                    tracer.spans.append(
                        (span_id, name, start, end, parent[2] if parent else None, tracer.op_id)
                    )
            if is_cancel:
                den = args[1]
                if _total_degree(result[1]) < _total_degree(den):
                    tracer.cancel_useful += 1
                if args[0].ring.domain.is_QQ_I:
                    tracer.cancel_gaussian += 1
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )
