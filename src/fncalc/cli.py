"""Command-line interface: manifest loading, check dispatch, reports.

Manifests are JSON documents describing a chart, named objects on it
(endomorphism fields, vector-valued forms, algebroids, bundle algebroids,
semisprays) and a list of checks. Matrix convention: entry [i][j] of an
endomorphism is the coefficient of the i-th coordinate field in the image of
the j-th one; a bundle anchor has one row per section instead, so its entry
[a][i] is the i-th coordinate component of q(s_a). Reports are
deterministic; JSON output is byte-identical across runs for a fixed manifest
and seed (timings appear only in the text format).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from typing import Any, Callable, Iterable, Sequence

from .algebroid import (
    BundleAlgebroid,
    SingularAnchorError,
    TangentAlgebroid,
    check_axioms,
    check_bundle_axioms,
    check_cohomology,
    derivation_from_algebroid,
    invertible_algebroid,
    verify_trivial_isomorphism,
)
from .calculus import (
    CalculusError,
    Chart,
    KForm,
    VectorField,
    VectorValuedForm,
    _Record,
    nijenhuis_torsion,
)
from .scalar import ScalarError, ScalarExpr, _quote
from .structures import (
    _d_components,
    complex_algebroid,
    connection_algebroid,
    connection_from_semispray,
    foliation_connection,
    idempotent_algebroid,
    product_algebroid,
    semispray,
    tangent_data_for_chart,
)

__all__ = [
    "Manifest",
    "ManifestError",
    "CheckRecord",
    "load_manifest",
    "run_check",
    "emit",
    "main",
]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

#: Largest probe degree a manifest or ``--probe-degree`` may ask for. A random
#: probe field of degree d has C(n+d, n) terms per component on an n-chart.
#: The Jacobi records of a failing axioms check hold 3x3 minors of probe
#: components, so their size and cost grow with a power of d; the fixtures
#: use 2.
MAX_PROBE_DEGREE = 10

#: Longest name a manifest may give a coordinate, an object or a check, or
#: use to refer to one: reports echo names, so a longer one is refused.
MAX_NAME_LENGTH = 256

#: Check-descriptor keys that name a manifest object, in label order:
#: key -> (Manifest attribute, noun for error messages).
_OBJECTS = {
    "endo": ("endomorphisms", "endomorphism"),
    "algebroid": ("algebroids", "algebroid"),
    "bundle_algebroid": ("bundle_algebroids", "bundle algebroid"),
    "spray": ("sprays", "spray"),
}


class ManifestError(Exception):
    """Invalid manifest contents: bad syntax, shapes or unresolved names."""


class Manifest(_Record):
    """A fully parsed manifest; every named object is already validated."""

    __slots__ = _fields = (
        "path", "chart", "seed", "probe_degree", "points", "endomorphisms", "forms",
        "algebroids", "bundle_algebroids", "sprays", "checks",
    )


class CheckRecord(_Record):
    """One per-check report row; ``status`` is pass/fail/error."""

    __slots__ = _fields = (
        "name", "construction", "status", "residuals", "message", "details", "elapsed"
    )

    def __init__(
        self, name: str, construction: str, status: str, residuals: list[dict[str, str]],
        message: str = "", details: dict[str, Any] | None = None, elapsed: float = 0.0,
    ):
        self.name, self.construction, self.status = name, construction, status
        self.residuals, self.message, self.elapsed = residuals, message, elapsed
        self.details = {} if details is None else details

    def as_json(self) -> dict[str, Any]:
        out = {
            "construction": self.construction,
            "name": self.name,
            "residuals": self.residuals,
            "status": self.status,
        }
        if self.message:
            out["message"] = self.message
        if self.details:
            out["details"] = self.details
        return out


# ---------------------------------------------------------------------------
# Manifest loading
# ---------------------------------------------------------------------------


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ManifestError(message)


def _is_int(value: Any) -> bool:
    # bool is a subclass of int, but true is no number
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_scalar(chart: Chart, text: Any, where: str) -> ScalarExpr:
    _expect(isinstance(text, str), f"{where}: expected an expression string")
    try:
        return chart.scalar(text)
    except ScalarError as exc:
        raise ManifestError(f"{where}: {exc}") from exc


def _parse_matrix(chart: Chart, rows: Any, n_rows: int, where: str) -> list[list[ScalarExpr]]:
    """``n_rows`` rows of ``chart.dim`` expressions each, checked row by row."""
    dim = chart.dim
    _expect(
        isinstance(rows, list) and len(rows) == n_rows,
        f"{where}: expected {n_rows} rows",
    )
    mat = []
    for i, row in enumerate(rows):
        _expect(
            isinstance(row, list) and len(row) == dim,
            f"{where}: row {i + 1} must have {dim} entries",
        )
        mat.append(
            [_parse_scalar(chart, e, f"{where}[{i + 1}][{j + 1}]") for j, e in enumerate(row)]
        )
    return mat


#: comma-separated indices of ASCII digits, each with optional spaces around it
_INDICES_RE = re.compile(r" *[0-9]+ *(?:, *[0-9]+ *)*")


def _read_indices(text: str) -> tuple[int, ...] | None:
    """The indices listed in ``text``, or None unless it matches ``_INDICES_RE``."""
    try:
        return tuple(map(int, text.split(","))) if _INDICES_RE.fullmatch(text) else None
    except ValueError:  # more digits than int() converts
        return None


def _parse_multi_index(key: str, degree: int, dim: int, where: str) -> tuple[int, ...]:
    parts = _read_indices(key) if key else ()  # "" is the multi-index of degree 0
    _expect(parts is not None, f"{where}: bad multi-index {_quote(key)}")
    _expect(
        len(parts) == degree, f"{where}: multi-index {_quote(key)} needs {degree} entries"
    )
    idx = tuple(p - 1 for p in parts)
    _expect(
        all(0 <= p < dim for p in idx) and all(a < b for a, b in zip(idx, idx[1:])),
        f"{where}: multi-index {_quote(key)} must be increasing 1-based coordinates",
    )
    return idx


def _parse_form(chart: Chart, spec: Any, where: str) -> VectorValuedForm:
    """A vector-valued form: per multi-index, one component per coordinate field."""
    _expect(isinstance(spec, dict), f"{where}: expected an object")
    degree = spec.get("degree")
    _expect(_is_int(degree) and degree >= 0, f"{where}: bad degree")
    entries = spec.get("entries", {})
    _expect(isinstance(entries, dict), f"{where}: entries must be an object")
    comps: list[dict[tuple[int, ...], ScalarExpr]] = [dict() for _ in range(chart.dim)]
    keys: dict[tuple[int, ...], str] = {}
    for key, value in entries.items():
        idx = _parse_multi_index(key, degree, chart.dim, where)
        if idx in keys:
            raise ManifestError(
                f"{where}: multi-indices {_quote(keys[idx])} and {_quote(key)} are the same"
            )
        keys[idx] = key
        _expect(
            isinstance(value, list) and len(value) == chart.dim,
            f"{where}: entry {_quote(key)} needs {chart.dim} components",
        )
        label = ",".join(str(p + 1) for p in idx)  # not the raw key, which may be padded
        for j, text in enumerate(value):
            comps[j][idx] = _parse_scalar(chart, text, f"{where}[{label}][{j + 1}]")
    return VectorValuedForm(
        chart, degree, [KForm(chart, degree, c) for c in comps]
    )


def _resolve_correction(
    chart: Chart,
    anchor: VectorValuedForm,
    spec: str,
    forms: dict[str, VectorValuedForm],
    where: str,
) -> VectorValuedForm:
    if spec in forms:
        form = forms[spec]
        _expect(form.degree == 2, f"{where}: correction {_quote(spec)} must have degree 2")
        return form
    if spec == "auto:zero":
        return VectorValuedForm.zero(chart, 2)
    if spec == "auto:torsion":
        return -nijenhuis_torsion(anchor)
    if spec == "auto:invertible":
        try:
            return invertible_algebroid(anchor).correction
        except SingularAnchorError as exc:
            raise ManifestError(f"{where}: {exc}") from exc
    raise ManifestError(f"{where}: unknown correction {_quote(spec)}")


def _parse_structure_key(key: str, rank: int, where: str) -> tuple[int, int, int]:
    if not (key.startswith("c[") and key.endswith("]")):
        raise ManifestError(f"{where}: structure key {_quote(key)} must look like c[a,b,c]")
    parts = _read_indices(key[2:-1])
    _expect(
        parts is not None and len(parts) == 3, f"{where}: bad structure key {_quote(key)}"
    )
    a, b, c = parts
    _expect(
        all(1 <= p <= rank for p in (a, b, c)),
        f"{where}: indices in {_quote(key)} out of range",
    )
    return a - 1, b - 1, c - 1


def _parse_bundle(chart: Chart, spec: Any, where: str) -> BundleAlgebroid:
    _expect(isinstance(spec, dict), f"{where}: expected an object")
    rank = spec.get("rank")
    _expect(_is_int(rank) and rank >= 1, f"{where}: bad rank")
    anchor = _parse_matrix(chart, spec.get("anchor"), rank, f"{where}.anchor")
    structure: dict[tuple[int, int], list[ScalarExpr]] = {}
    raw = spec.get("structure", {})
    _expect(isinstance(raw, dict), f"{where}: structure must be an object")
    first: dict[tuple[int, int, int], str] = {}  # the first key of each c_ab^c, a < b
    for key, text in raw.items():
        a, b, c = _parse_structure_key(key, rank, where)
        label = f"c[{a + 1},{b + 1},{c + 1}]"  # not the raw key, which may be padded
        value = _parse_scalar(chart, text, f"{where}.structure[{label}]")
        if a == b:
            _expect(value.is_zero, f"{where}: {label} must vanish (antisymmetry)")
            continue
        if a > b:
            a, b, value = b, a, -value
        row = structure.setdefault((a, b), [chart.zero] * rank)
        earlier = first.setdefault((a, b, c), key)
        _expect(
            earlier == key or row[c] == value,
            f"{where}: structure keys {_quote(earlier)} and {_quote(key)} disagree",
        )
        row[c] = value
    return BundleAlgebroid(chart, rank, anchor, structure)


def load_manifest(
    path: str, *, seed: int | None = None, probe_degree: int | None = None
) -> Manifest:
    """Parse and fully resolve a manifest file; raises :class:`ManifestError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ManifestError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(
            f"{path}: syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: not UTF-8: {exc}") from exc
    except RecursionError:
        raise ManifestError(f"{path}: JSON nested too deeply") from None
    except ValueError:  # more digits than int() converts
        raise ManifestError(f"{path}: integer literal too long") from None
    _expect(isinstance(doc, dict), f"{path}: top level must be an object")

    chart_spec = doc.get("chart")
    _expect(isinstance(chart_spec, dict), f"{path}: missing chart object")
    coords = chart_spec.get("coords")
    _expect(
        isinstance(coords, list) and coords and all(isinstance(c, str) for c in coords),
        f"{path}: chart.coords must be a nonempty list of names",
    )
    _expect(
        all(len(c) <= MAX_NAME_LENGTH for c in coords),
        f"{path}: chart.coords has a name longer than {MAX_NAME_LENGTH} characters",
    )
    is_complex = chart_spec.get("complex", False)
    _expect(isinstance(is_complex, bool), f"{path}: chart.complex must be true or false")
    try:
        chart = Chart(tuple(coords), is_complex)
    except (ScalarError, ValueError) as exc:  # duplicate, reserved or malformed names
        raise ManifestError(f"{path}: {exc}") from exc

    def _int_field(
        name: str, default: int, override: int | None, top: int | None = None
    ) -> int:
        """The manifest's own field, validated even when ``override`` replaces it."""
        values = [doc.get(name, default)]
        _expect(_is_int(values[0]), f"{path}: {name} must be an integer")
        if override is not None:
            values.append(override)
        _expect(
            top is None or all(0 <= v <= top for v in values),
            f"{path}: {name} must be between 0 and {top}",
        )
        return values[-1]

    seed = _int_field("seed", 0, seed)
    probe_degree = _int_field("probe_degree", 2, probe_degree, MAX_PROBE_DEGREE)
    points = _int_field("points", 5, None)

    def _section(name: str) -> dict[str, Any]:
        value = doc.get(name, {})
        _expect(isinstance(value, dict), f"{path}: {name} must be an object")
        _expect(
            all(len(key) <= MAX_NAME_LENGTH for key in value),
            f"{path}: {name} has a name longer than {MAX_NAME_LENGTH} characters",
        )
        return value

    endos = {}
    for name, rows in _section("endomorphisms").items():
        mat = _parse_matrix(chart, rows, chart.dim, f"endomorphisms.{name}")
        endos[name] = VectorValuedForm.from_matrix(chart, mat)
    forms = {}
    for name, spec in _section("forms").items():
        forms[name] = _parse_form(chart, spec, f"forms.{name}")
    algebroids = {}
    for name, spec in _section("algebroids").items():
        where = f"algebroids.{name}"
        _expect(isinstance(spec, dict), f"{where}: expected an object")
        anchor_name = spec.get("anchor")
        _expect(isinstance(anchor_name, str), f"{where}: anchor must be a name")
        _expect(anchor_name in endos, f"{where}: unknown anchor {_quote(anchor_name)}")
        anchor = endos[anchor_name]
        correction_spec = spec.get("correction", "auto:zero")
        _expect(isinstance(correction_spec, str), f"{where}: correction must be a name")
        correction = _resolve_correction(chart, anchor, correction_spec, forms, where)
        algebroids[name] = TangentAlgebroid(anchor, correction)
    bundles = {}
    for name, spec in _section("bundle_algebroids").items():
        bundles[name] = _parse_bundle(chart, spec, f"bundle_algebroids.{name}")
    sprays = {}
    spray_specs = _section("sprays")
    if spray_specs:
        _expect(
            chart.dim % 2 == 0,
            f"{path}: sprays need an even-dimensional tangent chart",
        )
        n = chart.dim // 2
        tangent = tangent_data_for_chart(chart)
        for name, coeffs in spray_specs.items():
            where = f"sprays.{name}"
            _expect(
                isinstance(coeffs, list) and len(coeffs) == n,
                f"{where}: expected {n} force components",
            )
            force = [
                _parse_scalar(chart, c, f"{where}[{i + 1}]") for i, c in enumerate(coeffs)
            ]
            sprays[name] = semispray(tangent, force)

    checks = doc.get("checks", [])
    _expect(isinstance(checks, list), f"{path}: checks must be a list")
    for k, descriptor in enumerate(checks):
        _expect(isinstance(descriptor, dict), f"{path}: checks[{k}] must be an object")
        kind = descriptor.get("kind")
        _expect(kind in CHECK_KINDS, f"{path}: checks[{k}] has unknown kind {_quote(kind)}")
        own = _CHECKS[kind][0]
        _expect(own in descriptor, f"{path}: checks[{k}].{own} is missing")
        for key in ("name", *_OBJECTS):
            value = descriptor.get(key, "")
            _expect(isinstance(value, str), f"{path}: checks[{k}].{key} must be a string")
            _expect(
                len(value) <= MAX_NAME_LENGTH,
                f"{path}: checks[{k}].{key} is longer than {MAX_NAME_LENGTH} characters",
            )
        # eps once scaled a complex or product structure; ignoring it would change the verdict
        _expect(
            "eps" not in descriptor,
            f"{path}: checks[{k}].eps is no longer supported: divide the endomorphism by eps",
        )

    return Manifest(
        path, chart, seed, probe_degree, points, endos, forms, algebroids, bundles, sprays, checks
    )


# ---------------------------------------------------------------------------
# Residual rendering
# ---------------------------------------------------------------------------


def _records(slot: str, items: Iterable[tuple[str, Any]]) -> list[dict[str, str]]:
    """The report rows of (label, residual) pairs: a scalar gives one row as is,
    a zero tensor one "0" row, and any other tensor one row per nonzero
    component. A vector field's row reads ``label->d/dx``, a fiber form's
    ``label->(s1,s2)`` and a vector-valued form's ``(e_x,e_y)->d/dx``, whose
    label is "" (form components in sorted key order)."""
    out = []
    for label, residual in items:
        if isinstance(residual, ScalarExpr):
            rows = [(label, residual)]
        elif residual.is_zero:
            rows = [(label, "0")]
        elif isinstance(residual, VectorField):
            names = residual.chart.coord_names
            rows = [
                (f"{label}->d/d{names[j]}", c)
                for j, c in enumerate(residual.components)
                if not c.is_zero
            ]
        elif isinstance(residual, KForm):
            rows = [
                (label + "->(" + ",".join(f"s{a + 1}" for a in key) + ")", value)
                for key, value in sorted(residual.coeffs.items())
            ]
        else:
            names = residual.chart.coord_names
            rows = [
                ("(" + ",".join(f"e_{names[i]}" for i in key) + f")->d/d{names[j]}", value)
                for j, comp in enumerate(residual.components)
                for key, value in sorted(comp.coeffs.items())
            ]
        out.extend({"basis": basis, "slot": slot, "value": str(v)} for basis, v in rows)
    return out


def _matrix_strings(form: VectorValuedForm) -> list[list[str]]:
    return [[str(e) for e in row] for row in form.matrix()]


def _form_fragment(form: VectorValuedForm) -> dict[str, Any]:
    zero = form.chart.zero
    entries = {}
    for key in sorted(set().union(*(comp.coeffs for comp in form.components))):
        entries[",".join(str(j + 1) for j in key)] = [
            str(comp.coeffs.get(key, zero)) for comp in form.components
        ]
    return {"degree": form.degree, "entries": entries}


# ---------------------------------------------------------------------------
# Check dispatch
# ---------------------------------------------------------------------------


def _lookup(manifest: Manifest, key: str, name: Any) -> Any:
    """The manifest object called ``name`` under descriptor key ``key``, e.g. ``endo``."""
    section, noun = _OBJECTS[key]
    objects = getattr(manifest, section)
    if name not in objects:
        raise ManifestError(f"unknown {noun} {_quote(name)}")
    return objects[name]


def _idempotent(N: VectorValuedForm):
    alg = idempotent_algebroid(N)
    return alg, {"correction": _form_fragment(alg.correction)}


def _anchored(alg: TangentAlgebroid):
    return alg, {"anchor_matrix": _matrix_strings(alg.anchor)}


def _tangent(S: VectorField):
    gamma = connection_from_semispray(tangent_data_for_chart(S.chart), S)
    return connection_algebroid(gamma), {"connection_matrix": _matrix_strings(gamma)}


#: Algebroid recipes, shared by ``verify`` check kinds and ``build recipe:name``
#: (``invertible`` is a build recipe only): recipe -> (descriptor key of the
#: object it takes, function of that object returning the algebroid and the
#: details of its check record). Each calls its constructor by its name in
#: this module, so a wrapper installed there sees every call.
_RECIPES: dict[str, tuple[str, Callable[[Any], tuple[TangentAlgebroid, dict]]]] = {
    "idempotent": ("endo", _idempotent),
    "complex": ("endo", lambda J: _anchored(complex_algebroid(J))),
    "product": ("endo", lambda P: _anchored(product_algebroid(P))),
    "invertible": ("endo", lambda K: (invertible_algebroid(K), {})),
    "tangent": ("spray", _tangent),
}


def _report_records(report) -> list[dict[str, str]]:
    """The rows of an axiom or bundle axiom report: each field's residual
    group in field order, slot ``anchor`` for ``anchor_morphism``."""
    return [
        row
        for field in report._fields
        for row in _records(
            "anchor" if field == "anchor_morphism" else field, getattr(report, field)
        )
    ]


def _axiom_records(manifest: Manifest, alg: TangentAlgebroid) -> list[dict[str, str]]:
    return _report_records(check_axioms(alg, manifest.probe_degree, manifest.seed))


def _cohomology_records(prefix: str, alg: TangentAlgebroid) -> list[dict[str, str]]:
    report = check_cohomology(alg)
    return (
        _records(f"{prefix}condition1", [("", report.condition1)])
        + _records(f"{prefix}condition2", [("", report.condition2)])
    )


def _recipe_check(recipe: str) -> tuple[str, Callable[[Manifest, Any], tuple[list, dict]]]:
    """The check of a recipe: the axiom records of the algebroid it builds."""
    key, construct = _RECIPES[recipe]

    def check(manifest: Manifest, obj: Any) -> tuple[list, dict]:
        alg, details = construct(obj)
        return _axiom_records(manifest, alg), details

    return key, check


def _check_foliation(manifest: Manifest, gamma: VectorValuedForm) -> tuple[list, dict]:
    data = foliation_connection(gamma)
    _, d2m1, d01 = _d_components(gamma, data.curvature)
    records = (
        _records("bracket_table", data.bracket_table)
        + _cohomology_records("d_{2,-1}.", d2m1)
        + _cohomology_records("d_{0,1}.", d01)
    )
    return records, {"curvature": _form_fragment(data.curvature)}


def _check_decompose(manifest: Manifest, alg: TangentAlgebroid) -> tuple[list, dict]:
    derivation = derivation_from_algebroid(alg)
    records = _records("K_residual", [("", derivation.anchor - alg.anchor)])
    records += _records("L_residual", [("", derivation.correction - alg.correction)])
    details = {
        "K_matrix": _matrix_strings(derivation.anchor),
        "L": _form_fragment(derivation.correction),
    }
    return records, details


def _check_isomorphism(manifest: Manifest, alg: TangentAlgebroid) -> tuple[list, dict]:
    residuals = verify_trivial_isomorphism(
        alg, seed=manifest.seed, probe_degree=manifest.probe_degree
    )
    return _records("isomorphism", residuals), {}


#: Check kinds: kind -> (descriptor key of the object it takes, function of
#: the manifest and that object returning the records and details).
_CHECKS: dict[str, tuple[str, Callable[[Manifest, Any], tuple[list, dict]]]] = {
    "torsion": ("endo", lambda m, E: (_records("torsion", [("", nijenhuis_torsion(E))]), {})),
    "cohomology": ("algebroid", lambda m, alg: (_cohomology_records("", alg), {})),
    "axioms": ("algebroid", lambda m, alg: (_axiom_records(m, alg), {})),
    "idempotent": _recipe_check("idempotent"),
    "complex": _recipe_check("complex"),
    "product": _recipe_check("product"),
    "foliation": ("endo", _check_foliation),
    "tangent": _recipe_check("tangent"),
    "bundle": ("bundle_algebroid", lambda m, B: (_report_records(check_bundle_axioms(B)), {})),
    "decompose": ("algebroid", _check_decompose),
    "isomorphism": ("algebroid", _check_isomorphism),
}
CHECK_KINDS = tuple(_CHECKS)

#: What a construction may raise on invalid input; a check reports it as an error.
_CHECK_ERRORS = (ManifestError, CalculusError, ScalarError)


def run_check(manifest: Manifest, descriptor: dict[str, Any]) -> CheckRecord:
    """Execute one check descriptor; construction errors become status=error.

    The check is labelled ``kind:object`` by the object its kind takes, or
    ``kind`` when the descriptor names none."""
    kind = descriptor["kind"]
    key, check = _CHECKS[kind]
    construction = f"{kind}:{descriptor[key]}" if key in descriptor else kind
    name = descriptor.get("name", construction)
    start = time.perf_counter()
    try:
        records, details = check(manifest, _lookup(manifest, key, descriptor.get(key)))
        status = (
            "pass" if all(r["value"] == "0" for r in records) else "fail"
        )
        record = CheckRecord(name, construction, status, records, details=details)
    except _CHECK_ERRORS as exc:
        record = CheckRecord(name, construction, "error", [], message=str(exc))
    record.elapsed = time.perf_counter() - start
    return record


# ---------------------------------------------------------------------------
# Reports and output
# ---------------------------------------------------------------------------


#: A report's exit code by its status, the most severe of its checks' statuses.
_EXIT_CODES = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "error": EXIT_ERROR}


def emit(manifest: Manifest, records: Sequence[CheckRecord], fmt: str) -> tuple[str, int]:
    """Render the report and compute the exit code."""
    status = max((r.status for r in records), key=_EXIT_CODES.__getitem__, default="pass")
    code = _EXIT_CODES[status]
    if fmt == "json":
        doc = {
            "checks": [r.as_json() for r in records],
            "format_version": 1,
            "manifest": manifest.path,
            "points": manifest.points,
            "probe_degree": manifest.probe_degree,
            "seed": manifest.seed,
            "status": status,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n", code

    lines = [
        f"manifest: {manifest.path}",
        f"seed: {manifest.seed}  probe-degree: {manifest.probe_degree}  points: {manifest.points}",
        "",
        f"{'check':<28} {'construction':<24} {'status':<6} {'time':>9}",
        "-" * 72,
    ]
    for r in records:
        lines.append(
            f"{r.name:<28} {r.construction:<24} {r.status:<6} {r.elapsed * 1000:>7.1f}ms"
        )
        if r.message:
            lines.append(f"    error: {r.message}")
        for residual in r.residuals:
            if residual["value"] != "0":
                lines.append(
                    f"    {residual['slot']} {residual['basis']}: {residual['value']}"
                )
    lines += ["-" * 72, f"overall: {status}"]
    return "\n".join(lines) + "\n", code


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_verify(manifest: Manifest, args) -> tuple[str, int]:
    """``verify`` runs the manifest's checks; ``torsion`` and ``decompose`` run one."""
    checks = manifest.checks
    if args.command == "torsion":
        checks = [{"kind": "torsion", "endo": args.endo}]
    elif args.command == "decompose":
        checks = [{"kind": "decompose", "algebroid": args.derivation}]
    return emit(manifest, [run_check(manifest, d) for d in checks], args.format)


def _build_algebroid(manifest: Manifest, construction: str) -> TangentAlgebroid:
    if construction in manifest.algebroids:
        return manifest.algebroids[construction]
    recipe, colon, name = construction.partition(":")
    if not colon:
        raise ManifestError(
            f"unknown construction {_quote(construction)}; use a named algebroid or "
            "recipe:object (recipes: " + ", ".join(_RECIPES) + ")"
        )
    if recipe not in _RECIPES:
        raise ManifestError(f"unknown recipe {_quote(recipe)}")
    key, construct = _RECIPES[recipe]
    return construct(_lookup(manifest, key, name))[0]


def _cmd_build(manifest: Manifest, args) -> tuple[str, int]:
    """The fragment of the construction, or the error its constructor raised.
    A construction that names nothing raises ManifestError, which ``main``
    reports on stderr, as it does a load error."""
    try:
        alg = _build_algebroid(manifest, args.construction)
        built = {
            "anchor_matrix": _matrix_strings(alg.anchor),
            "correction": _form_fragment(alg.correction),
        }
    except (CalculusError, ScalarError) as exc:
        if args.format == "json":
            doc = {"error": str(exc), "status": "error"}
            return json.dumps(doc, sort_keys=True, indent=2) + "\n", EXIT_ERROR
        return f"error: {exc}\n", EXIT_ERROR
    chart = alg.chart
    fragment = {
        "algebroids": {args.construction: built},
        "chart": {
            "complex": chart.is_complexified,
            "coords": list(chart.coord_names),
        },
    }
    if args.format == "json":
        return json.dumps(fragment, sort_keys=True, indent=2) + "\n", EXIT_PASS
    lines = [f"construction: {args.construction}", "anchor:"]
    for row in built["anchor_matrix"]:
        lines.append("  [" + ", ".join(row) + "]")
    lines.append("correction:")
    entries = built["correction"]["entries"]
    if not entries:
        lines.append("  0")
    for key, comps in entries.items():
        lines.append(f"  ({key}): [" + ", ".join(comps) + "]")
    return "\n".join(lines) + "\n", EXIT_PASS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fncalc",
        description=(
            "Exact verification of Lie algebroid structures built from the "
            "Froelicher-Nijenhuis calculus on a coordinate chart."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("manifest", help="path to a JSON manifest")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )

    p = sub.add_parser("verify", help="run every check listed in the manifest")
    common(p)
    p.add_argument("--seed", type=int, help="override manifest seed")
    p.add_argument("--probe-degree", type=int, help="override degree of randomized probe fields")
    p = sub.add_parser("torsion", help="report the Nijenhuis torsion of an endomorphism")
    common(p)
    p.add_argument("endo", help="endomorphism name")
    p = sub.add_parser(
        "decompose", help="decompose the de Rham operator of an algebroid as L_K + i_L"
    )
    common(p)
    p.add_argument("derivation", help="algebroid whose de Rham operator to decompose")
    p = sub.add_parser(
        "build",
        help="build an algebroid and emit it as a manifest fragment, which does not "
        "load back: it spells the anchor as a matrix and the correction as a form",
    )
    common(p)
    p.add_argument(
        "construction",
        help="named algebroid or recipe:object "
        "(idempotent:N, complex:J, product:P, invertible:K, tangent:S)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    command = _cmd_build if args.command == "build" else _cmd_verify
    try:
        manifest = load_manifest(  # only verify takes the probe options
            args.manifest,
            seed=getattr(args, "seed", None),
            probe_degree=getattr(args, "probe_degree", None),
        )
        output, code = command(manifest, args)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a crash must not exit 1, the code of a failing check
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        return EXIT_ERROR
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
