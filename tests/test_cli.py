"""CLI layer: manifest loading, check dispatch, report formats, exit codes."""

import ast
import contextlib
import copy
import importlib
import io
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fncalc
from fncalc import calculus, cli, structures
from fncalc.algebroid import TangentAlgebroid
from fncalc.calculus import VectorValuedForm
from fncalc.cli import (
    EXIT_ERROR,
    EXIT_FAIL,
    EXIT_PASS,
    MAX_NAME_LENGTH,
    MAX_PROBE_DEGREE,
    CheckRecord,
    ManifestError,
    load_manifest,
    main,
    run_check,
)
from fncalc.scalar import MAX_QUOTED, ScalarExpr

MANIFESTS = pathlib.Path(__file__).resolve().parent.parent / "manifests"
#: "manifest construction" -> exit code and stdout of ``fncalc build … --format json``.
BUILD_GOLDEN = json.loads(
    (pathlib.Path(__file__).resolve().parent / "build_golden.json").read_text()
)


def write_manifest(tmp_path, doc) -> str:
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    return str(path)


N_ROWS = [
    ["1", "0", "0", "-z"],
    ["0", "1", "0", "0"],
    ["0", "0", "0", "0"],
    ["0", "0", "0", "0"],
]


def n_manifest(**extra):
    doc = {
        "chart": {"coords": ["x", "y", "z", "w"]},
        "endomorphisms": {"N": N_ROWS},
        "checks": [],
    }
    doc.update(extra)
    return doc


class TestLoadManifest:
    def test_fixture_file(self):
        m = load_manifest(str(MANIFESTS / "f2_idempotent.json"))
        assert m.chart.dim == 4
        assert set(m.endomorphisms) == {"N", "Z"}
        assert m.seed == 0 and m.probe_degree == 2 and m.points == 5
        # column convention: the d/dw column of N is (-z, 0, 0, 0)
        col = [m.endomorphisms["N"].matrix()[i][3] for i in range(4)]
        assert str(col[0]) == "-z"
        assert all(c.is_zero for c in col[1:])

    def test_malformed_expression_reports_position(self, tmp_path):
        doc = n_manifest()
        doc["endomorphisms"]["N"] = [
            ["x+*y", "0", "0", "0"],
            ["0", "0", "0", "0"],
            ["0", "0", "0", "0"],
            ["0", "0", "0", "0"],
        ]
        with pytest.raises(ManifestError) as exc:
            load_manifest(write_manifest(tmp_path, doc))
        assert "position" in str(exc.value)

    def test_json_syntax_error_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ManifestError) as exc:
            load_manifest(str(path))
        assert "line" in str(exc.value)

    def test_unresolved_reference(self, tmp_path):
        doc = n_manifest(algebroids={"A": {"anchor": "missing"}})
        with pytest.raises(ManifestError) as exc:
            load_manifest(write_manifest(tmp_path, doc))
        assert "missing" in str(exc.value)

    def test_shape_mismatch(self, tmp_path):
        doc = n_manifest()
        doc["endomorphisms"]["N"] = [["1", "0"], ["0", "1"]]
        with pytest.raises(ManifestError):
            load_manifest(write_manifest(tmp_path, doc))

    def test_unknown_check_kind(self, tmp_path):
        doc = n_manifest(checks=[{"kind": "frobnicate"}])
        with pytest.raises(ManifestError):
            load_manifest(write_manifest(tmp_path, doc))

    def test_zero_diagonal_structure_entry_adds_nothing(self, tmp_path):
        """c[1,1,1] = 0 is allowed, since c_aa^c vanishes, and adds no entry."""
        diagonal, empty = (
            load_manifest(self.bundle_with(tmp_path, structure)).bundle_algebroids["B"]
            for structure in ({"c[1,1,1]": "0"}, {})
        )
        assert diagonal == empty

    def test_antisymmetric_structure_normalization(self, tmp_path):
        doc = {
            "chart": {"coords": ["x", "y"]},
            "bundle_algebroids": {
                "B": {
                    "rank": 2,
                    "anchor": [["1", "0"], ["x", "0"]],
                    "structure": {"c[2,1,1]": "-1"},
                }
            },
            "checks": [],
        }
        m = load_manifest(write_manifest(tmp_path, doc))
        balg = m.bundle_algebroids["B"]
        assert str(balg.structure[0][1][0]) == "1"
        assert str(balg.structure[1][0][0]) == "-1"

    @pytest.mark.parametrize(
        "coords, anchor, message",
        [
            (["x", "y", "z"], [["1", "0", "0"]] * 3, "expected 2 rows"),
            (["x", "y"], [["1"], ["0", "1"]], "row 1 must have 2 entries"),
        ],
    )
    def test_bundle_anchor_shape(self, tmp_path, coords, anchor, message):
        """A rank-2 anchor needs 2 rows of one entry per coordinate."""
        doc = {
            "chart": {"coords": coords},
            "bundle_algebroids": {"B": {"rank": 2, "anchor": anchor}},
            "checks": [],
        }
        with pytest.raises(ManifestError) as exc:
            load_manifest(write_manifest(tmp_path, doc))
        assert str(exc.value) == f"bundle_algebroids.B.anchor: {message}"

    @staticmethod
    def bundle_with(tmp_path, structure):
        doc = {
            "chart": {"coords": ["x", "y"]},
            "bundle_algebroids": {
                "B": {"rank": 2, "anchor": [["1", "0"], ["x", "0"]], "structure": structure}
            },
            "checks": [],
        }
        return write_manifest(tmp_path, doc)

    @pytest.mark.parametrize(
        "structure",
        [
            {"c[1,2,1]": "0", "c[2,1,1]": "1"},
            {"c[1,2,1]": "0", "c[1, 2,1]": "5"},
            {"c[1,2,1]": "1", "c[1, 2,1]": "2"},
            {"c[2,1,1]": "1", "c[1,2,1]": "1"},
            {"c[1,2,1]": "x", "c[2,1,1]": "0"},
        ],
        ids=["partner-vs-zero", "respelling-vs-zero", "respelling", "partner", "zero-partner"],
    )
    def test_conflicting_structure_keys(self, tmp_path, structure):
        """A later key for an entry already given, as a respelling or as its
        antisymmetric partner, must give the same signed value, zero included."""
        first, second = structure
        with pytest.raises(ManifestError) as exc:
            load_manifest(self.bundle_with(tmp_path, structure))
        assert str(exc.value) == (
            f"bundle_algebroids.B: structure keys {first!r} and {second!r} disagree"
        )

    @pytest.mark.parametrize(
        "structure, c211",
        [({"c[1,2,1]": "x", "c[2,1,1]": "-x"}, "-x"), ({"c[1,2,1]": "0", "c[1, 2,1]": "0"}, "0")],
        ids=["partner", "respelling"],
    )
    def test_agreeing_structure_keys(self, tmp_path, structure, c211):
        balg = load_manifest(self.bundle_with(tmp_path, structure)).bundle_algebroids["B"]
        assert str(balg.structure[1][0][0]) == c211

    def test_degree_zero_form(self, tmp_path):
        """"" is the multi-index of degree 0, and of no other degree."""
        entries = {"": ["1", "x"]}
        doc = {
            "chart": {"coords": ["x", "y"]},
            "forms": {"F": {"degree": 0, "entries": entries}},
            "checks": [],
        }
        F = load_manifest(write_manifest(tmp_path, doc)).forms["F"]
        assert F.degree == 0
        assert cli._form_fragment(F) == {"degree": 0, "entries": entries}
        doc["forms"]["F"]["degree"] = 1
        with pytest.raises(ManifestError, match="multi-index '' needs 1 entries"):
            load_manifest(write_manifest(tmp_path, doc))
        doc["forms"]["F"] = {"degree": 0, "entries": {"1": ["1", "x"]}}
        with pytest.raises(ManifestError, match="multi-index '1' needs 0 entries"):
            load_manifest(write_manifest(tmp_path, doc))


class TestRunCheck:
    def test_torsion_fixture_value(self, tmp_path):
        m = load_manifest(write_manifest(tmp_path, n_manifest()))
        record = run_check(m, {"kind": "torsion", "endo": "N"})
        assert record.status == "fail"
        assert record.residuals == [
            {"basis": "(e_z,e_w)->d/dx", "slot": "torsion", "value": "1"}
        ]

    def test_cohomology_trivial_passes(self, tmp_path):
        doc = {
            "chart": {"coords": ["x", "y"]},
            "endomorphisms": {"Id": [["1", "0"], ["0", "1"]]},
            "algebroids": {"T": {"anchor": "Id", "correction": "auto:zero"}},
            "checks": [],
        }
        m = load_manifest(write_manifest(tmp_path, doc))
        record = run_check(m, {"kind": "cohomology", "algebroid": "T"})
        assert record.status == "pass"
        assert all(r["value"] == "0" for r in record.residuals)

    def test_complex_on_idempotent_is_error(self, tmp_path):
        m = load_manifest(write_manifest(tmp_path, n_manifest()))
        record = run_check(m, {"kind": "complex", "endo": "N"})
        assert record.status == "error"
        assert "J^2" in record.message

    def test_label_names_the_kinds_own_object(self, tmp_path):
        """A check is labelled by the object its kind takes, even when the
        descriptor names others too, and by its bare kind without one."""
        doc = n_manifest(algebroids={"A": {"anchor": "N", "correction": "auto:torsion"}})
        m = load_manifest(write_manifest(tmp_path, doc))
        both = {"endo": "N", "algebroid": "A"}
        assert run_check(m, {"kind": "cohomology", **both}).construction == "cohomology:A"
        assert run_check(m, {"kind": "torsion", **both}).construction == "torsion:N"
        record = run_check(m, {"kind": "cohomology", "endo": "N"})
        assert record.construction == "cohomology"
        assert record.status == "error" and record.message == "unknown algebroid None"

    def test_unknown_name_is_error(self, tmp_path):
        m = load_manifest(write_manifest(tmp_path, n_manifest()))
        record = run_check(m, {"kind": "torsion", "endo": "nope"})
        assert record.status == "error"

    def test_isomorphism_on_a_singular_anchor_is_error(self, tmp_path):
        doc = n_manifest(algebroids={"A": {"anchor": "N", "correction": "auto:torsion"}})
        m = load_manifest(write_manifest(tmp_path, doc))
        record = run_check(m, {"kind": "isomorphism", "algebroid": "A"})
        assert record.status == "error"
        assert record.message == "matrix is singular over the function field"

    def test_bundle_jacobi_records(self, tmp_path, capsys):
        """Zero anchors with [[s1,s2]] = s1 and [[s2,s3]] = s2: the Jacobiator
        on (s1,s2,s3) is [[s1,s2]] = s1."""
        zero_row = ["0", "0"]
        doc = {
            "chart": {"coords": ["x", "y"]},
            "bundle_algebroids": {
                "B": {
                    "rank": 3,
                    "anchor": [zero_row] * 3,
                    "structure": {"c[1,2,1]": "1", "c[2,3,2]": "1"},
                }
            },
            "checks": [{"kind": "bundle", "bundle_algebroid": "B", "name": "bundle-B"}],
        }
        code = main(["verify", write_manifest(tmp_path, doc), "--format", "json"])
        assert code == EXIT_FAIL
        (record,) = json.loads(capsys.readouterr().out)["checks"]
        jacobi = {r["basis"]: r["value"] for r in record["residuals"] if r["slot"] == "jacobi"}
        assert jacobi == {
            "(s1,s2,s3)->s1": "1",
            "(s1,s2,s3)->s2": "0",
            "(s1,s2,s3)->s3": "0",
        }


class TestCheckRecord:
    """A report row: its defaults, a details dict of its own, and its JSON."""

    ROW = [{"basis": "(e_x,e_y)->d/dx", "slot": "torsion", "value": "-x"}]

    def test_defaults(self):
        a = CheckRecord("t", "torsion:N", "pass", [])
        b = CheckRecord(name="t", construction="torsion:N", status="pass", residuals=[])
        assert (a.message, a.details, a.elapsed) == ("", {}, 0.0)
        assert a == b and a.details is not b.details
        a.details["K"] = "x"
        assert b.details == {} and a != b
        b.elapsed = 1.5
        assert b.elapsed == 1.5

    def test_as_json(self):
        bare = CheckRecord("t", "torsion:N", "fail", self.ROW, elapsed=2.0)
        assert bare.as_json() == {
            "construction": "torsion:N", "name": "t", "residuals": self.ROW, "status": "fail",
        }
        full = CheckRecord("c", "complex:J", "error", [], "boom", {"anchor": ["1"]}, 3.0)
        assert json.dumps(full.as_json()) == (
            '{"construction": "complex:J", "name": "c", "residuals": [], '
            '"status": "error", "message": "boom", "details": {"anchor": ["1"]}}'
        )


class TestEmitAndExitCodes:
    def test_verify_pass_exit_zero(self, capsys):
        code = main(["verify", str(MANIFESTS / "f3_product.json")])
        assert code == EXIT_PASS
        assert "overall: pass" in capsys.readouterr().out

    def test_verify_fail_exit_one(self, tmp_path, capsys):
        doc = n_manifest(checks=[{"kind": "torsion", "endo": "N"}])
        code = main(["verify", write_manifest(tmp_path, doc)])
        assert code == EXIT_FAIL
        out = capsys.readouterr().out
        assert "overall: fail" in out

    def test_verify_error_exit_two(self, tmp_path, capsys):
        doc = n_manifest(checks=[{"kind": "complex", "endo": "N"}])
        code = main(["verify", write_manifest(tmp_path, doc)])
        assert code == EXIT_ERROR
        capsys.readouterr()

    def test_invalid_manifest_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        code = main(["verify", str(path)])
        assert code == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_json_deterministic_and_without_timing(self, tmp_path, capsys):
        doc = n_manifest(
            checks=[
                {"kind": "torsion", "endo": "N"},
                {"kind": "idempotent", "endo": "N"},
            ]
        )
        path = write_manifest(tmp_path, doc)
        main(["verify", path, "--format", "json"])
        first = capsys.readouterr().out
        main(["verify", path, "--format", "json"])
        second = capsys.readouterr().out
        assert first == second
        doc_out = json.loads(first)
        assert "timing" not in first
        assert doc_out["seed"] == 0
        assert [c["status"] for c in doc_out["checks"]] == ["fail", "pass"]

    def test_seed_flag_recorded(self, tmp_path, capsys):
        doc = n_manifest(checks=[{"kind": "torsion", "endo": "N"}])
        path = write_manifest(tmp_path, doc)
        main(["verify", path, "--format", "json", "--seed", "11"])
        assert json.loads(capsys.readouterr().out)["seed"] == 11

    @pytest.mark.parametrize("option", [["--seed", "1"], ["--probe-degree", "0"]])
    @pytest.mark.parametrize(
        "command",
        [["torsion", "N"], ["decompose", "A"], ["build", "idempotent:N"]],
        ids=["torsion", "decompose", "build"],
    )
    def test_only_verify_takes_probe_options(self, tmp_path, capsys, command, option):
        """No check of torsion, decompose or build reads a probe, so their
        parsers refuse the options (argparse exits 2)."""
        path = write_manifest(tmp_path, n_manifest())
        with pytest.raises(SystemExit) as exc:
            main([command[0], path, *command[1:], *option])
        assert exc.value.code == EXIT_ERROR
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
        assert main(["verify", path, *option]) == EXIT_PASS

    @pytest.mark.parametrize("manifest_name", sorted(p.name for p in MANIFESTS.glob("*.json")))
    def test_text_rows_match_json_records(self, capsys, manifest_name):
        """Each check's table row carries its JSON status, and the lines under
        it are its error message and its nonzero JSON records, in order."""
        path = str(MANIFESTS / manifest_name)
        main(["verify", path, "--format", "json"])
        checks = json.loads(capsys.readouterr().out)["checks"]
        main(["verify", path])
        lines = capsys.readouterr().out.splitlines()
        rows: list[tuple[str, list[str]]] = []
        for line in lines[lines.index("-" * 72) + 1 : -2]:
            if line.startswith("    "):
                rows[-1][1].append(line)
            else:
                rows.append((line, []))
        assert len(rows) == len(checks)
        for (row, below), check in zip(rows, checks):
            prefix = f"{check['name']:<28} {check['construction']:<24} "
            assert row.startswith(prefix)
            assert row[len(prefix) :].split()[0] == check["status"]
            expected = [f"    error: {check['message']}"] if "message" in check else []
            expected += [
                f"    {r['slot']} {r['basis']}: {r['value']}"
                for r in check["residuals"]
                if r["value"] != "0"
            ]
            assert below == expected


class TestHostileManifests:
    """Malformed manifests exit 2 with a one-line error, never 1 with a traceback."""

    @staticmethod
    def assert_manifest_error(tmp_path, capsys, doc):
        code = main(["verify", write_manifest(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "coords", [["x", "x"], ["x", "i"], ["x", "1y"]], ids=["duplicate", "reserved", "malformed"]
    )
    def test_bad_coordinate_names(self, tmp_path, capsys, coords):
        doc = {"chart": {"coords": coords}, "checks": []}
        self.assert_manifest_error(tmp_path, capsys, doc)

    @pytest.mark.parametrize(
        "descriptor",
        [
            {"kind": "torsion", "endo": ["N"]},
            {"kind": "axioms", "algebroid": {"name": "A"}},
            {"kind": "bundle", "bundle_algebroid": 3},
            {"kind": "tangent", "spray": None},
            {"kind": "torsion", "endo": "N", "name": ["t"]},
        ],
        ids=["endo", "algebroid", "bundle_algebroid", "spray", "name"],
    )
    def test_non_string_name_in_check(self, tmp_path, capsys, descriptor):
        self.assert_manifest_error(tmp_path, capsys, n_manifest(checks=[descriptor]))

    @pytest.mark.parametrize(
        "descriptor, key",
        [pytest.param({"kind": "cohomology", "algebriod": "A"}, "algebroid", id="misspelt")]
        + [pytest.param({"kind": kind}, key, id=kind) for kind, (key, _) in cli._CHECKS.items()],
    )
    def test_check_without_its_kinds_object(self, tmp_path, capsys, descriptor, key):
        """A check whose kind's own object key is missing, or misspelt, is
        a load error naming that key, not a run-time ``unknown ... None``."""
        doc = n_manifest(checks=[{"kind": "torsion", "endo": "N"}, descriptor])
        path = write_manifest(tmp_path, doc)
        code = main(["verify", path])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == ""
        assert captured.err == f"error: {path}: checks[1].{key} is missing\n"

    LONG = "N" * (MAX_NAME_LENGTH + 1)

    @pytest.mark.parametrize(
        "doc",
        [
            n_manifest(endomorphisms={"N": N_ROWS, LONG: N_ROWS}),
            n_manifest(forms={LONG: {"degree": 0, "entries": {"": "1"}}}),
            n_manifest(checks=[{"kind": "torsion", "endo": "N", "name": LONG}]),
            n_manifest(checks=[{"kind": "torsion", "endo": LONG}]),
            n_manifest(checks=[{"kind": "axioms", "algebroid": LONG}]),
            n_manifest(chart={"coords": ["x", "y", "z", LONG]}),
        ],
        ids=[
            "endomorphism", "form", "check", "endo-reference", "algebroid-reference",
            "coordinate",
        ],
    )
    def test_name_longer_than_the_limit(self, tmp_path, capsys, doc):
        code = main(["verify", write_manifest(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == ""
        assert f"longer than {MAX_NAME_LENGTH} characters" in captured.err
        assert self.LONG not in captured.err

    HUGE = "Q" * 1_000_000

    @pytest.mark.parametrize(
        "doc",
        [
            n_manifest(algebroids={"A": {"anchor": HUGE}}),
            n_manifest(algebroids={"A": {"anchor": "N", "correction": HUGE}}),
            n_manifest(checks=[{"kind": HUGE}]),
            n_manifest(forms={"F": {"degree": 1, "entries": {HUGE: ["1"] * 4}}}),
            n_manifest(endomorphisms={"N": [[HUGE, "0", "0", "0"]] + N_ROWS[1:]}),
            n_manifest(endomorphisms={"N": [["x " + HUGE, "0", "0", "0"]] + N_ROWS[1:]}),
        ],
        ids=["anchor", "correction", "kind", "multi-index", "entry", "entry-after-x"],
    )
    def test_error_quotes_a_huge_value_in_part(self, tmp_path, capsys, doc):
        code = main(["verify", write_manifest(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == ""
        assert f"{'Q' * MAX_QUOTED!r}... (1000000 characters)" in captured.err
        assert len(captured.err) < 300

    PAD = " " * 200_000

    @staticmethod
    def bundle(structure):
        spec = {"rank": 2, "anchor": N_ROWS[:2], "structure": structure}
        return n_manifest(bundle_algebroids={"B": spec})

    @pytest.mark.parametrize(
        "doc, where",
        [
            (
                n_manifest(
                    forms={"F": {"degree": 1, "entries": {"1" + PAD: ["q", "0", "0", "0"]}}}
                ),
                "forms.F[1][1]: unknown variable 'q'",
            ),
            (bundle({"c[1,1" + PAD + ",1]": "1"}), "bundle_algebroids.B: c[1,1,1] must vanish"),
            (bundle({"c[1,2" + PAD + ",1]": "q"}), "bundle_algebroids.B.structure[c[1,2,1]]: "),
        ],
        ids=["form-entry", "structure-diagonal", "structure-entry"],
    )
    def test_padded_index_is_echoed_canonically(self, tmp_path, capsys, doc, where):
        """A multi-index or structure key padded with spaces is named by its
        indices, not echoed as spelt."""
        code = main(["verify", write_manifest(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == ""
        assert where in captured.err
        assert len(captured.err) < 300

    def test_name_at_the_limit(self, tmp_path, capsys):
        name = "N" * MAX_NAME_LENGTH
        doc = n_manifest(
            endomorphisms={name: N_ROWS},
            checks=[{"kind": "torsion", "endo": name, "name": name}],
        )
        code = main(["verify", write_manifest(tmp_path, doc), "--format", "json"])
        (record,) = json.loads(capsys.readouterr().out)["checks"]
        assert code == EXIT_FAIL
        assert record["name"] == name and record["construction"] == f"torsion:{name}"

    def test_unknown_name_is_quoted_in_part(self, tmp_path, capsys):
        missing = "M" * MAX_NAME_LENGTH
        doc = n_manifest(checks=[{"kind": "torsion", "endo": missing}])
        code = main(["verify", write_manifest(tmp_path, doc), "--format", "json"])
        (record,) = json.loads(capsys.readouterr().out)["checks"]
        assert code == EXIT_ERROR
        assert record["message"] == (
            f"unknown endomorphism {missing[:MAX_QUOTED]!r}... ({MAX_NAME_LENGTH} characters)"
        )

    def test_report_stays_small_for_a_huge_eps(self, tmp_path, capsys):
        """eps is a load error that does not quote its value."""
        eps = "1" * 1_000_000
        doc = n_manifest(checks=[{"kind": "complex", "endo": "N", "eps": eps}])
        code = main(["verify", write_manifest(tmp_path, doc), "--format", "json"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == ""
        assert "divide the endomorphism by eps" in captured.err
        assert "1" * MAX_QUOTED not in captured.err
        assert len(captured.err) < 300

    def test_non_string_algebroid_anchor(self, tmp_path, capsys):
        doc = n_manifest(algebroids={"A": {"anchor": ["N"]}})
        self.assert_manifest_error(tmp_path, capsys, doc)

    def test_section_that_is_not_an_object(self, tmp_path, capsys):
        self.assert_manifest_error(tmp_path, capsys, n_manifest(forms=["N"]))

    @pytest.mark.parametrize("section", ["endomorphisms", "bundle_algebroids"])
    @pytest.mark.parametrize(
        "value", [[], 0, False, "", None], ids=["list", "zero", "false", "string", "null"]
    )
    def test_falsy_section_that_is_not_an_object(self, tmp_path, capsys, section, value):
        """A present section must be an object even when its value is falsy:
        it is refused, not loaded as an empty section."""
        doc = {"chart": {"coords": ["x"]}, section: value, "checks": []}
        code = main(["verify", write_manifest(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.endswith(f": {section} must be an object\n")

    def test_missing_manifest(self, tmp_path, capsys):
        code = main(["verify", str(tmp_path / "missing.json")])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == ""
        assert captured.err.startswith(f"error: cannot read {tmp_path / 'missing.json'}: ")

    @pytest.mark.parametrize(
        "text",
        ["(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x"],
        ids=["parentheses", "unary-minus"],
    )
    def test_deeply_nested_expression(self, tmp_path, capsys, text):
        doc = n_manifest(endomorphisms={"N": [[text, "0", "0", "0"], *N_ROWS[1:]]})
        self.assert_manifest_error(tmp_path, capsys, doc)

    def test_exponent_above_the_limit(self, tmp_path, capsys):
        text = "(x+y+1)^5000"
        doc = n_manifest(endomorphisms={"N": [[text, "0", "0", "0"], *N_ROWS[1:]]})
        self.assert_manifest_error(tmp_path, capsys, doc)

    @pytest.mark.parametrize("flag", ["false", 1, None], ids=["string", "integer", "null"])
    def test_non_boolean_complex_flag(self, tmp_path, capsys, flag):
        # "i" verifies only on a complexified chart
        doc = {
            "chart": {"coords": ["x", "y"], "complex": flag},
            "endomorphisms": {"J": [["i", "0"], ["0", "i"]]},
            "checks": [{"kind": "torsion", "endo": "J"}],
        }
        self.assert_manifest_error(tmp_path, capsys, doc)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", True),
            ("probe_degree", False),
            ("points", True),
            ("probe_degree", -3),
            ("probe_degree", 400),
        ],
        ids=[
            "seed-bool",
            "probe_degree-bool",
            "points-bool",
            "probe_degree-negative",
            "probe_degree-too-large",
        ],
    )
    def test_bad_integer_field(self, tmp_path, capsys, field, value):
        doc = n_manifest(**{field: value})
        self.assert_manifest_error(tmp_path, capsys, doc)

    @pytest.mark.parametrize(
        ("field", "value", "option"),
        [
            ("probe_degree", True, "--probe-degree"),
            ("probe_degree", 400, "--probe-degree"),
            ("seed", "7", "--seed"),
        ],
        ids=["probe_degree-bool", "probe_degree-too-large", "seed-string"],
    )
    def test_bad_integer_field_under_an_option(
        self, tmp_path, capsys, field, value, option
    ):
        """An option replaces a manifest field only after the field is validated."""
        path = write_manifest(tmp_path, n_manifest(**{field: value}))
        code = main(["verify", path, option, "0"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_negative_probe_degree_option(self, tmp_path, capsys):
        path = write_manifest(tmp_path, n_manifest())
        code = main(["verify", path, "--probe-degree", "-1"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_probe_degree_option_above_the_limit(self, tmp_path, capsys):
        path = write_manifest(tmp_path, n_manifest())
        code = main(["verify", path, "--probe-degree", str(MAX_PROBE_DEGREE)])
        assert code == EXIT_PASS
        capsys.readouterr()
        code = main(["verify", path, "--probe-degree", str(MAX_PROBE_DEGREE + 1)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_expression_past_the_term_limit(self, tmp_path, capsys):
        # the exponent passes MAX_EXPONENT, but the power has 814,385 terms
        text = "(x+y+z+w+1)^64"
        doc = n_manifest(
            endomorphisms={"N": [[text, "0", "0", "0"], *N_ROWS[1:]]},
            checks=[{"kind": "torsion", "endo": "N"}],
        )
        self.assert_manifest_error(tmp_path, capsys, doc)

    def test_degree_past_the_monomial_field_width(self, tmp_path, capsys):
        # each exponent passes MAX_EXPONENT and the power has one term, but
        # x^262144 does not fit a packed monomial
        text = "((x^64)^64)^64"
        doc = n_manifest(endomorphisms={"N": [[text, "0", "0", "0"], *N_ROWS[1:]]})
        self.assert_manifest_error(tmp_path, capsys, doc)

    def test_manifest_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"chart": {"coords": ["\xff"]}}')
        code = main(["verify", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_json_nested_past_the_decoder_limit(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text('{"checks": ' + "[" * 100000 + "]" * 100000 + "}")
        code = main(["verify", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_integer_past_the_conversion_limit(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text('{"chart": {"coords": ["x"]}, "seed": ' + "9" * 5000 + "}")
        code = main(["verify", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.err.endswith(": integer literal too long\n")
        assert captured.out == ""

    @pytest.mark.parametrize("value", [True, False], ids=["true", "false"])
    def test_boolean_rank(self, tmp_path, capsys, value):
        doc = {
            "chart": {"coords": ["x"]},
            "bundle_algebroids": {"B": {"rank": value, "anchor": [["1"]]}},
        }
        self.assert_manifest_error(tmp_path, capsys, doc)

    @pytest.mark.parametrize("value", [True, False], ids=["true", "false"])
    def test_boolean_form_degree(self, tmp_path, capsys, value):
        doc = n_manifest(forms={"F": {"degree": value, "entries": {}}})
        self.assert_manifest_error(tmp_path, capsys, doc)

    def test_repeated_form_multi_index(self, tmp_path, capsys):
        """Two keys that read as one multi-index are refused, not overwritten."""
        entries = {"1,2": ["x", "0", "0", "0"], "1, 2": ["y", "0", "0", "0"]}
        doc = n_manifest(forms={"F": {"degree": 2, "entries": entries}})
        with pytest.raises(ManifestError) as exc:
            load_manifest(write_manifest(tmp_path, doc))
        assert str(exc.value) == "forms.F: multi-indices '1,2' and '1, 2' are the same"
        self.assert_manifest_error(tmp_path, capsys, doc)

    @pytest.mark.parametrize(
        "key, degree",
        [("\u0661, +2", 2), ("1_0", 1), ("1,\t2", 2)],
        ids=["arabic-indic-and-plus", "underscore", "tab"],
    )
    def test_multi_index_reads_ascii_digits_only(self, tmp_path, capsys, key, degree):
        doc = n_manifest(forms={"F": {"degree": degree, "entries": {key: ["x", "0", "0", "0"]}}})
        with pytest.raises(ManifestError, match="bad multi-index"):
            load_manifest(write_manifest(tmp_path, doc))
        self.assert_manifest_error(tmp_path, capsys, doc)

    def test_multi_index_allows_spaces_around_each_index(self, tmp_path):
        entries = {" 1 , 2 ": ["x", "0", "0", "0"], "2,3": ["y", "0", "0", "0"]}
        doc = n_manifest(forms={"F": {"degree": 2, "entries": entries}})
        (component, *_) = load_manifest(write_manifest(tmp_path, doc)).forms["F"].components
        assert {key: str(c) for key, c in component.coeffs.items()} == {(0, 1): "x", (1, 2): "y"}

    @pytest.mark.parametrize(
        "key", ["c[+1,2,1]", "c[\u0661,2,1]"], ids=["plus", "arabic-indic"]
    )
    def test_structure_key_reads_ascii_digits_only(self, tmp_path, capsys, key):
        doc = {
            "chart": {"coords": ["x", "y"]},
            "bundle_algebroids": {
                "B": {"rank": 2, "anchor": [["1", "0"], ["x", "0"]], "structure": {key: "1"}}
            },
            "checks": [],
        }
        with pytest.raises(ManifestError, match="bad structure key"):
            load_manifest(write_manifest(tmp_path, doc))
        self.assert_manifest_error(tmp_path, capsys, doc)

    @pytest.mark.parametrize(
        "key, message",
        [
            ("d[1,2,1]", "structure key 'd[1,2,1]' must look like c[a,b,c]"),
            ("c[1,2,1", "structure key 'c[1,2,1' must look like c[a,b,c]"),
        ],
        ids=["letter", "bracket"],
    )
    def test_structure_key_not_spelled_c(self, tmp_path, capsys, key, message):
        doc = {
            "chart": {"coords": ["x", "y"]},
            "bundle_algebroids": {
                "B": {"rank": 2, "anchor": [["1", "0"], ["x", "0"]], "structure": {key: "1"}}
            },
        }
        with pytest.raises(ManifestError) as exc:
            load_manifest(write_manifest(tmp_path, doc))
        assert str(exc.value) == f"bundle_algebroids.B: {message}"
        self.assert_manifest_error(tmp_path, capsys, doc)

    def test_multi_index_past_the_conversion_limit(self, tmp_path, capsys):
        """An index with more digits than int() converts is a bad multi-index."""
        doc = n_manifest(forms={"F": {"degree": 1, "entries": {"9" * 5000: ["x", "0", "0", "0"]}}})
        with pytest.raises(ManifestError, match="^forms.F: bad multi-index '9999"):
            load_manifest(write_manifest(tmp_path, doc))
        self.assert_manifest_error(tmp_path, capsys, doc)

    def test_crash_in_a_check_exits_two(self, tmp_path, capsys, monkeypatch):
        def crash(N):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "nijenhuis_torsion", crash)
        doc = n_manifest(checks=[{"kind": "torsion", "endo": "N"}])
        code = main(["verify", write_manifest(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.err == "error: internal error: RuntimeError('boom')\n"
        assert captured.out == ""


FIXTURE_DOCS = {
    path.name: json.loads(path.read_text()) for path in sorted(MANIFESTS.glob("*.json"))
}
#: Replacement values for a "type swap" and a "huge integer" mutation.
SWAPS = [None, True, False, 0, -1, 1.5, "", "x", [], {}, ["x"], {"x": "1"}]
HUGE = [10**40, -(10**40), 2**63, 10**400, str(10**40), "x^" + "9" * 40]
#: Odd names for coordinates, objects, keys and references.
ODD_NAMES = ["", "i", "x y", "é", "1", "_", "checks", "__class__", "N" * 300, "\u0000"]


def _mutate(data, doc):
    """Change one node of a manifest, reached by a random walk from the root:
    swap its type, nest it deeply, make it a huge integer, give it an odd
    name, or drop it."""
    parent, key, node = None, None, doc
    for _ in range(data.draw(st.integers(0, 6))):
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys))
        parent, node = node, node[key]
    kind = data.draw(st.sampled_from(["swap", "nest", "huge", "name", "drop"]))
    if kind == "name" and isinstance(parent, dict):
        del parent[key]
        parent[data.draw(st.sampled_from(ODD_NAMES))] = node
        return doc
    if kind == "drop" and parent is not None:
        del parent[key]
        return doc
    if kind == "swap":
        # a copy: a later mutation may walk into the swapped-in node
        new = copy.deepcopy(data.draw(st.sampled_from(SWAPS)))
    elif kind == "nest":
        new = node
        for _ in range(data.draw(st.sampled_from([2, 50, 500]))):
            new = [new] if data.draw(st.booleans()) else {"a": new}
    elif kind == "huge":
        new = data.draw(st.sampled_from(HUGE))
    elif kind == "name":
        new = data.draw(st.sampled_from(ODD_NAMES))
    else:
        new = {}
    if parent is None:
        return new
    parent[key] = new
    return doc


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_mutated_fixture_manifests(tmp_path_factory, data):
    """Whatever a fixture manifest is mutated into, verify exits 0, 1 or 2 with
    no traceback, and its JSON report parses whenever it exits 0 or 1."""
    name = data.draw(st.sampled_from(sorted(FIXTURE_DOCS)))
    doc = json.loads(json.dumps(FIXTURE_DOCS[name]))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc)
    path = tmp_path_factory.mktemp("fuzz") / "m.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path), "--format", "json", "--probe-degree", "0"])
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_ERROR)
    assert "Traceback" not in err.getvalue()
    if code in (EXIT_PASS, EXIT_FAIL):
        json.loads(out.getvalue())


J_ROWS = [["0", "-1"], ["1", "0"]]
P_ROWS = [["1", "0"], ["0", "-1"]]


class TestEps:
    """``eps`` once scaled a complex or product structure (J^2 = -eps^2 Id,
    P^2 = eps^2 Id). It is gone: a check that still carries it, whatever its
    value, is a load error (exit 2) whose message says to divide the
    endomorphism by eps and does not echo the value."""

    @staticmethod
    def assert_rejected(tmp_path, capsys, kind, eps):
        doc = {
            "chart": {"coords": ["x", "y"]},
            "probe_degree": 0,
            "endomorphisms": {"E": J_ROWS if kind == "complex" else P_ROWS},
            "checks": [
                {"kind": "torsion", "endo": "E"},
                {"kind": kind, "endo": "E", "eps": eps},
            ],
        }
        path = write_manifest(tmp_path, doc)
        code = main(["verify", path, "--format", "json"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == ""
        assert captured.err == (
            f"error: {path}: checks[1].eps is no longer supported: "
            "divide the endomorphism by eps\n"
        )
        assert len(captured.err.encode()) < 300

    @pytest.mark.parametrize("kind", ["complex", "product"])
    @pytest.mark.parametrize("eps", [1, "1/2"], ids=["one", "half"])
    def test_any_value_rejected(self, tmp_path, capsys, kind, eps):
        self.assert_rejected(tmp_path, capsys, kind, eps)

    @pytest.mark.parametrize("kind", ["complex", "product"])
    @pytest.mark.parametrize("eps", [True, False], ids=["true", "false"])
    def test_boolean_rejected(self, tmp_path, capsys, kind, eps):
        self.assert_rejected(tmp_path, capsys, kind, eps)

    @pytest.mark.parametrize("kind", ["complex", "product"])
    @pytest.mark.parametrize("eps", [0, "0", "0/3"], ids=["int", "string", "fraction"])
    def test_zero_rejected_with_one_message(self, tmp_path, capsys, kind, eps):
        self.assert_rejected(tmp_path, capsys, kind, eps)

    @pytest.mark.parametrize("kind", ["complex", "product"])
    @pytest.mark.parametrize(
        "eps",
        ["1e2", "1.5", " 1", "1_0", "1/0", "1/", "1e2200", "1e10000000"],
    )
    def test_other_notation_rejected(self, tmp_path, capsys, kind, eps):
        self.assert_rejected(tmp_path, capsys, kind, eps)

    @pytest.mark.parametrize(
        "eps",
        [10**2000, "1" + "0" * 2000, "1/" + "7" * 2001],
        ids=["int", "string", "denominator"],
    )
    def test_past_the_digit_limit_rejected(self, tmp_path, capsys, eps):
        """Values past the 2,000 digits eps once allowed are rejected alike."""
        self.assert_rejected(tmp_path, capsys, "complex", eps)

    def test_scale_is_written_into_the_endomorphism(self, tmp_path, capsys):
        """J = 2·J1 has J^2 = -4 Id and is refused; the same entries divided by
        2 give the algebroid that eps = 2 gave."""
        doubled = [["0", "-2/(1+x^2)"], ["2*(1+x^2)", "0"]]
        doc = {
            "chart": {"coords": ["x", "y"]},
            "probe_degree": 0,
            "endomorphisms": {
                "J": doubled,
                "J_over_2": [[f"({e})/2" for e in row] for row in doubled],
            },
            "checks": [
                {"kind": "complex", "endo": "J"},
                {"kind": "complex", "endo": "J_over_2"},
            ],
        }
        code = main(["verify", write_manifest(tmp_path, doc), "--format", "json"])
        scaled, divided = json.loads(capsys.readouterr().out)["checks"]
        assert code == EXIT_ERROR
        assert scaled["status"] == "error"
        assert scaled["message"] == "endomorphism does not satisfy J^2 = -1 Id"
        assert divided["status"] == "pass"
        assert divided["details"]["anchor_matrix"] == [
            ["1/2", "(1/2*i)/(x^2 + 1)"],
            ["-1/2*i*x^2 - 1/2*i", "1/2"],
        ]


class TestOversizedCoefficients:
    """A value too long to print is an error of its own check only."""

    BIG = "7" * 3000
    MESSAGE = (
        "coefficient too long to print: more than "
        f"{sys.get_int_max_str_digits()} digits"
    )

    def manifest(self, tmp_path):
        doc = {
            "chart": {"coords": ["x", "y"]},
            "endomorphisms": {
                "S": [["0", "x"], ["y", "0"]],
                "N": [["0", f"{self.BIG}*x^2"], [f"{self.BIG}*y", "0"]],
            },
            "algebroids": {"A": {"anchor": "N", "correction": "auto:torsion"}},
            "checks": [
                {"kind": "torsion", "endo": "S"},
                {"kind": "torsion", "endo": "N"},
            ],
        }
        return write_manifest(tmp_path, doc)

    def test_verify_keeps_the_other_records(self, tmp_path, capsys):
        code = main(["verify", self.manifest(tmp_path), "--format", "json"])
        captured = capsys.readouterr()
        small, big = json.loads(captured.out)["checks"]
        assert code == EXIT_ERROR and captured.err == ""
        assert small["status"] == "fail" and small["residuals"]
        assert big["status"] == "error"
        assert big["message"] == self.MESSAGE

    def test_build_reports_an_error(self, tmp_path, capsys):
        code = main(["build", self.manifest(tmp_path), "A"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.err == ""
        assert captured.out == f"error: {self.MESSAGE}\n"


def _wrap_bindings(monkeypatch, fn, wrapper) -> None:
    """Install ``wrapper`` in place of ``fn`` at every fncalc module that binds it."""
    modules = [fncalc] + [
        importlib.import_module(f"fncalc.{info.name}")
        for info in pkgutil.iter_modules(fncalc.__path__)
    ]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, wrapper)


def _count_calls(monkeypatch) -> Counter:
    """Count nijenhuis_torsion, tangent_data_for_chart and the compositions
    K∘M of two endomorphisms, the guards N^2 = N, E^2 = ±Id and
    Gamma^2 = Id (a composition with a 2-form is part of a construction).

    Module functions are wrapped at every fncalc module that binds them.
    """
    counts = Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for key, fn in (
        ("torsion", calculus.nijenhuis_torsion),
        ("tangent_data", structures.tangent_data_for_chart),
    ):
        _wrap_bindings(monkeypatch, fn, counting(key, fn))
    compose = VectorValuedForm.compose

    def counting_compose(self, other):
        counts["compose"] += other.degree == 1
        return compose(self, other)

    monkeypatch.setattr(VectorValuedForm, "compose", counting_compose)
    return counts


#: (manifest, check name) -> (torsions, compositions) counted during the check.
CHECK_COUNTS = {
    ("f1_complex.json", "complex-J0"): (1, 1),
    ("f1_complex.json", "complex-J1"): (1, 1),
    ("f2_idempotent.json", "idempotent-N"): (1, 1),
    ("f2_idempotent.json", "cohomology-A"): (0, 0),
    ("f2_idempotent.json", "cohomology-D2"): (0, 0),
    ("f3_product.json", "product-P0"): (1, 1),
    ("f3_product.json", "product-P1"): (1, 1),
    ("f4_foliation.json", "foliation-gamma"): (1, 1),
    ("f4_foliation.json", "idempotent-gamma"): (1, 1),
    ("f5_tangent.json", "tangent-S0"): (1, 1),
    ("f5_tangent.json", "tangent-S1"): (1, 1),
    ("f6_invertible.json", "cohomology-A"): (0, 0),
    ("negative_fail.json", "cohomology-J2-zero"): (0, 0),
}


@pytest.mark.parametrize("manifest_name", sorted({m for m, _ in CHECK_COUNTS}))
def test_each_guard_runs_once(monkeypatch, manifest_name):
    """Constructions compute each torsion and composition once per check."""
    counts = _count_calls(monkeypatch)
    manifest = load_manifest(str(MANIFESTS / manifest_name), probe_degree=0)
    assert counts["tangent_data"] == (manifest_name == "f5_tangent.json")
    status = "fail" if manifest_name == "negative_fail.json" else "pass"
    for descriptor in manifest.checks:
        key = (manifest_name, descriptor["name"])
        if key not in CHECK_COUNTS:
            continue
        counts.clear()
        assert run_check(manifest, descriptor).status == status
        assert (counts["torsion"], counts["compose"]) == CHECK_COUNTS[key], key
        assert counts["tangent_data"] == (descriptor["kind"] == "tangent"), key


#: recipe -> (manifest, object, the library constructors it calls once each).
RECIPE_CALLS = {
    "idempotent": ("f2_idempotent.json", "N", ("idempotent_algebroid",)),
    "complex": ("f1_complex.json", "J1", ("complex_algebroid",)),
    "product": ("f3_product.json", "P1", ("product_algebroid",)),
    "invertible": ("f6_invertible.json", "J2", ("invertible_algebroid",)),
    "tangent": ("f5_tangent.json", "S1", ("connection_from_semispray", "connection_algebroid")),
}


@pytest.mark.parametrize("recipe", sorted(RECIPE_CALLS))
def test_each_recipe_calls_its_constructor_once(monkeypatch, recipe):
    """A recipe check and ``build recipe:name`` call their library constructor
    by its name in fncalc.cli, where a wrapper sees the call, exactly once."""
    manifest_name, obj, constructors = RECIPE_CALLS[recipe]
    manifest = load_manifest(str(MANIFESTS / manifest_name), probe_degree=0)
    counts = Counter()
    for name in {name for *_, names in RECIPE_CALLS.values() for name in names}:

        def counting(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    expected = Counter(dict.fromkeys(constructors, 1))
    if recipe in cli.CHECK_KINDS:
        key = cli._RECIPES[recipe][0]
        assert run_check(manifest, {"kind": recipe, key: obj}).status == "pass"
        assert counts == expected
        counts.clear()
    cli._build_algebroid(manifest, f"{recipe}:{obj}")
    assert counts == expected


#: (manifest, check name) -> TangentAlgebroid.bracket calls of the passing
#: check at the manifest's probe degree. The axioms and recipe checks read
#: their residuals off D^2 (``check_cohomology``), a decompose check reaches
#: the frame through ``_frame_bundle``, which reads the structure functions
#: off dK - L, and an isomorphism check reads phi K'(phi e_a, phi e_b) off
#: condition 1 of D^2; none of them brackets. A construction brackets nothing
#: itself.
BRACKET_COUNTS = {
    ("f1_complex.json", "complex-J0"): 0,
    ("f1_complex.json", "complex-J1"): 0,
    ("f2_idempotent.json", "idempotent-N"): 0,
    ("f2_idempotent.json", "axioms-A"): 0,
    ("f2_idempotent.json", "decompose-A"): 0,
    ("f3_product.json", "product-P0"): 0,
    ("f3_product.json", "product-P1"): 0,
    ("f4_foliation.json", "idempotent-gamma"): 0,
    # one h-h pair and two h-v pairs of the adapted frame
    ("f4_foliation.json", "foliation-gamma"): 3,
    ("f5_tangent.json", "tangent-S0"): 0,
    ("f5_tangent.json", "tangent-S1"): 0,
    ("f6_invertible.json", "axioms-A"): 0,
    ("f6_invertible.json", "isomorphism-A"): 0,
    ("f6_invertible.json", "decompose-A"): 0,
}


def _count_brackets(monkeypatch) -> Counter:
    """Count TangentAlgebroid.bracket calls under ``"bracket"``."""
    calls = Counter()
    bracket = TangentAlgebroid.bracket

    def counting(self, X, Y):
        calls["bracket"] += 1
        return bracket(self, X, Y)

    monkeypatch.setattr(TangentAlgebroid, "bracket", counting)
    return calls


@pytest.mark.parametrize("manifest_name", sorted({m for m, _ in BRACKET_COUNTS}))
def test_passing_algebroid_checks_bracket_only_the_frame(monkeypatch, manifest_name):
    """A passing axioms, recipe or isomorphism check brackets nothing, and a
    passing foliation check brackets only its frame pairs."""
    calls = _count_brackets(monkeypatch)
    manifest = load_manifest(str(MANIFESTS / manifest_name))
    assert manifest.probe_degree == 2
    for descriptor in manifest.checks:
        key = (manifest_name, descriptor["name"])
        if key not in BRACKET_COUNTS:
            continue
        calls.clear()
        assert run_check(manifest, descriptor).status == "pass"
        assert calls["bracket"] == BRACKET_COUNTS[key], key


@pytest.mark.parametrize("probe_degree", [0, 2, 4])
def test_failing_axioms_check_brackets_only_the_frame(monkeypatch, probe_degree):
    """A failing axioms check gets its Jacobi records from frame values: the
    rank-4 ``axioms-N-zero`` reads A and J off D^2 at every probe degree, as
    a passing one does, and brackets no frame pair and no probe triple."""
    calls = _count_brackets(monkeypatch)
    manifest = load_manifest(
        str(MANIFESTS / "negative_fail.json"), probe_degree=probe_degree
    )
    (descriptor,) = [d for d in manifest.checks if d["name"] == "axioms-N-zero"]
    assert run_check(manifest, descriptor).status == "fail"
    assert calls["bracket"] == 0


#: (manifest, check name) -> (ScalarExpr.partial calls of the check run after
#: the checks before it in its manifest, calls it makes more when it runs
#: first), at probe degree 0. A derived tensor is kept on the record it is
#: derived from, so a check reads what an earlier check derived from the same
#: object: complex-J1 and product-P1 the torsion table of their endomorphism
#: (n^3 = 8 partials on the plane), which torsion-J1 and torsion-P1 formed,
#: and decompose-A the dK of its anchor (18 partials for J2's four 1-forms),
#: which cohomology-A formed. axioms-A reads K' and L' off cohomology-A's
#: D^2 (204 partials when it runs first, as cohomology-A takes) and
#: isomorphism-A reads K' alone (82 partials first), so both differentiate
#: nothing.
SHARED_PARTIALS = {
    ("f1_complex.json", "complex-J1"): (12, 8),
    ("f3_product.json", "product-P1"): (6, 8),
    ("f6_invertible.json", "axioms-A"): (0, 204),
    ("f6_invertible.json", "isomorphism-A"): (0, 82),
    ("f6_invertible.json", "decompose-A"): (130, 18),
}


@pytest.mark.parametrize("manifest_name", sorted({m for m, _ in SHARED_PARTIALS}))
def test_checks_share_derived_tensors_in_manifest_order(monkeypatch, manifest_name):
    """Each pinned check, run in manifest order, forms no tensor an earlier
    check formed from the same object; axioms-A and isomorphism-A call no
    Lie derivative, bracket or insertion at all."""
    counts = Counter()
    partial = ScalarExpr.partial

    def counting_partial(self, var):
        counts["partial"] += 1
        return partial(self, var)

    monkeypatch.setattr(ScalarExpr, "partial", counting_partial)
    for fn in (calculus.lie_derivative, calculus.fn_bracket, calculus.insertion):

        def counting(*args, _fn=fn):
            counts[_fn.__name__] += 1
            return _fn(*args)

        _wrap_bindings(monkeypatch, fn, counting)

    def run(first_only: str | None = None) -> dict[str, Counter]:
        manifest = load_manifest(str(MANIFESTS / manifest_name), probe_degree=0)
        out = {}
        for descriptor in manifest.checks:
            if first_only in (None, descriptor["name"]):
                counts.clear()
                assert run_check(manifest, descriptor).status == "pass"
                out[descriptor["name"]] = +counts
        return out

    in_order = run()
    for (pinned_manifest, name), (calls, saved) in SHARED_PARTIALS.items():
        if pinned_manifest != manifest_name:
            continue
        got = in_order[name]["partial"]
        assert (got, run(first_only=name)[name]["partial"] - got) == (calls, saved), name
        if name in ("axioms-A", "isomorphism-A"):
            assert in_order[name] == Counter(), name


class TestSubcommands:
    def test_torsion_command(self, tmp_path, capsys):
        doc = n_manifest()
        code = main(
            ["torsion", write_manifest(tmp_path, doc), "N", "--format", "json"]
        )
        assert code == EXIT_FAIL
        doc_out = json.loads(capsys.readouterr().out)
        assert doc_out["checks"][0]["residuals"][0]["value"] == "1"

    def test_decompose_command(self, tmp_path, capsys):
        doc = n_manifest(
            algebroids={"A": {"anchor": "N", "correction": "auto:torsion"}}
        )
        code = main(
            ["decompose", write_manifest(tmp_path, doc), "A", "--format", "json"]
        )
        assert code == EXIT_PASS
        record = json.loads(capsys.readouterr().out)["checks"][0]
        assert record["details"]["L"]["entries"] == {"3,4": ["-1", "0", "0", "0"]}

    def test_build_emits_manifest_fragment(self, tmp_path, capsys):
        code = main(
            [
                "build",
                write_manifest(tmp_path, n_manifest()),
                "idempotent:N",
                "--format",
                "json",
            ]
        )
        assert code == EXIT_PASS
        fragment = json.loads(capsys.readouterr().out)
        alg = fragment["algebroids"]["idempotent:N"]
        assert alg["anchor_matrix"][0] == ["1", "0", "0", "-z"]
        assert alg["correction"]["entries"] == {"3,4": ["-1", "0", "0", "0"]}

    @pytest.mark.parametrize("case", sorted(BUILD_GOLDEN))
    def test_build_output_is_pinned(self, capsys, case):
        """``build --format json`` output and exit code, as captured in build_golden.json."""
        manifest_name, construction = case.split()
        code = main(
            ["build", str(MANIFESTS / manifest_name), construction, "--format", "json"]
        )
        assert (code, capsys.readouterr().out) == (
            BUILD_GOLDEN[case]["exit"],
            BUILD_GOLDEN[case]["stdout"],
        )

    def test_build_text_output(self, capsys):
        path = str(MANIFESTS / "f2_idempotent.json")
        assert main(["build", path, "idempotent:N"]) == EXIT_PASS
        assert capsys.readouterr().out == (
            "construction: idempotent:N\n"
            "anchor:\n"
            "  [1, 0, 0, -z]\n"
            "  [0, 1, 0, 0]\n"
            "  [0, 0, 0, 0]\n"
            "  [0, 0, 0, 0]\n"
            "correction:\n"
            "  (3,4): [-1, 0, 0, 0]\n"
        )
        assert main(["build", path, "idempotent:Z"]) == EXIT_PASS
        assert capsys.readouterr().out == (
            "construction: idempotent:Z\n"
            "anchor:\n"
            + "  [0, 0, 0, 0]\n" * 4
            + "correction:\n"
            "  0\n"
        )

    def test_invertible_correction_of_a_singular_anchor_exit_two(self, tmp_path, capsys):
        doc = n_manifest(algebroids={"A": {"anchor": "N", "correction": "auto:invertible"}})
        assert main(["verify", write_manifest(tmp_path, doc)]) == EXIT_ERROR
        assert "matrix is singular over the function field" in capsys.readouterr().err

    def test_build_unknown_construction_exit_two(self, tmp_path, capsys):
        code = main(
            ["build", write_manifest(tmp_path, n_manifest()), "complexify:N"]
        )
        assert code == EXIT_ERROR
        capsys.readouterr()

    def test_build_unknown_name_without_a_recipe_exit_two(self, tmp_path, capsys):
        """A construction with no colon must name an algebroid of the manifest."""
        code = main(["build", write_manifest(tmp_path, n_manifest()), "N"])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: unknown construction 'N'; use a named algebroid or recipe:object "
            "(recipes: " + ", ".join(cli._RECIPES) + ")\n"
        )

    @pytest.mark.parametrize("construction", ["nosuch", "nosuch:J1", "complex:nosuch"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_build_construction_that_names_nothing(self, capsys, construction, fmt):
        """Like a manifest that cannot load, a construction that names no
        algebroid, recipe or object exits 2 with nothing on stdout and one
        error line on stderr, in either format."""
        path = str(MANIFESTS / "f1_complex.json")
        code = main(["build", path, construction, "--format", fmt])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_build_rejects_invalid_input(self, tmp_path, capsys):
        code = main(["build", write_manifest(tmp_path, n_manifest()), "complex:N"])
        assert code == EXIT_ERROR
        capsys.readouterr()


SYMPY_FREE_VERIFY = """
import contextlib, io, json, pathlib, sys
import fncalc.cli
assert "sympy" not in sys.modules, "importing fncalc.cli loaded sympy"
manifests = pathlib.Path(sys.argv[1])
expected = {"negative_fail": 1, "negative_error": 2}
names = sorted(path.stem for path in manifests.glob("*.json"))
assert len(names) == 9, names
for name in names:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = fncalc.cli.main(["verify", str(manifests / f"{name}.json"), "--format", "json"])
    assert got == expected.get(name, 0), (name, got)
    assert json.loads(out.getvalue())["probe_degree"] == 2, name
    assert "sympy" not in sys.modules, f"verifying {name} loaded sympy"
"""


def _fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's fncalc."""
    src = str(pathlib.Path(fncalc.__file__).resolve().parent.parent)
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_verify_never_imports_sympy():
    """The scalar kernel does its own arithmetic over Z and Z[i], gcds
    included, so a fresh process verifies all 9 fixture manifests, at their
    default probe degree, without loading sympy."""
    proc = _fresh_python(SYMPY_FREE_VERIFY, str(MANIFESTS))
    assert proc.returncode == 0, proc.stderr


#: Standard-library modules that cost a cold start several milliseconds and
#: that fncalc does not need: ``dataclasses`` loads ``inspect`` (and with it
#: ``ast``, ``dis`` and ``tokenize``), ``fractions`` loads ``decimal``.
COLD_START_MODULES = ("dataclasses", "inspect", "fractions", "decimal")

LOADED_COLD_START_MODULES = f"""
import sys
print(sorted(m for m in {COLD_START_MODULES!r} if m in sys.modules))
"""


def test_verify_loads_no_cold_start_module():
    """Importing fncalc.cli and verifying all 9 fixture manifests loads none
    of COLD_START_MODULES beyond what a bare interpreter has loaded (``site``
    may load some)."""
    bare = _fresh_python(LOADED_COLD_START_MODULES)
    assert bare.returncode == 0, bare.stderr
    verified = _fresh_python(SYMPY_FREE_VERIFY + LOADED_COLD_START_MODULES, str(MANIFESTS))
    assert verified.returncode == 0, verified.stderr
    assert verified.stdout == bare.stdout


def _package_imports():
    """(file name, line, imported modules, inside a function) for every
    import statement of the package."""
    package = pathlib.Path(fncalc.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        nested = {
            id(node)
            for scope in ast.walk(tree)
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for node in ast.walk(scope)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            yield path.name, node.lineno, modules, id(node) in nested


def test_no_module_imports_sympy():
    """sympy is only the tests' reference oracle: no module of the package
    imports it, at top level or inside a function."""
    offenders = [
        f"{name}:{line}"
        for name, line, modules, _ in _package_imports()
        if any(m == "sympy" or m.startswith("sympy.") for m in modules)
    ]
    assert offenders == []


def test_no_module_imports_dataclasses_or_top_level_fractions():
    """Records are plain classes and the printer's rationals are integer
    pairs: no module imports ``dataclasses``, and ``fractions`` is imported
    only inside the function that accepts a ``Fraction``."""
    offenders = [
        f"{name}:{line}"
        for name, line, modules, in_function in _package_imports()
        if "dataclasses" in modules or ("fractions" in modules and not in_function)
    ]
    assert offenders == []
