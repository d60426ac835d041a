"""The benchmark's workloads: their inputs, one pass over them, and the checks
that every verdict matches the expected one.

An operation is one check of a manifest (fixture workloads) or one instance
of the central identity (1/2)[N,N]_FN = T_N (``random-fn``). A pass runs
every operation of the workload once. ``perfbench/expected.json`` holds the
expected verdict of every fixture check, written from the theorems, and the
sha256 of the JSON reports of the seed tree for seeds 0 and 7.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from typing import Callable

OUT_DIR = "perfbench/out"
EXPECTED_PATH = "perfbench/expected.json"

#: Probe fields of the ``axioms`` checks are seeded constant fields. At
#: higher probe degrees the cost of a check depends on the seed (on
#: f1_complex.json, degree 1 varies by about 18% between seeds), which would
#: hide a regression of that size; at degree 0 the work is the same for
#: every seed.
PROBE_DEGREE = 0

#: The real-chart fixtures except f2_idempotent.json. Its checks repeat code
#: paths that f4, f6 and negative_fail cover (idempotent construction,
#: cohomology, axioms, decompose) and take 40% of a pass; without it two
#: measured passes and the cold CLI runs fit the time one run may take.
REAL_MANIFESTS = (
    "manifests/f3_product.json",
    "manifests/f4_foliation.json",
    "manifests/f5_tangent.json",
    "manifests/f6_invertible.json",
    "manifests/bundle.json",
    "manifests/negative_fail.json",
    "manifests/negative_error.json",
)
COMPLEX_MANIFESTS = ("manifests/f1_complex.json",)
#: Manifests of fixtures-real that also run as cold ``fncalc verify``
#: processes (one exits 0, one exits 2). Their checks are cheap, so start-up,
#: loading and rendering dominate; the expensive checks are timed in-process.
REAL_CLI_MANIFESTS = (
    "manifests/f3_product.json",
    "manifests/negative_error.json",
)
CHILD_TIMEOUT_S = 60

RANDOM_FN_COUNT = 12
RANDOM_FN_DIMS = (2, 3, 4)
RANDOM_FN_COORDS = ("x", "y", "z", "w")
#: The cold CLI run of random-fn verifies the first endomorphisms of this
#: dimension.
RANDOM_FN_CLI_DIM = 3
RANDOM_FN_CLI_COUNT = 2

Record = Callable[[float | None, bool], None]


def _no_tick() -> None:
    pass


def report_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_env() -> dict[str, str]:
    src = os.path.abspath("src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def timed_process(argv: list[str]) -> tuple[float, str, int]:
    """Run a child to completion; (wall time, stdout, exit code).

    The wait blocks instead of polling, as ``subprocess.run(timeout=...)``
    does in steps of up to 50 ms, which would show in the timing. A timer
    kills a child that runs past ``CHILD_TIMEOUT_S``.
    """
    start = time.perf_counter()
    with subprocess.Popen(
        argv, env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    ) as proc:
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out, _ = proc.communicate()
        finally:
            killer.cancel()
    return time.perf_counter() - start, out, proc.returncode


def run_cli(path: str, seed: int) -> tuple[float, str, int]:
    """One cold ``fncalc verify --format json`` process; (wall, stdout, exit code)."""
    return timed_process([
        sys.executable, "-m", "fncalc.cli", "verify", path, "--format", "json",
        "--seed", str(seed), "--probe-degree", str(PROBE_DEGREE),
    ])


class Expected:
    """Expected verdicts per manifest, and report hashes for the stored seeds."""

    def __init__(self, doc: dict):
        self.manifests = doc["manifests"]
        self.report_sha256 = doc.get("report_sha256", {})

    @staticmethod
    def load(path: str = EXPECTED_PATH) -> "Expected":
        with open(path, encoding="utf-8") as fh:
            return Expected(json.load(fh))

    def report_ok(self, seed: int, path: str, text: str) -> bool:
        """True unless a hash is stored for (seed, path) and differs."""
        want = self.report_sha256.get(str(seed), {}).get(path)
        return want is None or want == report_sha256(text)


def cold_cli(path: str, seed: int, checks, exit_code: int, expected, record: Record) -> float:
    """Wall time of one cold CLI process on ``path``, whose report is verified."""
    wall, text, code = run_cli(path, seed)
    ok = statuses_match(text, code, checks, exit_code) and expected.report_ok(seed, path, text)
    for _ in checks:
        record(None, ok)
    return wall


def pass_seed(seed: int, index: int) -> int:
    """The inputs' seed for measured pass ``index`` of a run with ``seed``.

    Pass 0 uses the run's seed itself. The probe fields of the fixture
    checks are constants from -2..2 at probe degree 0, and a zero component
    makes a check cheaper: f1_complex.json is 22% cheaper at seed 13 than at
    seeds 0-12. Giving each pass its own seed makes the median pass a median
    over seeds, so that it does not hang on the seed of the run.
    """
    return seed + 1000 * index


def statuses_match(text: str, code: int, checks, exit_code: int) -> bool:
    """Whether a JSON report lists exactly ``checks`` (name, status) and ``exit_code``."""
    try:
        doc = json.loads(text)
        got = [(c["name"], c["status"]) for c in doc["checks"]]
    except (ValueError, KeyError, TypeError):
        return False
    return code == exit_code and got == [tuple(c) for c in checks]


class FixtureWorkload:
    """Manifests verified through the CLI's own functions, check by check."""

    def __init__(self, manifests, cli_manifests, seed: int, expected: Expected):
        self.manifests = tuple(manifests)
        self.cli_manifests = tuple(cli_manifests)
        self.seed = seed
        self.expected = expected
        #: With ``rotate``, measured pass k uses ``pass_seed(seed, k)``.
        self.rotate = False
        self.passes = 0
        self.cli_samples = 0

    def warm_up(self, record: Record) -> None:
        """Load every manifest and run its first check once."""
        self.run_pass(record, first_only=True)

    def run_pass(
        self, record: Record, tracer=None, first_only: bool = False, tick=_no_tick
    ) -> None:
        """The calls ``fncalc verify --format json`` makes, with each check timed.

        ``tick`` is called after each check and after each report, outside
        the timed calls.
        """
        from fncalc import cli

        seed = self.seed
        if not first_only:
            if self.rotate:
                seed = pass_seed(self.seed, self.passes)
            self.passes += 1
        op = 0
        for path in self.manifests:
            want = self.expected.manifests[path]
            if first_only:
                want = {"exit": None, "checks": want["checks"][:1]}
            try:
                manifest = cli.load_manifest(path, seed=seed, probe_degree=PROBE_DEGREE)
            except Exception:  # a crash fails every check of the manifest
                for _ in want["checks"]:
                    record(None, False)
                continue
            records, timed = [], []
            descriptors = manifest.checks[:1] if first_only else manifest.checks
            for expected_check, descriptor in itertools.zip_longest(want["checks"], descriptors):
                if tracer is not None:
                    tracer.op_id = op
                op += 1
                start = time.perf_counter()
                try:
                    rec = cli.run_check(manifest, descriptor) if descriptor is not None else None
                except Exception:
                    rec = None
                latency = time.perf_counter() - start
                ok = (
                    rec is not None
                    and expected_check is not None
                    and (rec.name, rec.status) == tuple(expected_check)
                )
                if rec is not None:
                    records.append(rec)
                timed.append((latency, ok))
                tick()
            try:
                text, code = cli.emit(manifest, records, "json")
                report_ok = first_only or (
                    code == want["exit"] and self.expected.report_ok(seed, path, text)
                )
            except Exception:
                report_ok = False
            tick()
            for latency, ok in timed:
                record(latency, ok and report_ok)

    def cli_sample(self, record: Record) -> float:
        """One cold CLI process per CLI manifest; the summed wall time.

        With ``rotate``, cold sample k uses ``pass_seed(seed, k)``.
        """
        seed = pass_seed(self.seed, self.cli_samples) if self.rotate else self.seed
        self.cli_samples += 1
        return sum(
            cold_cli(
                path, seed, self.expected.manifests[path]["checks"],
                self.expected.manifests[path]["exit"], self.expected, record,
            )
            for path in self.cli_manifests
        )


def _monomials(dim: int, degree: int):
    for total in range(degree + 1):
        yield from itertools.combinations_with_replacement(range(dim), total)


def random_entry(rng: random.Random, dim: int, degree: int = 2) -> str:
    """A polynomial of degree <= ``degree`` as text.

    Every monomial is present, with a coefficient drawn from -2, -1, 1, 2.
    With zero coefficients allowed, the number of terms, and so the cost of
    an identity, would change with the seed.
    """
    terms = []
    for monomial in _monomials(dim, degree):
        factors = [RANDOM_FN_COORDS[j] for j in monomial]
        terms.append("*".join([str(rng.choice((-2, -1, 1, 2)))] + factors))
    return " + ".join(terms)


def random_fn_inputs(seed: int):
    """``RANDOM_FN_COUNT`` endomorphisms as (coordinates, matrix of expression strings).

    This generator belongs to the benchmark, not to ``fncalc.randgen``, so a
    change to the program cannot change the inputs.
    """
    rng = random.Random(seed)
    out = []
    for k in range(RANDOM_FN_COUNT):
        dim = RANDOM_FN_DIMS[k % len(RANDOM_FN_DIMS)]
        rows = [[random_entry(rng, dim) for _ in range(dim)] for _ in range(dim)]
        out.append((RANDOM_FN_COORDS[:dim], rows))
    return out


class RandomFnWorkload:
    """The central identity (1/2)[N,N]_FN = T_N on seeded random endomorphisms."""

    def __init__(self, seed: int, expected: Expected):
        self.seed = seed
        self.expected = expected
        self.inputs = random_fn_inputs(seed)
        #: With ``rotate``, measured pass k verifies ``random_fn_inputs(pass_seed(seed, k))``,
        #: and cold sample k runs the ``cli_manifest`` of those inputs.
        self.rotate = False
        self.passes = 0
        self.cli_samples = 0

    def warm_up(self, record: Record) -> None:
        """Verify the first endomorphism of each dimension once."""
        self.run_pass(record, first_only=True)

    def run_pass(
        self, record: Record, tracer=None, first_only: bool = False, tick=_no_tick
    ) -> None:
        """Each identity timed; ``tick`` is called after each, outside the timing."""
        from fncalc import calculus

        if first_only:
            inputs = self.inputs[: len(RANDOM_FN_DIMS)]
        else:
            index, self.passes = self.passes, self.passes + 1
            inputs = random_fn_inputs(pass_seed(self.seed, index)) if self.rotate else self.inputs
        for op, (coords, rows) in enumerate(inputs):
            if tracer is not None:
                tracer.op_id = op
            # Two timed halves with a tick between: a 4-dimensional identity
            # takes over a second, and the host factor wants samples inside it.
            latency = 0.0
            start = time.perf_counter()
            try:
                chart = calculus.Chart(coords)
                N = calculus.VectorValuedForm.from_matrix(
                    chart, [[chart.scalar(e) for e in row] for row in rows]
                )
                half = chart.const(Fraction(1, 2))
                lhs = calculus.fn_bracket(N, N).scaled(half)
                latency += time.perf_counter() - start
                tick()
                start = time.perf_counter()
                ok = lhs == calculus.nijenhuis_torsion(N)
            except Exception:
                ok = False
            record(latency + time.perf_counter() - start, ok)
            tick()

    def cli_manifest(self, inputs, index: int = 0) -> tuple[str, dict]:
        """A manifest of ``cohomology`` checks with zero correction.

        Such a check computes (1/2)[N,N]_FN and compares it with the torsion
        route internally, reporting ``error`` if the two differ; otherwise its
        residual is T_N, so the verdict is ``fail`` exactly when T_N != 0.
        Cold sample ``index`` > 0 gets a path of its own, because report
        hashes are stored by path for the inputs of the run's seed.
        """
        dim = RANDOM_FN_CLI_DIM
        chosen = [rows for coords, rows in inputs if len(coords) == dim]
        names = [f"N{k + 1}" for k in range(RANDOM_FN_CLI_COUNT)]
        doc = {
            "chart": {"coords": list(RANDOM_FN_COORDS[:dim]), "complex": False},
            "seed": 0,
            "probe_degree": PROBE_DEGREE,
            "endomorphisms": dict(zip(names, chosen)),
            "algebroids": {f"A{n}": {"anchor": n, "correction": "auto:zero"} for n in names},
            "checks": [
                {"kind": "cohomology", "algebroid": f"A{n}", "name": f"identity-{n}"}
                for n in names
            ],
        }
        suffix = f"-{index}" if index else ""
        return f"{OUT_DIR}/random-fn-{dim}{suffix}.json", doc

    def _write_cli_manifest(self, inputs, index: int = 0) -> tuple[str, list, int]:
        """Write ``cli_manifest``; returns its path, expected checks and exit code."""
        from fncalc import calculus

        path, doc = self.cli_manifest(inputs, index)
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        chart = calculus.Chart(tuple(doc["chart"]["coords"]))
        checks = []
        for name, rows in doc["endomorphisms"].items():
            N = calculus.VectorValuedForm.from_matrix(
                chart, [[chart.scalar(e) for e in row] for row in rows]
            )
            torsion_zero = calculus.nijenhuis_torsion(N).is_zero
            checks.append((f"identity-{name}", "pass" if torsion_zero else "fail"))
        exit_code = 0 if all(status == "pass" for _, status in checks) else 1
        return path, checks, exit_code

    def cli_sample(self, record: Record) -> float:
        """One cold CLI process on ``cli_manifest``; its wall time."""
        index = self.cli_samples if self.rotate else 0
        self.cli_samples += 1
        inputs = random_fn_inputs(pass_seed(self.seed, index))
        path, checks, exit_code = self._write_cli_manifest(inputs, index)
        return cold_cli(path, self.seed, checks, exit_code, self.expected, record)
