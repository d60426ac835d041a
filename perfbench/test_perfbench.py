"""Tests of the benchmark itself, on a reduced workload (bundle.json only).

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BUNDLE = "manifests/bundle.json"


@pytest.fixture(autouse=True)
def bundle_only(monkeypatch):
    """Every run in these tests verifies bundle.json alone."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(
        run,
        "make_workload",
        lambda name, seed, expected: workloads.FixtureWorkload((BUNDLE,), (BUNDLE,), seed, expected),
    )


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, section):
    result, _ = run.run("fixtures-real", 0, 0.5, trace)
    want = {m["name"]: m["unit"] for m in benchmark_spec()[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0


def test_a_tampered_expected_verdict_counts_as_wrong():
    doc = {"manifests": copy.deepcopy(workloads.Expected.load().manifests)}
    doc["manifests"][BUNDLE]["checks"][0][1] = "fail"
    result, details = run.run("fixtures-real", 0, 0.5, True, workloads.Expected(doc))
    assert result["failed"] > 0 and not result["correct"]
    assert details["wrong_ratio"] > 0


def test_a_tampered_report_hash_counts_as_wrong():
    doc = {
        "manifests": workloads.Expected.load().manifests,
        "report_sha256": {"0": {BUNDLE: "0" * 64}},
    }
    result, _ = run.run("fixtures-real", 0, 0.5, True, workloads.Expected(doc))
    assert result["failed"] > 0


def test_traced_counts_repeat_exactly_across_runs():
    def counts():
        result, details = run.run("fixtures-real", 0, 0.5, True)
        assert details["calls_repeat"]
        return {k: m["value"] for k, m in result["metrics"].items() if k.endswith(".calls")}

    first = counts()
    assert first["algebroid.check_bundle_axioms.calls"] == 1
    assert first == counts()


def test_random_fn_inputs_depend_only_on_the_seed():
    assert workloads.random_fn_inputs(3) == workloads.random_fn_inputs(3)
    assert workloads.random_fn_inputs(3) != workloads.random_fn_inputs(4)
    dims = [len(coords) for coords, _ in workloads.random_fn_inputs(0)]
    assert dims == [2, 3, 4] * (workloads.RANDOM_FN_COUNT // 3)


def test_rotated_random_fn_cold_samples_verify():
    """Cold sample 1 verifies other inputs than the run's seed, under a path of its own."""
    workload = workloads.RandomFnWorkload(0, workloads.Expected.load())
    workload.rotate = True
    verdicts = []
    workload.cli_sample(lambda latency, ok: verdicts.append(ok))
    workload.cli_sample(lambda latency, ok: verdicts.append(ok))
    assert verdicts and all(verdicts)
    first, _ = workload.cli_manifest(workloads.random_fn_inputs(0))
    second, _ = workload.cli_manifest(workloads.random_fn_inputs(workloads.pass_seed(0, 1)), 1)
    assert first != second


def test_host_factor_is_a_trimmed_mean():
    speed = hostspeed.HostSpeed()
    speed.samples = [0.002] * 10 + [0.004] * 9 + [1.0]
    assert speed.factor() == pytest.approx((0.002 * 9 + 0.004 * 9) / 18 / hostspeed.REFERENCE_S)
