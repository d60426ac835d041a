"""fncalc benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fixtures-real --seed 0 --seconds 36 --trace 0

Workloads (see perfbench/NOTES.md for why each exists):

* ``fixtures-real``    7 real-chart fixture manifests, 18 checks;
* ``fixtures-complex`` ``f1_complex.json``, 4 checks, dominated by gcds over Q(i);
* ``random-fn``        (1/2)[N,N]_FN = T_N on 12 seeded random endomorphisms.

The load is a closed loop in one process and one thread: a pass starts when
the previous one ends. A short warm-up (the first operation of each
manifest, or of each dimension) is not measured. Measured passes then run
until the next would overrun ``--seconds``, with at least two of them. With
``--trace 0``, each measured pass draws its inputs from its own seed (see
``workloads.pass_seed``), cold interpreter start-ups (``setup_s``) and cold
``fncalc verify`` processes (``cli_wall_s``) are timed between passes, and
the end-to-end metrics are printed in seconds at reference host speed
(perfbench/hostspeed.py; the raw seconds are in the details). With
``--trace 1`` the run makes untraced passes for a third of the time, then
traced passes, and prints the per-layer metrics of perfbench/tracer.py.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the details: machine facts, pass times, per-check latency (median,
and the tail percentile with its sample count), and the share of wrong
verdicts. Both are also written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("fixtures-real", "fixtures-complex", "random-fn")
#: Cold samples (start-up and CLI processes) are taken between passes, once
#: per 1/COLD_SLOTS of the measured time, so that they spread over the run
#: as the passes do.
COLD_SLOTS = 6
MIN_COLD_SLOTS = 4
SETUP_PER_SLOT = 1
MIN_PASSES = 2


class Verdicts:
    """Operations attempted and wrong, plus the latencies of measured ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.measuring = False

    def record(self, latency: float | None, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        if self.measuring and latency is not None:
            self.latencies.append(latency)


def missing_inputs() -> list[str]:
    needed = ["src/fncalc/cli.py", workloads.EXPECTED_PATH]
    needed += list(workloads.REAL_MANIFESTS + workloads.COMPLEX_MANIFESTS)
    return [p for p in needed if not os.path.isfile(p)]


def setup_sample() -> float:
    """Wall time of a fresh interpreter that imports ``fncalc.cli``."""
    wall, _, code = workloads.timed_process([sys.executable, "-c", "import fncalc.cli"])
    if code != 0:
        raise RuntimeError(f"importing fncalc.cli failed with exit code {code}")
    return wall


def machine_facts(seed: int) -> dict:
    import importlib.util

    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "ground_types": GROUND_TYPES,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "flint": importlib.util.find_spec("flint") is not None,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def make_workload(name: str, seed: int, expected):
    if name == "fixtures-real":
        return workloads.FixtureWorkload(
            workloads.REAL_MANIFESTS, workloads.REAL_CLI_MANIFESTS, seed, expected
        )
    if name == "fixtures-complex":
        return workloads.FixtureWorkload(
            workloads.COMPLEX_MANIFESTS, workloads.COMPLEX_MANIFESTS, seed, expected
        )
    return workloads.RandomFnWorkload(seed, expected)


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with ten samples beyond it (the maximum if none has)."""
    if samples <= 10:
        return 100
    return math.floor(100 * (samples - 10) / samples)


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def run_passes(
    workload, verdicts: Verdicts, speed, seconds: float, least: int, tracer=None, cold=None
) -> list[float]:
    """Closed loop: passes back to back while the next one fits in ``seconds``.

    Returns the program time of each pass; the kernel samples that
    ``speed`` takes after each operation are not in it. With ``cold`` (lists
    ``setup`` and ``cli``), a cold slot is taken before the first pass and
    then before a pass once per 1/``COLD_SLOTS`` of ``seconds``; after the
    last pass, slots are added until there are ``MIN_COLD_SLOTS``. Each slot
    is bracketed by kernel samples. The next pass runs only if it, the slot
    due before it and the slots still owed fit in ``seconds``, judged by the
    last pass and the last slot.
    """
    slot_wall = 0.0

    def take_cold():
        nonlocal slot_wall
        start = time.perf_counter()
        speed.sample()
        cold["setup"].extend(setup_sample() for _ in range(SETUP_PER_SLOT))
        speed.sample()
        cold["cli"].append(workload.cli_sample(verdicts.record))
        speed.sample()
        slot_wall = time.perf_counter() - start

    def cold_due(now: float) -> bool:
        return cold is not None and len(cold["cli"]) < COLD_SLOTS and now - begin >= next_cold

    kernel_s = 0.0

    def tick():
        nonlocal kernel_s
        start = time.perf_counter()
        speed.sample()
        kernel_s += time.perf_counter() - start

    walls: list[float] = []
    begin = time.perf_counter()
    next_cold = 0.0
    while True:
        if cold_due(time.perf_counter()):
            take_cold()
            next_cold += seconds / COLD_SLOTS
        if tracer is not None:
            tracer.reset()
        kernel_s = 0.0
        start = time.perf_counter()
        workload.run_pass(verdicts.record, tracer, tick=tick)
        end = time.perf_counter()
        walls.append(end - start - kernel_s)
        if tracer is not None:
            tracer.pass_done(walls[-1])
        if len(walls) < least:
            continue
        slots = 0
        owed = 0
        if cold is not None:
            slots = int(cold_due(end))
            owed = max(0, MIN_COLD_SLOTS - len(cold["cli"]) - slots)
        if end - begin + (end - start) + (slots + owed) * slot_wall > seconds:
            while cold is not None and len(cold["cli"]) < MIN_COLD_SLOTS:
                take_cold()
            return walls


def layer_metrics(tracer, untraced_wall: float) -> dict[str, tuple[float, str]]:
    first = tracer.passes[0]
    out: dict[str, tuple[float, str]] = {}
    for name in tracing.FUNCTIONS:
        out[f"{name}.calls"] = (first["calls"].get(name, 0), "count")
        share = statistics.median(p["self_s"].get(name, 0.0) / p["wall"] for p in tracer.passes)
        out[f"{name}.self_share"] = (share, "share")
    for layer in tracing.LAYERS:
        out[f"{layer}.errors"] = (first["errors"].get(layer, 0), "count")
    cancels = first["calls"].get("scalar.cancel", 0)
    out["scalar.cancel.useful_ratio"] = (first["cancel_useful"] / cancels if cancels else 0.0, "ratio")
    out["scalar.cancel.gaussian_share"] = (first["cancel_gaussian"] / cancels if cancels else 0.0, "share")
    traced_wall = statistics.median(p["wall"] for p in tracer.passes)
    out["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
    return out


def run(name: str, seed: int, seconds: float, trace: bool, expected=None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, details)."""
    if expected is None:
        expected = workloads.Expected.load()
    metrics: dict[str, tuple[float, str]] = {}
    details: dict = {"workload": name, "trace": int(trace)}
    import fncalc.cli  # noqa: F401  (loads every module the tracer patches)

    details["machine"] = machine_facts(seed)
    workload = make_workload(name, seed, expected)
    verdicts = Verdicts()
    warm_start = time.perf_counter()
    workload.warm_up(verdicts.record)
    details["warmup_wall_s"] = time.perf_counter() - warm_start

    verdicts.measuring = True
    speed = hostspeed.HostSpeed()
    if trace:
        untraced_begin = time.perf_counter()
        untraced = run_passes(workload, verdicts, speed, seconds / 3, 1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            remaining = seconds - (time.perf_counter() - untraced_begin)
            traced = run_passes(workload, verdicts, speed, remaining, 1, tracer)
        finally:
            tracer.uninstall()
        metrics.update(layer_metrics(tracer, statistics.median(untraced)))
        details["untraced_pass_walls_s"] = untraced
        details["traced_pass_walls_s"] = traced
        details["self_s"] = tracer.passes[0]["self_s"]
        details["calls_repeat"] = all(p["calls"] == tracer.passes[0]["calls"] for p in tracer.passes)
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        spans_path = os.path.join(workloads.OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
        tracer.write_spans(spans_path)
        details["spans"] = spans_path
    else:
        workload.rotate = True
        cold = {"setup": [], "cli": []}
        walls = run_passes(workload, verdicts, speed, seconds, MIN_PASSES, cold=cold)
        factor = speed.factor()
        latencies = verdicts.latencies
        pct = tail_percentile(len(latencies))
        metrics["wall_s"] = (statistics.median(walls) / factor, "s")
        metrics["cli_wall_s"] = (statistics.median(cold["cli"]) / factor, "s")
        metrics["setup_s"] = (statistics.median(cold["setup"]) / factor, "s")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
        details["host_factor"] = factor
        details["kernel_samples_s"] = speed.samples
        details["raw_wall_s"] = statistics.median(walls)
        details["raw_cli_wall_s"] = statistics.median(cold["cli"])
        details["raw_setup_s"] = statistics.median(cold["setup"])
        details["pass_walls_s"] = walls
        details["setup_samples_s"] = cold["setup"]
        details["cli_samples_s"] = cold["cli"]
        # Per-check latency in raw seconds, reported but not gated: between
        # runs it spreads by up to 40% on fixtures-complex (see NOTES.md).
        details["check_p50_s"] = statistics.median(latencies)
        details["check_tail_s"] = nearest_rank(latencies, pct)
        details["check_tail_percentile"] = pct
        details["check_samples"] = len(latencies)
    details["wrong_ratio"] = verdicts.failed / verdicts.attempted
    result = {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    missing = missing_inputs()
    if missing:
        print("perfbench: run from the root of an fncalc checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    cpu = hostspeed.pin()
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    details["pinned_cpu"] = cpu
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    out_path = os.path.join(
        workloads.OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"details": details, "result": result}, fh, indent=2, sort_keys=True)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
