"""``fncalc verify`` reports are pinned by hash across seeds and probe degrees.

``report_hashes.json`` maps "manifest seed probe-degree" to the sha256 of the
JSON report on stdout, the sha256 of stderr and the exit code. The golden
reports in ``tests/golden/`` pin seed 0 at the manifests' own probe degree;
this pins seeds 0 and 7, each at the manifest's degree and at degrees 0, 1, 3
and 4 (every degree up to 4).
"""

import contextlib
import hashlib
import io
import json
import pathlib

from fncalc.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
HASHES = pathlib.Path(__file__).resolve().parent / "report_hashes.json"
SEEDS = ("0", "7")
#: Probe-degree option lists: the manifest's own degree (2), and each other degree.
PROBE_DEGREES = {"default": ()} | {d: ("--probe-degree", d) for d in "0134"}


def report_hashes() -> dict[str, dict]:
    """Run every manifest in-process and hash what it prints.

    Paths are given relative to the repository root, as the reports echo them.
    """
    hashes = {}
    for path in sorted((ROOT / "manifests").glob("*.json")):
        for seed in SEEDS:
            for degree, option in PROBE_DEGREES.items():
                out, err = io.StringIO(), io.StringIO()
                argv = ["verify", f"manifests/{path.name}", "--format", "json"]
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([*argv, "--seed", seed, *option])
                hashes[f"{path.name} {seed} {degree}"] = {
                    "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                    "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
                    "exit": code,
                }
    return hashes


def test_reports_match_pinned_hashes(monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = json.loads(HASHES.read_text())
    actual = report_hashes()
    assert len(actual) == 90
    assert actual == expected
