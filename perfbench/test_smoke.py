"""Smoke test of the benchmark at a tiny scale.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload for half a second with the tiny block sizes and
checks the output contract: every metric of BENCHMARK.json appears with its
unit, outputs pass their checks, the same seed gives the same digest (traced
or not) and another seed gives another one.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(result line, detailed report) of one tiny run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    w = request.param
    return {"first": bench(w, 1, 0), "again": bench(w, 1, 0), "other": bench(w, 2, 0),
            "traced": bench(w, 1, 1)}


def test_result_line_has_every_metric_with_its_unit(runs):
    for key, metrics in (("first", SPEC["end_to_end"]), ("traced", SPEC["per_layer"])):
        result, report = runs[key]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert report["failed_ratio"]["value"] == 0
        for m in metrics:
            if m["name"] in report.get("absent", ()):
                continue
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"], m["name"]
            assert isinstance(got["value"], (int, float)), m["name"]
        assert set(result["metrics"]) <= {m["name"] for m in metrics}


def test_end_to_end_metrics_are_never_zero(runs):
    result, report = runs["first"]
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for row in report["rows"].values():
        assert row["samples"] >= 1


def test_digest_depends_on_the_seed_only(runs):
    digest = runs["first"][1]["digest"]
    assert digest == runs["again"][1]["digest"]
    assert digest == runs["traced"][1]["digest"]
    assert digest != runs["other"][1]["digest"]


def test_traced_run_reports_its_overhead(runs):
    result, report = runs["traced"]
    assert "trace.overhead_pct" in result["metrics"]
    assert report["absent"] == []
    for row in report["tracing_overhead"].values():
        assert row["traced"]["samples"] >= 1 and row["untraced"]["samples"] >= 1


def test_without_sources_it_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
