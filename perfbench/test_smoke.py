"""Smoke test of the benchmark's own code on tiny job lists.

Run from the repository root: python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REFERENCE = json.loads(run.REFERENCE.read_text())


def _tiny(workload: str, count: int = 3):
    """The cheapest jobs of a seeded list that exit 0 at the reference."""
    jobs = [
        j for j in corpus.jobs(workload, 1) if REFERENCE[j.key]["exact"]["exit"] == 0 and "/hard_" not in j.key
    ]
    return sorted(jobs, key=lambda j: (len(j.mask["coefficients"]), j.key))[:count]


def test_job_lists_are_seeded_and_stratified():
    strata = json.loads(corpus.STRATA.read_text())
    for workload in corpus.WORKLOADS:
        a, b, c = (corpus.jobs(workload, s) for s in (1, 1, 2))
        assert [j.key for j in a] == [j.key for j in b]
        assert {j.key for j in a} != {j.key for j in c}
        assert len(a) == len(c) >= 100
        assert all(j.key in REFERENCE for j in a + c)
        per_stratum = lambda js: sorted(strata.get(j.key, j.key) for j in js)  # noqa: E731
        assert per_stratum(a) == per_stratum(c)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run.measure(workload, 1, 0.0, trace=False, jobs=_tiny(workload))
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_traced_run_matches_untraced_output(workload):
    result = run.measure(workload, 1, 0.0, trace=True, jobs=_tiny(workload))
    assert result["correct"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }
    assert result["metrics"]["cli.main.calls"]["value"] == 3
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_deadline_fails_the_job_without_making_the_run_wrong():
    hard = next(j for j in corpus.jobs("spectrum", 1) if "/hard_" in j.key)
    result = run.measure("spectrum", 1, 0.0, trace=False, jobs=[hard, *_tiny("spectrum", 2)])
    assert result["correct"] and result["failed"] == 1
    assert result["metrics"]["job_p90_ms"]["value"] >= 1e3 * run.DEADLINE_S / 2


def test_gate_tolerates_rounding_but_not_errors():
    key = next(k for k in REFERENCE if k.startswith("basis/"))
    entry = REFERENCE[key]
    name = next(n for n in entry["float"] if n.endswith(".csv"))
    nudged = json.loads(json.dumps(entry))
    scale = entry["float"][name]["scale"]
    nudged["float"][name]["v"][0] += 0.1 * gate.RTOL * scale
    assert gate.mismatches(entry, nudged) == []
    nudged["float"][name]["v"][0] += 10 * gate.RTOL * scale
    assert gate.mismatches(entry, nudged)
    flipped = json.loads(json.dumps(entry))
    flipped["exact"]["exit"] = 1
    assert gate.mismatches(entry, flipped)
