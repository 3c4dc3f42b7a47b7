"""Record ``reference.json`` and ``strata.json`` for every job in every pool.

Usage: python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each pool job without a deadline (the two hard ``spectrum`` masks
take about a minute each) and writes one reference entry per job key,
plus the stratum of each key that the job lists are drawn by (see
``corpus.py``).  A random mask's cost is the fastest of ``REPEATS`` runs,
scaled by ``clock.py``.  Run it only on the commit whose
outputs the gate should hold later commits to; entries of workloads not
named are kept.
"""

from __future__ import annotations

import json
import shutil
import sys

import clock
import corpus
import gate
import run

sys.path.insert(0, str(run.SRC))

from refinable import cli  # noqa: E402

REPEATS = 3


def main(workloads) -> None:
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    strata = json.loads(corpus.STRATA.read_text()) if corpus.STRATA.exists() else {}
    out = run.WORK / "record"
    for workload in workloads:
        jobs, costs = corpus.pool(workload), {}
        for job in jobs:
            for _ in range(REPEATS if job.family else 1):
                shutil.rmtree(out, ignore_errors=True)
                before = clock.calibration()
                _, seconds, status, rc, stdout, error = run.run_job(cli, job, out, None)
                if status not in ("ok", "exit"):
                    raise SystemExit(f"{job.key}: {status}\n{error}")
                cost = clock.scaled(seconds, (before + clock.calibration()) / 2)
                costs[job.key] = min(cost, costs.get(job.key, cost))
            reference[job.key] = gate.facts(job.argv[0], rc, out, stdout)
            print(f"{job.key} {costs[job.key]:.4f} rc={rc}", flush=True)
        strata.update(stratify(jobs, reference, costs))
    shutil.rmtree(out, ignore_errors=True)
    run.WORK.rmdir()
    lines = [f"{json.dumps(k)}: {json.dumps(reference[k], separators=(',', ':'))}" for k in sorted(reference)]
    run.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    corpus.STRATA.write_text(json.dumps(dict(sorted(strata.items())), indent=0) + "\n")


def stratify(jobs, reference: dict, costs: dict[str, float]) -> dict[str, str]:
    """Strata of the random masks: per family and outcome class, runs of
    ``corpus.CANDIDATES`` masks of adjacent cost."""
    classes: dict[str, list[str]] = {}
    for job in jobs:
        if job.family:
            facts = reference[job.key]["exact"]
            label = f"{job.family}-exit{facts['exit']}" + ("-exact" if facts.get("exact_mode") else "")
            classes.setdefault(label, []).append(job.key)
    out = {}
    for label, keys in classes.items():
        keys.sort(key=costs.get)
        for rank, key in enumerate(keys):
            out[key] = f"{label}-{rank // corpus.CANDIDATES:03d}"
    return out


if __name__ == "__main__":
    main(sys.argv[1:] or corpus.WORKLOADS)
