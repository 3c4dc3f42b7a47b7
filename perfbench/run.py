"""Closed-loop benchmark of the ``refinable`` command line.

Usage::

    python3 perfbench/run.py --workload {spectrum,basis,verify} --seed N \\
        --seconds T --trace {0,1}

One caller in one process runs each job only after the previous one has
returned.  A job is one in-process ``refinable.cli.main([...])`` call, the
code path a user runs; ``corpus.py`` builds the job list from the seed and
says why each workload exists.  Every job runs under a deadline of
``DEADLINE_S`` seconds and its output is checked against the recorded
reference (``gate.py``).  A job fails if it raises, exits non-zero, misses
its deadline or disagrees with the reference; only a disagreement or an
exception makes the run incorrect.  The result line counts each job of the
list once in ``attempted``, and in ``failed`` if any of its runs failed.

``--trace 0`` runs whole passes over the job list until the jobs have run
for ``--seconds`` and prints the end-to-end metrics.  Job and set-up times
are CPU times of the benchmark's process, corrected for the machine's
speed next to each job (``clock.py``); each timing metric is the median
over the passes.  ``--trace 1`` runs one untraced and one
traced pass over the same list, checks that both give byte-identical
output, and prints the per-layer metrics of the traced pass
(``spans.py``).  The last line of standard output is one JSON object;
details per job, raw times included, go to ``perfbench/results/``.
"""

from __future__ import annotations

import os

# One BLAS thread is the steadiest setting on a small shared machine; it
# must be set before numpy is imported, here and in the set-up probes.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import clock  # noqa: E402
import corpus  # noqa: E402
import gate  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
RESULTS = HERE / "results"
WORK = HERE / "work"

# Well above the slowest normal job (B-spline order 11, about 0.8 s).
DEADLINE_S = 3.0
SETUP_SAMPLES = 11
WARMUP_JOBS = 3
SETUP_TIMEOUT_S = 60

E2E_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
}


class DeadlineExceeded(BaseException):
    """Raised in a job by the interval timer; not an Exception, so that no
    handler inside the package can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


@dataclass
class Outcome:
    key: str
    seconds: float
    cpu_seconds: float
    calibration: tuple[float, float]  # loop seconds just before and after
    status: str  # ok, exit, deadline, raised
    rc: int | None = None
    digest: str | None = None
    mismatches: list[str] = field(default_factory=list)
    ratios: dict | None = None
    error: str | None = None

    @property
    def scaled(self) -> float:
        """CPU seconds corrected for machine speed; a missed deadline is timer time."""
        if self.status == "deadline":
            return self.seconds
        return clock.scaled(self.cpu_seconds, sum(self.calibration) / 2)

    @property
    def failed(self) -> bool:
        return self.status != "ok" or bool(self.mismatches)

    @property
    def wrong(self) -> bool:
        return self.status == "raised" or bool(self.mismatches)


def run_job(cli, job, out: Path, deadline: float | None):
    """One CLI call: (wall seconds, CPU seconds, status, rc, stdout, error)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = job.cli_args(str(out))
    rc, status, error = None, "ok", None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        if deadline:
            signal.setitimer(signal.ITIMER_REAL, deadline)
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except DeadlineExceeded:
            status = "deadline"
        except Exception:
            status, error = "raised", traceback.format_exc(limit=-3)
        finally:
            seconds = time.perf_counter() - start
            cpu_seconds = time.process_time() - cpu_start
            signal.setitimer(signal.ITIMER_REAL, 0)
    if status == "ok" and rc != 0:
        status = "exit"
        error = stderr.getvalue()[-500:] or None
    return seconds, cpu_seconds, status, rc, stdout.getvalue(), error


def _digest(out: Path, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    if out.is_dir():
        for path in sorted(out.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs jobs one at a time and gates each one against the reference."""

    def __init__(self, workload: str, seed: int):
        from refinable import cli

        self.cli = cli
        self.reference = json.loads(REFERENCE.read_text())
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"

    def run(self, job) -> Outcome:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        before = clock.calibration()
        seconds, cpu_seconds, status, rc, stdout, error = run_job(self.cli, job, out, DEADLINE_S)
        outcome = Outcome(job.key, seconds, cpu_seconds, (before, clock.calibration()), status, rc, error=error)
        if status in ("ok", "exit"):
            outcome.digest = _digest(out, stdout)
            ref = self.reference.get(job.key)
            try:
                got = gate.facts(job.argv[0], rc, out, stdout)
                if job.argv[0] == "verify":
                    outcome.ratios = gate.check_ratios(stdout)
            except (OSError, ValueError, KeyError) as exc:
                outcome.mismatches = [f"unreadable output: {exc!r}"]
            else:
                outcome.mismatches = ["no reference"] if ref is None else gate.mismatches(ref, got)
        shutil.rmtree(out, ignore_errors=True)
        return outcome

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def run_pass(runner: Runner, jobs, tracer=None) -> list[Outcome]:
    outcomes = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job(i)
        outcomes.append(runner.run(job))
    return outcomes


def timed_passes(runner: Runner, jobs, seconds: float) -> list[list[Outcome]]:
    """Whole passes until the jobs have run for ``seconds`` in total.

    A job that missed its deadline is not run again: its first outcome
    stands for it in later passes, so that the passes time jobs rather than
    the timer.
    """
    passes, busy, timed_out = [], 0.0, {}
    while not passes or busy < seconds:
        outcomes = []
        for job in jobs:
            outcome = timed_out.get(job.key)
            if outcome is None:
                outcome = runner.run(job)
                busy += outcome.seconds
                if outcome.status == "deadline":
                    timed_out[job.key] = outcome
            outcomes.append(outcome)
        passes.append(outcomes)
    return passes


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """(seconds, calibration) of fresh set-up processes (``setup_probe.py``)."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        seconds, calibration = proc.stdout.split()[-2:]
        out.append((float(seconds), float(calibration)))
    return out


def harrell_davis(values, q: float, steps: int = 64) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics; it
    moves less than a single order statistic when the job times near the
    quantile are sparse, as they are in the slow tail of ``spectrum``.  The
    weights are integrated with the midpoint rule, ``steps`` points per
    order statistic.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    t = (np.arange(n * steps) + 0.5) / (n * steps)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    mass = np.exp(log_pdf - log_pdf.max()).reshape(n, steps).sum(axis=1)
    return float(mass @ x / mass.sum())


def end_to_end(passes: list[list[Outcome]], setup: list[tuple[float, float]]) -> dict[str, float]:
    times = [[o.scaled for o in p] for p in passes]
    return {
        "setup_s": statistics.median(clock.scaled(s, c, clock.SETUP_EXPONENT) for s, c in setup),
        "jobs_per_s": statistics.median(len(t) / sum(t) for t in times),
        "job_p50_ms": 1e3 * statistics.median(harrell_davis(t, 0.5) for t in times),
        "job_p90_ms": 1e3 * statistics.median(harrell_davis(t, 0.9) for t in times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # Rule-of-succession estimate (failed + 1) / (attempted + 2) per
        # pass: it is never 0, so a relative bound still applies when no
        # job fails; the raw counts are printed beside it.
        "failed_ratio": statistics.median((sum(o.failed for o in p) + 1) / (len(p) + 2) for p in passes),
    }


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes") or name.endswith("bytes_out"):
        return "bytes"
    return "count"


def environment(workload: str, seed: int) -> dict:
    from refinable import kernels

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": bool(kernels.USING_NUMBA),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "deadline_s": DEADLINE_S,
    }


def _outcome_doc(o: Outcome, pass_no: int) -> dict:
    doc = {
        "key": o.key,
        "pass": pass_no,
        "seconds": o.seconds,
        "cpu_seconds": o.cpu_seconds,
        "calibration_s": o.calibration,
        "status": o.status,
        "rc": o.rc,
    }
    for name in ("mismatches", "ratios", "error"):
        if getattr(o, name):
            doc[name] = getattr(o, name)
    return doc


def measure(workload: str, seed: int, seconds: float, trace: bool, jobs=None) -> dict:
    """One benchmark run; returns the result object that is printed."""
    sys.path.insert(0, str(SRC))
    setup = [] if trace else setup_seconds(workload, seed)
    jobs = corpus.jobs(workload, seed) if jobs is None else jobs
    runner = Runner(workload, seed)
    old = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for job in [j for j in jobs if "/hard_" not in j.key][:WARMUP_JOBS]:
            runner.run(job)
        if trace:
            from spans import Tracer

            plain = run_pass(runner, jobs)
            with Tracer() as tracer:
                traced = run_pass(runner, jobs, tracer)
            passes = [plain, traced]
            metrics = tracer.summary()
            metrics["trace.overhead_ratio"] = sum(o.scaled for o in traced) / sum(o.scaled for o in plain)
            changed = [a.key for a, b in zip(plain, traced) if a.digest != b.digest]
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            passes = timed_passes(runner, jobs, seconds)
            metrics = end_to_end(passes, setup)
            changed = []
            units = E2E_UNITS
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        runner.close()

    seen, runs = set(), []
    for pass_no, outcomes in enumerate(passes):
        for o in outcomes:
            if id(o) not in seen:
                seen.add(id(o))
                runs.append((pass_no, o))
    details = {
        "environment": environment(workload, seed),
        "setup_samples": [{"seconds": s, "calibration_s": c} for s, c in setup],
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "trace_output_changed": changed,
        "metrics": metrics,
        "jobs": [_outcome_doc(o, pass_no) for pass_no, o in runs],
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if trace:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    # An operation is one job of the list, failed if any of its runs
    # failed, so both counts are fixed by the list and the program rather
    # than by how many passes fit into the time.
    failed_keys = {o.key for _, o in runs if o.failed}
    return {
        "correct": not changed and not any(o.wrong for _, o in runs),
        "attempted": len(jobs),
        "failed": len(failed_keys),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "environment": details["environment"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "refinable" / "__init__.py").is_file() or not REFERENCE.is_file():
        print(f"error: needs the package sources in {SRC} and {REFERENCE}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    env = result.pop("environment")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"jobs: {result['attempted']} attempted, {result['failed']} failed, correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
