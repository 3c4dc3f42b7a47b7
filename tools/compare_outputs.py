"""Byte comparison of the command line's output between two source trees.

Usage::

    python3 tools/compare_outputs.py hash --src SRC --out HASHES.json \\
        [--workload spectrum spectrum-exact spectrum-float spectrum-bspline verify verify-exact basis basis-deep basis-exact kernel errors]
    python3 tools/compare_outputs.py diff A.json B.json

``hash`` imports ``refinable`` from ``SRC`` (default: this repository's
``src``) and runs ``refinable.cli.main`` in process on every mask of the
benchmark pools (``perfbench.corpus.pool``, imported read-only), with each
job's own arguments.  The ``spectrum-exact`` workload runs ``spectrum MASK
--exact`` on every rational mask of the ``spectrum`` pool, so that the
forced exact path and its failures are compared too; ``verify-exact``
runs ``verify MASK --exact --level 8`` on the same masks, which brings the
exact staircase, integer samples and battery under the check.
``spectrum-float`` runs ``spectrum MASK --out OUT`` on the same masks with
each ``"p/q"`` written as a float (exact, but for the thirds of
``jordan13``), so that the float clustering, staircase and corner regauge
meet repeated eigenvalues and Jordan blocks.  ``spectrum-bspline`` runs
``spectrum MASK --exact --out OUT`` on the B-splines of orders 12 to 24,
past the pool's last order 11, whose characteristic polynomials repeat
roots and, cleared to integers, have the largest coefficients that the
exact root split meets.  ``basis-deep`` runs ``basis
MASK --level 12 --interval -2 2 --out OUT`` on every mask of the ``verify``
pool, so that every ``phi`` and ``h`` sample the grid layer computes at
full resolution reaches the CSV files in ``%.17g``.  ``basis-exact`` runs
``basis MASK --exact --level 10 --interval -2 2 --out OUT`` on the
rational masks of the ``spectrum`` pool, so that the short dyadic values,
integer samples and exact zeros of exact-mode rows reach the CSV writer.
``kernel`` runs
``spectrum``, ``verify --level 8`` and ``basis --level 8`` on four masks
whose even and odd polynomials share a factor of degree 2: a double
rational root, the same mask in floats, a complex pair and an irrational
pair, which the pools' masks (gcd degree at most 1, rational root) never
reach in ``kernel_of_L``.  It runs them too on a float mask whose
polynomials share ``1 + z`` without being proportional, which takes the
cofactor solve of ``numeric.float_poly_gcd``, and on ``masks/half.json``
read from its file.  ``errors`` runs fixed argv that fail or warn: bad
JSON inline and on standard input (which is empty for every job), an
invalid mask, an unreadable mask path, refused ``--out``, ``--interval``,
``--level`` and ``--tolerance`` values, a flag that the subcommand does
not take, ``--exact`` on a float mask, an interval too wide to sample,
the float B-spline of order 18, whose clustering fails, a mask whose
scale matrix has no eigenvalue 1, and a mask that does not sum to 2, so
that the usage, error and warning branches of the command line are
compared too.  A job that ends in an uncaught exception is recorded as
the process would end: exit code 1, the exception's last line on
standard error.  For every job it records
the SHA-256 of standard output, of standard error and of every file
written, plus the exit code, and for a ``verify`` job the verdict of each
check, as ``[name, passed]`` pairs read from its report.  A key that the
pool repeats is recorded once per run, the later runs as ``KEY#2``,
``KEY#3`` and so on.  ``diff`` prints each job whose bytes differ between
two hash files, then each change of an exit code or a check verdict on a
line of its own, and exits 1 if any job differs, 0 otherwise.  Its summary
counts both: "N differ, M in verdicts".  A documented byte change thus
shows that it kept every verdict.

To check that a change keeps every report byte-identical, export the parent
commit into a second directory (``git archive``), hash both trees and diff
the two files.
"""

from __future__ import annotations

import os

# One BLAS thread, as in the benchmark; set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from fractions import Fraction  # noqa: E402
from math import comb  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest import mock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_WORKLOADS = (
    "spectrum",
    "spectrum-exact",
    "spectrum-float",
    "spectrum-bspline",
    "verify",
    "verify-exact",
    "basis",
    "basis-deep",
    "basis-exact",
    "kernel",
    "errors",
)
# workloads derived from the masks of a benchmark pool: the pool, argv, and
# for the rational masks alone whether "p/q" is written as a float, or None
# to take every mask of the pool as it is
DERIVED = {
    "spectrum-exact": ("spectrum", ("spectrum", "{mask}", "--out", "{out}", "--exact"), False),
    "spectrum-float": ("spectrum", ("spectrum", "{mask}", "--out", "{out}"), True),
    "verify-exact": ("spectrum", ("verify", "{mask}", "--exact", "--level", "8"), False),
    "basis-deep": ("verify", ("basis", "{mask}", "--level", "12", "--interval", "-2", "2", "--out", "{out}"), None),
    "basis-exact": (
        "spectrum",
        ("basis", "{mask}", "--exact", "--level", "10", "--interval", "-2", "2", "--out", "{out}"),
        False,
    ),
}
BSPLINE_ORDERS = range(12, 25)
# masks whose even and odd polynomials share a factor, by gcd roots
KERNEL_MASKS = {
    "double": ["1/4", "1/4", "1/2", "1/2", "1/4", "1/4"],
    "double-float": [0.25, 0.25, 0.5, 0.5, 0.25, 0.25],
    "complex": ["1/3"] * 6,
    "irrational": [1, 1, 1, 1, -1, -1],
    # gcd 1 + z of 2/7 (1 + z)(1 + 2z) and 1/7 (1 + z)
    "cofactor-float": [2 / 7, 1 / 7, 6 / 7, 1 / 7, 4 / 7],
}
# the mask that the kernel argv also read from a file
MASK_FILE = ROOT / "masks" / "half.json"
KERNEL_ARGV = (
    ("spectrum", "{mask}", "--out", "{out}"),
    ("verify", "{mask}", "--level", "8"),
    ("basis", "{mask}", "--level", "8", "--out", "{out}"),
)
# argv that fail, by job name; "{out}" names a directory that does not exist
BSPLINE3 = '["1/4", "3/4", "3/4", "1/4"]'
ERRORS = {
    "invalid-json": ("spectrum", "[1, 1"),
    "empty-stdin": ("spectrum", "-"),
    "zero-c0": ("spectrum", "[0, 1, 1]"),
    "unreadable-path": ("spectrum", "{out}"),
    "unwritable-out": ("spectrum", BSPLINE3, "--out", "/dev/null/out"),
    "spectrum-interval": ("spectrum", BSPLINE3, "--interval", "-1", "1"),
    "exact-float-mask": ("spectrum", "[0.25, 0.75, 0.75, 0.25]", "--exact"),
    "verify-level-25": ("verify", BSPLINE3, "--level", "25"),
    "verify-tolerance-0": ("verify", BSPLINE3, "--tolerance", "0"),
    "basis-no-out": ("basis", BSPLINE3),
    "basis-level-25": ("basis", BSPLINE3, "--level", "25", "--out", "{out}"),
    "basis-interval-half": ("basis", BSPLINE3, "--interval", "0.5", "1", "--out", "{out}"),
    "basis-interval-positive": ("basis", BSPLINE3, "--interval", "1", "2", "--out", "{out}"),
    "basis-interval-wide": ("basis", "[1, 1]", "--level", "2", "--interval", "-1", "1e30", "--out", "{out}"),
    "clustering-bspline18": ("spectrum", json.dumps([comb(18, k) / 2**17 for k in range(19)])),
    "no-eigenvalue-1": ("verify", "[10, -18, 10]", "--level", "8"),
    "sum-warning": ("spectrum", "[1, 1, 1]"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_job(cli, job, out: Path, src: Path) -> dict:
    """One in-process CLI call reduced to hashes of everything it produced."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with (
        contextlib.redirect_stdout(stdout),
        contextlib.redirect_stderr(stderr),
        mock.patch.object(sys, "stdin", io.StringIO()),
        warnings.catch_warnings(),
    ):
        # every warning is shown, whatever ran before this job
        warnings.simplefilter("always")
        try:
            rc = cli.main(job.cli_args(str(out)))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the interpreter would print it and exit 1
            rc = 1
            stderr.write("".join(traceback.format_exception_only(exc)))
    files = {}
    if out.is_dir():
        files = {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())}
    record = {"rc": rc, "files": files}
    if job.argv[0] == "verify":
        record["checks"] = _checks(stdout.getvalue())

    # Paths of the two runs differ, e.g. in an error that names the output directory.
    def text(s: str) -> bytes:
        return s.replace(str(src), "<src>").replace(str(out), "<out>").encode()

    return {**record, "stdout": _sha(text(stdout.getvalue())), "stderr": _sha(text(stderr.getvalue()))}


def _checks(report: str) -> list | None:
    """[name, passed] of each check of a ``verify`` report, or None when the
    job wrote no report."""
    try:
        return [[c["name"], c["passed"]] for c in json.loads(report)["checks"]]
    except (ValueError, KeyError):
        return None


def pool(corpus, workload: str):
    """The jobs of one workload; the ``DERIVED`` ones run another pool's
    masks with their own argv."""
    if workload == "spectrum-bspline":
        argv = ("spectrum", "{mask}", "--exact", "--out", "{out}")
        return [
            corpus.Job(f"{workload}/bspline{m}", {"name": f"bspline{m}", "coefficients": corpus.bspline(m)}, argv)
            for m in BSPLINE_ORDERS
        ]
    if workload == "errors":
        return [corpus.Job(f"{workload}/{name}", {}, argv) for name, argv in ERRORS.items()]
    if workload == "kernel":
        return [
            corpus.Job(f"{workload}/{argv[0]}/{name}", {"name": name, "coefficients": c}, argv)
            for argv in KERNEL_ARGV
            for name, c in KERNEL_MASKS.items()
        ] + [
            corpus.Job(
                f"{workload}/{argv[0]}/{MASK_FILE.stem}-file",
                {},
                tuple(str(MASK_FILE) if a == "{mask}" else a for a in argv),
            )
            for argv in KERNEL_ARGV
        ]
    if workload not in DERIVED:
        return corpus.pool(workload)
    source, argv, as_float = DERIVED[workload]
    jobs = []
    for job in corpus.pool(source):
        coeffs = job.mask["coefficients"]
        # rational masks are written as "p/q" strings
        if as_float is not None and not all(isinstance(c, str) for c in coeffs):
            continue
        mask = {**job.mask, "coefficients": [float(Fraction(c)) for c in coeffs]} if as_float else job.mask
        jobs.append(dataclasses.replace(job, key=f"{workload}/{job.key.split('/', 1)[1]}", mask=mask, argv=argv))
    return jobs


def hash_tree(src: Path, workloads) -> dict:
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    cli = importlib.import_module("refinable.cli")
    corpus = importlib.import_module("corpus")
    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"refinable was imported from {cli.__file__}, not from {src}")
    jobs = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for workload in workloads:
            for job in pool(corpus, workload):
                shutil.rmtree(out, ignore_errors=True)
                key, copy = job.key, 1
                while key in jobs:  # a key the pool repeats: keep every run
                    copy += 1
                    key = f"{job.key}#{copy}"
                jobs[key] = run_job(cli, job, out, src)
    return {"src": str(src), "workloads": list(workloads), "jobs": jobs}


def diff(a: dict, b: dict) -> tuple[list[str], dict[str, list[str]]]:
    """(one line per job whose bytes differ, naming what differs; the
    changed exit code and check verdicts of each job where any moved)."""
    lines, verdicts = [], {}
    for key in sorted(set(a["jobs"]) | set(b["jobs"])):
        x, y = a["jobs"].get(key), b["jobs"].get(key)
        if x is None or y is None:
            lines.append(f"{key}: only in {'second' if x is None else 'first'}")
            continue
        parts = [f for f in ("rc", "stdout", "stderr") if x[f] != y[f]]
        names = sorted(set(x["files"]) | set(y["files"]))
        parts += [n for n in names if x["files"].get(n) != y["files"].get(n)]
        if parts:
            lines.append(f"{key}: {', '.join(parts)}")
        changes = _verdict_changes(x, y)
        if changes:
            verdicts[key] = changes
    return lines, verdicts


def _verdict_changes(x: dict, y: dict) -> list[str]:
    """The exit code and each check verdict that moved between two records
    of one job."""
    changes = []
    if x["rc"] != y["rc"]:
        changes.append(f"exit code {x['rc']} -> {y['rc']}")
    cx, cy = x.get("checks"), y.get("checks")
    if cx == cy:
        return changes
    if cx is None or cy is None or [n for n, _ in cx] != [n for n, _ in cy]:
        names = [None if c is None else [n for n, _ in c] for c in (cx, cy)]
        return changes + [f"checks {names[0]} -> {names[1]}"]
    word = {True: "passed", False: "failed"}
    return changes + [
        f"{name} {word[p]} -> {word[q]}" for (name, p), (_, q) in zip(cx, cy) if p != q
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_hash = sub.add_parser("hash", help="hash the outputs of every pool mask for one source tree")
    p_hash.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the refinable package")
    p_hash.add_argument("--out", type=Path, required=True, help="hash file to write (JSON)")
    p_hash.add_argument("--workload", nargs="+", default=DEFAULT_WORKLOADS, choices=DEFAULT_WORKLOADS)
    p_diff = sub.add_parser("diff", help="list the jobs whose outputs differ between two hash files")
    p_diff.add_argument("first", type=Path)
    p_diff.add_argument("second", type=Path)
    args = parser.parse_args(argv)

    if args.command == "hash":
        doc = hash_tree(args.src.resolve(), args.workload)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"{len(doc['jobs'])} jobs hashed from {doc['src']}")
        return 0
    a, b = (json.loads(p.read_text()) for p in (args.first, args.second))
    lines, verdicts = diff(a, b)
    for line in lines:
        print(line)
    for key, changes in verdicts.items():
        for change in changes:
            print(f"{key}: {change}")
    print(f"{len(set(a['jobs']) | set(b['jobs']))} jobs compared, {len(lines)} differ, {len(verdicts)} in verdicts")
    return 1 if lines or verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
