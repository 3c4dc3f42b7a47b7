"""Byte comparison of the command line's output between two source trees.

Usage::

    python3 tools/compare_outputs.py hash --src SRC --out HASHES.json \\
        [--workload spectrum spectrum-exact spectrum-float verify verify-exact basis]
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
meet repeated eigenvalues and Jordan blocks.  For every job it records
the SHA-256 of standard output, of standard error and of every file
written, plus the exit code.  A key that the pool repeats is recorded once
per run, the later runs as ``KEY#2``, ``KEY#3`` and so on.
``diff`` prints each job whose record differs between two hash files and
exits 1 if there is one, 0 otherwise.

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
import warnings  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_WORKLOADS = ("spectrum", "spectrum-exact", "spectrum-float", "verify", "verify-exact", "basis")
# workloads derived from the rational masks of the spectrum pool: argv, and
# whether the "p/q" coefficients are written as floats
DERIVED = {
    "spectrum-exact": (("spectrum", "{mask}", "--out", "{out}", "--exact"), False),
    "spectrum-float": (("spectrum", "{mask}", "--out", "{out}"), True),
    "verify-exact": (("verify", "{mask}", "--exact", "--level", "8"), False),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_job(cli, job, out: Path, src: Path) -> dict:
    """One in-process CLI call reduced to hashes of everything it produced."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        # every warning is shown, whatever ran before this job
        warnings.simplefilter("always")
        try:
            rc = cli.main(job.cli_args(str(out)))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    files = {}
    if out.is_dir():
        files = {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())}

    # Paths of the two trees differ, e.g. in the location of a warning.
    def text(s: str) -> bytes:
        return s.replace(str(src), "<src>").replace(str(out), "<out>").encode()

    return {"rc": rc, "stdout": _sha(text(stdout.getvalue())), "stderr": _sha(text(stderr.getvalue())), "files": files}


def pool(corpus, workload: str):
    """The jobs of one workload; the ``DERIVED`` ones derive from ``spectrum``."""
    if workload not in DERIVED:
        return corpus.pool(workload)
    argv, as_float = DERIVED[workload]
    jobs = []
    for job in corpus.pool("spectrum"):
        coeffs = job.mask["coefficients"]
        # rational masks are written as "p/q" strings
        if not all(isinstance(c, str) for c in coeffs):
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


def diff(a: dict, b: dict) -> list[str]:
    """One line per job whose record differs, naming what differs."""
    lines = []
    for key in sorted(set(a["jobs"]) | set(b["jobs"])):
        x, y = a["jobs"].get(key), b["jobs"].get(key)
        if x is None or y is None:
            lines.append(f"{key}: only in {'second' if x is None else 'first'}")
        elif x != y:
            parts = [f for f in ("rc", "stdout", "stderr") if x[f] != y[f]]
            names = sorted(set(x["files"]) | set(y["files"]))
            parts += [n for n in names if x["files"].get(n) != y["files"].get(n)]
            lines.append(f"{key}: {', '.join(parts)}")
    return lines


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
    lines = diff(a, b)
    for line in lines:
        print(line)
    print(f"{len(set(a['jobs']) | set(b['jobs']))} jobs compared, {len(lines)} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
