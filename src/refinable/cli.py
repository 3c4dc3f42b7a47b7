"""Command line interface.

Subcommands
-----------
spectrum  Jordan data, accuracy, and independence report for a mask (JSON).
basis     Sample phi and the homogeneous basis rows to CSV files plus a
          JSON summary.
verify    Run the verification battery and report pass/fail per check.

Exit codes: 0 success, 1 computational or verification failure, 2 bad
usage or unreadable input.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from pathlib import Path

from . import __version__
from .errors import MaskError, RefinableError
from .evaluate import (
    DEFAULT_LEVEL,
    MAX_LEVEL,
    build_homogeneous_basis,
    homogeneity_residual,
    reconstruct_phi,
)
from .mask import Mask, MaskSumWarning, build_scale_matrices, parse_mask
from .report import dump_csv, dump_csv_rows, dump_json
from .spectral import accuracy, eigen_structure, independence_test
from .verify import run_battery


class UsageError(Exception):
    """Input problems that are the caller's fault (exit code 2)."""


def _load_mask(spec: str) -> Mask:
    """Read a mask from a JSON file, inline JSON, or '-' for stdin."""
    if spec == "-":
        text = sys.stdin.read()
        source = "<stdin>"
    elif spec.lstrip().startswith(("[", "{")):
        text = spec
        source = "<inline>"
    else:
        path = Path(spec)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read mask file {spec}: {exc}") from exc
        source = str(path)
    try:
        return parse_mask(text)
    except MaskError as exc:
        raise UsageError(f"{source}: {exc}") from exc


def _out_dir(out: str | None) -> Path | None:
    """The ``--out`` directory, created with its parents; None for stdout."""
    if out is None:
        return None
    directory = Path(out)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from exc
    return directory


def _write(text: str, directory: Path | None, filename: str) -> None:
    if directory is None:
        sys.stdout.write(text)
        return
    path = directory / filename
    try:
        # UTF-8 with LF endings whatever the locale; text that came in
        # through argv or stdin under a locale that is not UTF-8 holds the
        # bytes it could not decode as surrogates, which go out as those bytes
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _mask_doc(mask: Mask) -> dict:
    return {
        "name": mask.name,
        "coefficients": mask.coefficients,
        "exact_coefficients": mask.exact,
        "degree": mask.n,
        "sum": complex(mask.coefficients.sum()),
    }


def _spectrum_doc(mask: Mask, *, exact: bool | None) -> dict:
    scale = build_scale_matrices(mask)
    spectral = eigen_structure(scale, exact=exact)
    acc = accuracy(scale, exact=spectral.is_exact)
    indep = independence_test(scale)
    return {
        "mask": _mask_doc(mask),
        "exact_mode": spectral.is_exact,
        "jordan_canonical": spectral.jordan_canonical,
        "residual": spectral.residual,
        "convention_first": spectral.convention_first,
        "convention_last": spectral.convention_last,
        "groups": [
            {
                "eigenvalue": g.eigenvalue,
                "exact_eigenvalue": g.exact_eigenvalue,
                "algebraic": g.algebraic,
                "geometric": g.geometric,
                "chain_lengths": list(g.chain_lengths),
                "spread": g.spread,
            }
            for g in spectral.groups
        ],
        "rows": [
            {
                "index": r.index,
                "eigenvalue": r.eigenvalue,
                "kind": r.kind,
                "chain": r.chain,
                "position": r.position,
                "prev_row": r.prev_row,
                "vector": spectral.basis[r.index],
            }
            for r in spectral.rows
        ],
        "jordan": spectral.jordan,
        "accuracy": {
            "order": acc.order,
            "polynomials": acc.coefficients,
            "exact_polynomials": acc.exact_coefficients,
        },
        "independence": {
            "verdict": indep.verdict,
            "gcd_degree": indep.gcd_degree,
            "kernel_dimension": indep.kernel_dimension,
            "core_invertible": indep.core_invertible,
            "consistent": indep.consistent,
            "diagnostic": indep.diagnostic,
        },
    }


def cmd_spectrum(args: argparse.Namespace) -> int:
    mask = _load_mask(args.mask)
    doc = _spectrum_doc(mask, exact=True if args.exact else None)
    _write(dump_json(doc), _out_dir(args.out), "spectrum.json")
    return 0


def cmd_basis(args: argparse.Namespace) -> int:
    mask = _load_mask(args.mask)
    if args.out is None:
        raise UsageError("basis writes several files; --out DIRECTORY is required")
    lo, hi = args.interval
    if not all(math.isfinite(v) and v == int(v) for v in (lo, hi)):
        raise UsageError("--interval endpoints must be integers")
    if not lo <= 0 < hi:
        # reconstruct_phi reads the basis on [0, 1]
        raise UsageError("--interval must satisfy A <= 0 < B")
    _check_level_arg(args.level)
    spectral = eigen_structure(build_scale_matrices(mask), exact=True if args.exact else None)
    basis = build_homogeneous_basis(spectral, level=args.level, interval=(int(lo), int(hi)))
    rec = reconstruct_phi(basis)
    width = max(2, len(str(spectral.n)))
    out = _out_dir(args.out)
    _write(dump_csv(basis.phi.grid, basis.phi.values), out, "phi.csv")
    texts = dump_csv_rows(basis.grid, basis.samples, [info.conjugate_of for info in spectral.rows])
    rows = []
    for f, text in zip(basis.functions, texts):
        filename = f"h_{f.row:0{width}d}.csv"
        _write(text, out, filename)
        rows.append(
            {
                "row": f.row,
                "file": filename,
                "eigenvalue": f.eigenvalue,
                "order": f.order,
                "homogeneity_residual": homogeneity_residual(f),
            }
        )
    summary = {
        "mask": _mask_doc(mask),
        "level": basis.level,
        "interval": list(basis.interval),
        "rows": rows,
        "reconstruction": {
            "residual": rec.residual,
            "condition": rec.condition,
        },
    }
    _write(dump_json(summary), out, "basis.json")
    return 0


def _check_level_arg(level: int) -> None:
    if not 0 <= level <= MAX_LEVEL:
        raise UsageError(f"--level must be between 0 and {MAX_LEVEL}, got {level}")


def cmd_verify(args: argparse.Namespace) -> int:
    mask = _load_mask(args.mask)
    _check_level_arg(args.level)
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise UsageError(f"--tolerance must be finite and > 0, got {args.tolerance}")
    battery = run_battery(
        mask,
        level=args.level,
        tolerance=args.tolerance,
        exact=True if args.exact else None,
    )
    doc = {
        "mask": _mask_doc(mask),
        "level": battery.level,
        "tolerance": battery.tolerance,
        "passed": battery.passed,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "residual": c.residual,
                "tolerance": c.tolerance,
                "detail": c.detail,
            }
            for c in battery.checks
        ],
    }
    _write(dump_json(doc), _out_dir(args.out), "verify.json")
    return 0 if battery.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refinable",
        description="Spectral analysis and local bases for refinable functions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "mask",
            help="mask as a JSON file path, inline JSON, or '-' for stdin",
        )
        p.add_argument("--out", help="write reports into this directory instead of stdout")
        p.add_argument(
            "--exact",
            action="store_true",
            help="force exact rational arithmetic (fails if the spectrum is irrational)",
        )

    p_spec = sub.add_parser("spectrum", help="Jordan, accuracy, and independence report")
    add_common(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_basis = sub.add_parser("basis", help="sample phi and the homogeneous basis rows")
    add_common(p_basis)
    p_basis.add_argument(
        "--level", type=int, default=DEFAULT_LEVEL, help="dyadic resolution (default 12)"
    )
    p_basis.add_argument(
        "--interval",
        nargs=2,
        type=float,
        default=(-1.0, 1.0),
        metavar=("A", "B"),
        help="integer sampling interval for the basis rows (default -1 1)",
    )
    p_basis.set_defaults(func=cmd_basis)

    p_verify = sub.add_parser("verify", help="run the verification battery")
    add_common(p_verify)
    p_verify.add_argument(
        "--level", type=int, default=DEFAULT_LEVEL, help="dyadic resolution (default 12)"
    )
    p_verify.add_argument(
        "--tolerance", type=float, default=1e-8, help="residual tolerance (default 1e-8)"
    )
    p_verify.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call and kept for the process.

    Parsing leaves a parser as it was, so one serves every call; a parser is
    a reference cycle, and a new one per call waits for the cycle collector.
    """
    return build_parser()


def _show_warning(show, message, category, filename, lineno, file=None, line=None):
    """Print a package warning as one ``warning: <message>`` line on stderr,
    with no source location; hand any other warning to ``show``."""
    if issubclass(category, MaskSumWarning):
        print(f"warning: {message}", file=sys.stderr)
    else:
        show(message, category, filename, lineno, file, line)


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help, the version or its refusal (code 2)
        return exc.code
    with warnings.catch_warnings():
        warnings.showwarning = functools.partial(_show_warning, warnings.showwarning)
        try:
            return args.func(args)
        except (UsageError, MaskError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (RefinableError, MemoryError) as exc:
            # numpy refuses an oversized grid allocation at once with a MemoryError
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
