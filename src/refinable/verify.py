"""End-to-end verification battery for one mask.

Each check is an independently computable identity of the refinable
function and its spectral data; the battery reports one residual and
pass/fail per check. It is intentionally redundant with the theory — the
checks recompute everything from sampled values rather than trusting the
constructions that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact as xq
from . import kernels
from .evaluate import (
    DEFAULT_LEVEL,
    HomogeneousBasis,
    build_homogeneous_basis,
    extend_vector,
    homogeneity_residual,
    reconstruct_phi,
    translate_sum,
    verify_dependency,
)
from .extension import kernel_of_L
from .mask import Mask, build_scale_matrices
from .spectral import (
    SpectralData,
    accuracy,
    eigen_structure,
    independence_test,
    spectrum_of,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float | None = None
    tolerance: float | None = None
    detail: str | None = None


@dataclass(frozen=True)
class BatteryResult:
    mask: Mask
    level: int
    tolerance: float
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _worst(residuals) -> float:
    """The largest of the residuals, 0 for none, and NaN when any is NaN,
    so that a NaN residual fails its ``<= tolerance`` test (Python's
    ``max`` keeps a number that comes before a NaN)."""
    return float(np.max(residuals, initial=0.0))


def _residual_check(name: str, residuals, tolerance: float, detail: str) -> CheckResult:
    """The check that passes when the worst of the residuals is at most the
    tolerance; a NaN residual fails it."""
    worst = _worst(residuals)
    return CheckResult(
        name=name, passed=worst <= tolerance, residual=worst, tolerance=tolerance, detail=detail
    )


def _expand(spectrum):
    out = []
    for value, mult, _ in spectrum:
        out.extend([complex(value)] * int(mult))
    return out


def _multiset_distance(a, b) -> float:
    """Greedy nearest-match distance between two eigenvalue multisets."""
    if len(a) != len(b):
        return float("inf")
    b = list(b)
    distances = []
    for va in a:
        best_i = min(range(len(b)), key=lambda i: abs(va - b[i]))
        distances.append(abs(va - b.pop(best_i)))
    return _worst(distances)


def _check_spectrum(scale, tol) -> CheckResult:
    full, core = scale.full, scale.core
    if scale.integer_rows is not None:
        # Fraction entries take the exact branch of spectrum_of
        rows, d = scale.integer_rows
        full = [[Fraction(x, d) for x in row] for row in rows]
        core = [row[1:-1] for row in full[1:-1]]
    full, core = _expand(spectrum_of(full)), _expand(spectrum_of(core))
    head = _expand(spectrum_of(scale.head))
    tail = _expand(spectrum_of(scale.tail))
    c0 = complex(scale.full[0, 0])
    cn = complex(scale.full[scale.n, scale.n])
    d_full = _multiset_distance(full, core + [c0, cn])
    d_head = _multiset_distance(head, core + [c0])
    d_tail = _multiset_distance(tail, core + [cn])
    scale_ref = max(1.0, float(np.abs(scale.full).max()))
    return _residual_check(
        "spectrum-decomposition",
        [d_full, d_head, d_tail],
        tol * scale_ref * 10,
        "eig(T) = {c0, cN} + eig(M); eig(T0) = {c0} + eig(M); eig(T1) = {cN} + eig(M)",
    )


def _jordan_residual(spectral: SpectralData) -> float:
    """max |B T - J B|, recomputed from the basis: exactly, on the integer
    rows of the exact data over their common denominators, else in the
    float arithmetic of ``eigen_structure``."""
    if spectral.exact_basis is not None:
        b, db = xq.integer_rows(spectral.exact_basis)
        j, dj = xq.integer_rows(spectral.exact_jordan)
        t, dt = spectral.scale.integer_rows
        # B T - J B == (b t dj - j b dt) / (db dt dj)
        lhs, rhs = xq.mat_mul(b, t), xq.mat_mul(j, b)
        top = max(abs(x * dj - y * dt) for row, other in zip(lhs, rhs) for x, y in zip(row, other))
        return top / (db * dt * dj)
    b = spectral.basis
    return float(np.abs(b @ spectral.scale.full - spectral.jordan @ b).max())


def _check_jordan(spectral: SpectralData, tol) -> CheckResult:
    scale_ref = max(1.0, float(np.abs(spectral.scale.full).max()))
    return _residual_check(
        "jordan-identity",
        [_jordan_residual(spectral)],
        tol * scale_ref,
        "max |basis T - jordan basis|"
        + ("" if spectral.jordan_canonical else " (insertion mode, similarity jordan)"),
    )


def _check_conventions(spectral: SpectralData) -> CheckResult:
    size = spectral.n + 1
    last = spectral.basis[size - 1]
    e_n = np.zeros(size, dtype=complex)
    e_n[size - 1] = 1.0
    last_ok = float(np.abs(last - e_n).max()) <= 1e-9
    ok = spectral.convention_first and spectral.convention_last and last_ok
    return CheckResult(
        name="conventions",
        passed=ok,
        detail=(
            f"e0 leads its group: {spectral.convention_first}; "
            f"eN is the global last row: {spectral.convention_last and last_ok}"
        ),
    )


def _check_extension(basis: HomogeneousBasis, tol) -> CheckResult:
    """Recompute Y L on a window and compare with lam Y + Y_prev."""
    scale = basis.spectral.scale
    mask = scale.mask
    n = mask.n
    w_lo, w_hi = -6, n + 7
    n_lo, n_hi = 2 * w_lo, 2 * (w_hi - 1) - n  # indices fully determined by the window
    residuals = []
    for f in basis.functions:
        y_vals = f.window.values(w_lo, w_hi)
        lhs = kernels.subdivision_window(
            y_vals, w_lo, mask.coefficients, n_lo, n_hi - n_lo + 1
        )
        lam = complex(f.eigenvalue)
        if f.order > 1:
            prev_vec = f.vector @ scale.shifted(lam)
            prev = extend_vector(prev_vec, scale, lam).values(n_lo, n_hi + 1)
        else:
            prev = np.zeros(n_hi - n_lo + 1, dtype=complex)
        rhs = lam * f.window.values(n_lo, n_hi + 1) + prev
        scale_ref = max(1.0, float(np.abs(y_vals).max(initial=0.0)))
        residuals.append(float(np.abs(lhs - rhs).max(initial=0.0)) / scale_ref)
    return _residual_check(
        "extension-recurrence",
        residuals,
        tol,
        "Y L = lam Y + Y_prev rechecked through the subdivision operator",
    )


def _check_homogeneity(basis: HomogeneousBasis, scales, tol) -> CheckResult:
    return _residual_check(
        "homogeneity",
        [homogeneity_residual(f) / s for f, s in zip(basis.functions, scales)],
        tol,
        "sum_k C(r,k)(-lam)^(r-k) h(x/2^k) = 0 on the dyadic grid",
    )


def _check_origin(basis: HomogeneousBasis, scales, tol) -> CheckResult:
    residuals = [
        abs(complex(f.at_index(np.array([0]))[0])) / scale_ref
        for f, scale_ref in zip(basis.functions, scales)
        if not abs(f.eigenvalue - 1.0) <= 1e-6
    ]
    return _residual_check(
        "zero-at-origin",
        residuals,
        tol,
        f"h(0) = 0 for the {len(residuals)} rows with eigenvalue != 1",
    )


def _check_reconstruction(basis: HomogeneousBasis, tol) -> CheckResult:
    rec = reconstruct_phi(basis)
    scale_ref = max(1.0, float(np.abs(rec.reference).max(initial=0.0)))
    return _residual_check(
        "reconstruction",
        [rec.residual],
        tol * max(1.0, rec.condition) * scale_ref,
        f"phi on [0,1] from the h rows; basis block condition {rec.condition:.6g}",
    )


def _check_accuracy(spectral: SpectralData, phi, tol) -> CheckResult:
    acc = accuracy(spectral.scale)
    step = 2**phi.level
    residuals = []
    xs = np.arange(step + 1) / step
    for s in range(acc.order):
        coeffs = acc.coefficients[s]
        # p_s(k) for the translates k = -1..N that meet [0, 1]
        pk = np.array([np.polynomial.polynomial.polyval(k, coeffs) for k in range(-1, spectral.n + 1)])
        g = translate_sum(phi, pk, 0, 1)
        target = xs.astype(complex) ** s
        scale_ref = max(1.0, float(np.abs(coeffs).max()))
        residuals.append(float(np.abs(g - target).max()) / scale_ref)
    return _residual_check(
        "accuracy-reproduction",
        residuals,
        tol,
        f"sum_k p_s(k) phi(x+k) = x^s on [0,1] for s < {acc.order}",
    )


def _check_independence(spectral: SpectralData, phi, tol):
    result = independence_test(spectral.scale)
    checks = [
        CheckResult(
            name="independence-consistency",
            passed=result.consistent,
            detail=f"verdict: {result.verdict}; gcd degree {result.gcd_degree}; "
            f"core invertible {result.core_invertible}"
            + (f"; {result.diagnostic}" if result.diagnostic else ""),
        )
    ]
    if result.gcd_degree > 0:
        kernel = kernel_of_L(spectral.scale.mask)
        reports = [verify_dependency(phi, w) for w in kernel.windows]
        checks.append(
            _residual_check(
                "dependency-witness",
                [r.max_residual / r.scale for r in reports],
                tol,
                f"{kernel.dimension} kernel sequences annihilate the translates",
            )
        )
    return checks


def run_battery(
    mask: Mask,
    level: int = DEFAULT_LEVEL,
    tolerance: float = 1e-8,
    *,
    exact: bool | None = None,
) -> BatteryResult:
    """Run every verification check on one mask at the given resolution,
    with the basis rows sampled on [-1, 1]."""
    scale = build_scale_matrices(mask)
    spectral = eigen_structure(scale, exact=exact)
    basis = build_homogeneous_basis(spectral, level=level, interval=(-1, 1))
    # max(1, max |h|) of each row, the scale of its homogeneity and origin residuals
    scales = [max(1.0, float(m)) for m in np.abs(basis.samples).max(axis=1, initial=0.0)]
    checks = [
        _check_spectrum(scale, tolerance),
        _check_jordan(spectral, tolerance),
        _check_conventions(spectral),
        _check_extension(basis, tolerance),
        _check_homogeneity(basis, scales, tolerance),
        _check_origin(basis, scales, tolerance),
        _check_reconstruction(basis, tolerance),
        _check_accuracy(spectral, basis.phi, tolerance),
    ]
    checks.extend(_check_independence(spectral, basis.phi, tolerance))
    return BatteryResult(mask=mask, level=level, tolerance=tolerance, checks=tuple(checks))
