"""Acceptance gate: the six top-level criteria for the package.

Each criterion is one test that prints a single [PASS]/[FAIL] line with
capture suspended (so the verdicts are visible in a normal pytest run) and
then asserts. Tolerances follow the module contracts: residuals scale with
the magnitude of the sampled data.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import refinable as rf
from refinable import kernels

from conftest import SEED, SQRT3, dense_subdivision, make_mask, random_masks


@pytest.fixture
def conclude(capfd):
    def _conclude(num: int, description: str, failures: list[str]) -> None:
        verdict = "PASS" if not failures else "FAIL"
        with capfd.disabled():
            print(f"[{verdict}] criterion {num}: {description}", flush=True)
        assert not failures, f"criterion {num}: " + "; ".join(failures[:8])

    return _conclude


def unit_interval_samples(basis, f) -> np.ndarray:
    """Values of one basis function on the closed [0, 1] grid."""
    step = 2**basis.level
    offset = -basis.interval[0] * step
    return f.values[offset : offset + step + 1]


def scale_fit_deviation(h: np.ndarray, target: np.ndarray) -> float:
    """Max deviation of the best single-scale fit alpha*h to the target."""
    denom = np.vdot(h, h)
    alpha = np.vdot(h, target) / denom if abs(denom) > 0 else 0.0
    return float(np.abs(alpha * h - target).max())


def cross_fit_residual(rows: np.ndarray, targets: np.ndarray) -> float:
    """Max residual of least-squares fits of each family by the other."""
    worst = 0.0
    for a, b in ((rows, targets), (targets, rows)):
        coeffs, *_ = np.linalg.lstsq(a.T, b.T, rcond=None)
        worst = max(worst, float(np.abs(a.T @ coeffs - b.T).max()))
    return worst


def test_criterion_1_quadratic_bspline(pipeline, conclude):
    failures: list[str] = []
    mask = make_mask("bspline3")
    scale, spectral, phi, basis = pipeline(mask, level=12)

    head = np.sort(np.linalg.eigvals(scale.head).real)
    want = np.array([0.25, 0.5, 1.0])
    if float(np.abs(head - want).max()) > 1e-10 or float(
        np.abs(np.linalg.eigvals(scale.head).imag).max()
    ) > 1e-10:
        failures.append(f"head spectrum {head} != {{1, 1/2, 1/4}}")

    exact = rf.eigen_structure(scale, exact=True)
    got = {g.exact_eigenvalue: g.algebraic for g in exact.groups}
    if got != {Fraction(1): 1, Fraction(1, 2): 1, Fraction(1, 4): 2}:
        failures.append(f"exact spectrum {got}")

    acc = rf.accuracy(scale)
    if acc.order != 3:
        failures.append(f"accuracy {acc.order} != 3")

    xs = np.arange(2**12 + 1) / 2**12
    for s in range(3):
        h = unit_interval_samples(basis, basis.functions[s])
        dev = scale_fit_deviation(h, xs**s)
        if dev > 1e-8:
            failures.append(f"h_{s} vs x^{s} deviation {dev:.2e}")

    conclude(
        1,
        "b-spline mask (1,3,3,1)/4: head spectrum {1, 1/2, 1/4}, "
        "accuracy 3, h_0..h_2 reproduce 1, x, x^2 on [0,1]",
        failures,
    )


def test_criterion_2_daubechies(pipeline, conclude):
    failures: list[str] = []
    mask = make_mask("d4")
    scale, spectral, phi, basis = pipeline(mask, level=12)

    acc = rf.accuracy(scale)
    if acc.order != 2:
        failures.append(f"accuracy {acc.order} != 2")

    target = (1 + SQRT3) / 4
    dist = float(np.abs(np.linalg.eigvals(scale.head) - target).min())
    if dist > 1e-10:
        failures.append(f"head spectrum misses (1+sqrt3)/4 by {dist:.2e}")

    xs = np.arange(2**12 + 1) / 2**12
    corner = next(
        f
        for f in basis.functions
        if np.allclose(f.vector, np.eye(mask.n + 1)[0], atol=1e-12)
    )
    rows = np.array(
        [unit_interval_samples(basis, basis.functions[i]) for i in range(3)]
    )
    targets = np.array(
        [np.ones_like(xs), xs, unit_interval_samples(basis, corner)],
        dtype=complex,
    )
    residual = cross_fit_residual(rows, targets)
    if residual > 1e-6:
        failures.append(f"span cross-fit residual {residual:.2e}")

    conclude(
        2,
        "D4 mask: accuracy 2, (1+sqrt3)/4 in the head spectrum, "
        "span{h_0,h_1,h_2} = span{1, x, h_c0} on [0,1]",
        failures,
    )


def test_criterion_3_jordan_chain_mask(pipeline, conclude):
    failures: list[str] = []
    mask = make_mask("jordan13")
    scale, spectral, phi, basis = pipeline(mask, level=12)

    acc = rf.accuracy(scale)
    if acc.order != 1:
        failures.append(f"accuracy {acc.order} != 1")

    groups = {complex(np.round(g.eigenvalue, 9)): g for g in spectral.groups}
    third = complex(np.round(1 / 3, 9))
    if set(groups) != {1 + 0j, third}:
        failures.append(f"spectrum {sorted(groups)} != {{1, 1/3}}")
    elif groups[1 + 0j].algebraic != 1 or groups[third].algebraic != 3:
        failures.append("multiplicities are not 1 and 3")
    elif 2 not in groups[third].chain_lengths:
        failures.append(f"no length-2 chain: {groups[third].chain_lengths}")

    seconds = [f for f in basis.functions if f.order == 2]
    if len(seconds) != 1:
        failures.append(f"{len(seconds)} second-order functions")
    else:
        f = seconds[0]
        ref = max(1.0, float(np.abs(f.values).max()))
        r2 = rf.homogeneity_residual(f)
        r1 = rf.homogeneity_residual(dataclasses.replace(f, order=1))
        if r2 > 1e-8 * ref:
            failures.append(f"order-2 homogeneity residual {r2:.2e}")
        if r1 <= 1e-3:
            failures.append(f"order-1 residual {r1:.2e} not > 1e-3")

    conclude(
        3,
        "mask (1,2,2,1)/3: accuracy 1, spectrum {1} + {1/3 x3} with a "
        "length-2 chain whose h is 2-homogeneous of order exactly 2",
        failures,
    )


def test_criterion_4_dependent_mask(conclude):
    failures: list[str] = []
    mask = make_mask("half")
    scale = rf.build_scale_matrices(mask)

    indep = rf.independence_test(scale)
    if not (indep.kernel_dimension == 1 == indep.gcd_degree):
        failures.append(
            f"dim ker(M) {indep.kernel_dimension}, gcd degree {indep.gcd_degree}"
        )
    if indep.verdict != "translates DEPENDENT":
        failures.append(f"verdict {indep.verdict!r}")

    kernel = rf.kernel_of_L(mask)
    if len(kernel.windows) != 1:
        failures.append(f"{len(kernel.windows)} kernel sequences")
    else:
        window = kernel.windows[0]
        vals = window.values(-8, 12)
        base = vals[8]
        signs = base * np.array([(-1.0) ** k for k in range(-8, 12)])
        if abs(base) < 1e-12 or float(np.abs(vals - signs).max()) > 1e-10:
            failures.append("kernel sequence is not alternating")
        phi = rf.evaluate_phi(mask, 12)
        report = rf.verify_dependency(phi, window)
        bound = 1e-8 * float(np.abs(phi.values).max())
        if report.max_residual > bound:
            failures.append(
                f"dependency residual {report.max_residual:.2e} > {bound:.2e}"
            )

    conclude(
        4,
        "mask (1,1,1,1)/2: dim ker(M) = deg gcd = 1, alternating kernel "
        "sequence annihilates the translates, verdict DEPENDENT",
        failures,
    )


def _suite_refinement(mask, phi, errors):
    step = 2**phi.level
    t = np.arange(len(phi.values))
    rhs = np.zeros(len(phi.values), dtype=complex)
    for k in range(mask.n + 1):
        rhs += mask.c(k) * phi.at_index(2 * t - k * step)
    bound = 1e-10 * float(np.abs(phi.values).max())
    residual = float(np.abs(phi.values - rhs).max())
    if residual > bound:
        errors.append(f"{mask.name}: refinement {residual:.2e}")


def _suite_vector_refinement(mask, scale, phi, errors):
    step = 2**phi.level
    # The identity holds on [-1/2, 1/2]; with the right-continuous grid
    # convention the endpoints only make sense when phi vanishes at the
    # support boundary (otherwise the jump value leaks across).
    closed = abs(phi.values[0]) < 1e-9 and abs(phi.values[-1]) < 1e-9
    edge = step // 2 if closed else step // 2 - 1
    t = np.arange(-edge, edge + 1)
    rows = mask.n + 1
    u = np.array([phi.at_index(t + j * step) for j in range(rows)])
    u2 = np.array([phi.at_index(2 * t + j * step) for j in range(rows)])
    residual = float(np.abs(u - scale.full @ u2).max())
    if residual > 1e-10 * max(1.0, float(np.abs(phi.values).max())):
        errors.append(f"{mask.name}: vector refinement {residual:.2e}")


def _suite_h_refinement(mask, spectral, basis, errors):
    step = 2**basis.level
    half = np.arange(-(step // 2), step // 2 + 1)  # x in [-1/2, 1/2]
    h_x = np.array([f.at_index(half) for f in basis.functions])
    h_2x = np.array([f.at_index(2 * half) for f in basis.functions])
    residual = float(np.abs(h_x - spectral.jordan @ h_2x).max())
    if residual > 1e-8 * max(1.0, float(np.abs(h_2x).max())):
        errors.append(f"{mask.name}: h-refinement {residual:.2e}")


def _suite_extension_round_trips(mask, scale, spectral, basis, errors):
    n = mask.n
    for f in basis.functions:
        lam = f.eigenvalue
        if abs(lam) <= 1e-8:
            continue
        v = f.vector
        vscale = max(1.0, float(np.abs(v).max()))
        w = f.window.values(0, n + 1)
        if float(np.abs(w - v).max()) > 1e-10 * vscale:
            errors.append(f"{mask.name}: row {f.row} restriction drift")
        shifted = scale.shifted(lam)
        power = np.linalg.matrix_power(shifted, f.order)
        member = float(np.abs(v @ power).max())
        bound = 1e-9 * vscale * max(1.0, float(np.abs(power).max()))
        if member > bound:
            errors.append(f"{mask.name}: row {f.row} kernel residual {member:.2e}")
        corners = min(abs(lam - mask.c(0)), abs(lam - mask.c(n)))
        if n >= 2 and corners > 1e-6:
            # for lam != 0 the middle block of (T - lam I)^r is (M - lam I)^r,
            # so v[1:N] is in ker (M - lam I)^r, and away from the corner
            # eigenvalues it is nonzero
            core_power = np.linalg.matrix_power(scale.core - lam * np.eye(n - 1), f.order)
            drift = float(np.abs(power[1:n, 1:n] - core_power).max())
            if drift > 1e-12 * max(1.0, float(np.abs(power).max())):
                errors.append(f"{mask.name}: row {f.row} middle block drift {drift:.2e}")
            middle = v[1:n]
            if float(np.abs(middle @ core_power).max()) > bound:
                errors.append(f"{mask.name}: row {f.row} middle not in ker (M - lam I)^r")
            if float(np.abs(middle).max()) <= 1e-8 * vscale:
                errors.append(f"{mask.name}: row {f.row} middle vanishes")


def _window_rank(windows) -> int:
    return int(np.linalg.matrix_rank(np.array(windows))) if windows else 0


def _suite_kernel_dimension(mask, scale, errors):
    indep = rf.independence_test(scale)
    windows = rf.kernel_of_L(mask).windows
    # the windows on [0, N] must be independent, not merely as many
    rank = _window_rank([w.values(0, mask.n + 1) for w in windows])
    if not (rank == len(windows) == indep.gcd_degree == indep.kernel_dimension):
        errors.append(
            f"{mask.name}: dim ker(L) {len(windows)} of rank {rank}, gcd {indep.gcd_degree}, "
            f"dim ker(M) {indep.kernel_dimension}"
        )


def _suite_subdivision_oracle(mask, basis, errors):
    lo, hi = -6, mask.n + 7
    block = basis.functions[0].window.values(lo, hi)
    # the sweep of the extension-recurrence check, over the whole support
    out_lo, out_len = 2 * lo - mask.n, 2 * (hi - lo) - 1 + mask.n
    got = kernels.subdivision_window(block, lo, mask.coefficients, out_lo, out_len)
    want = dense_subdivision(block, lo, mask.coefficients, out_lo, out_len)
    residual = float(np.abs(got - want).max())
    if residual > 1e-10 * max(1.0, float(np.abs(block).max())):
        errors.append(f"{mask.name}: subdivision oracle {residual:.2e}")


def _suite_origin(mask, basis, errors):
    for f in basis.functions:
        if abs(f.eigenvalue - 1) <= 1e-6:
            continue
        at0 = abs(complex(f.at_index(np.array([0]))[0]))
        if at0 > 1e-10 * max(1.0, float(np.abs(f.values).max())):
            errors.append(f"{mask.name}: row {f.row} h(0) = {at0:.2e}")


def test_criterion_5_property_suites(pipeline, conclude):
    masks = [make_mask(n) for n in ("bspline3", "d4", "jordan13", "half")]
    masks += random_masks()
    errors: list[str] = []
    for mask in masks:
        scale, spectral, phi, basis = pipeline(mask, level=8)
        _suite_refinement(mask, phi, errors)
        _suite_vector_refinement(mask, scale, phi, errors)
        _suite_h_refinement(mask, spectral, basis, errors)
        _suite_extension_round_trips(mask, scale, spectral, basis, errors)
        _suite_kernel_dimension(mask, scale, errors)
        _suite_subdivision_oracle(mask, basis, errors)
        _suite_origin(mask, basis, errors)

    # independent fundamental sequences for seeded random simple root sets
    rng = np.random.default_rng(SEED + 1)
    checked = 0
    while checked < 40:
        h = int(rng.integers(1, 6))
        roots = rng.normal(size=h) + 1j * rng.normal(size=h)
        if any(
            abs(a - b) < 0.1
            for i, a in enumerate(roots)
            for b in roots[i + 1 :]
        ) or np.abs(roots).min() < 0.1:
            continue
        checked += 1
        system = rf.difference_system([np.polynomial.polynomial.polyfromroots(roots)])
        rank = _window_rank([rule.values(0, h) for rule in rf.solve_system(system)])
        if not rank == system.gcd_degree == h:
            errors.append(f"random roots {roots}: windows of rank {rank}, gcd degree {system.gcd_degree}")

    conclude(
        5,
        "property suites on the 4 worked masks and 50 random masks: "
        "refinement, vector and h refinement, extension round-trips, "
        "kernel dimensions, subdivision oracle, rank of the ker L windows, h(0)=0",
        errors,
    )


def test_criterion_6_local_basis_dimension(all_masks, pipeline, conclude):
    failures: list[str] = []
    checked = 0
    for mask in all_masks:
        scale = rf.build_scale_matrices(mask)
        if not rf.independence_test(scale).core_invertible:
            continue
        checked += 1
        _, _, _, basis = pipeline(mask, level=10)
        if len(basis.functions) != mask.n + 1:
            failures.append(
                f"{mask.name}: {len(basis.functions)} functions != {mask.n + 1}"
            )
            continue
        samples = basis.samples
        # Independence is scale-free: bring each function to unit sup norm
        # (extensions at small or large eigenvalues differ by orders of
        # magnitude) before conditioning the Gram matrix.
        samples = samples / np.abs(samples).max(axis=1, keepdims=True)
        gram = samples @ samples.conj().T
        sing = np.linalg.svd(gram, compute_uv=False)
        if sing[-1] <= 1e-8 * sing[0]:
            failures.append(
                f"{mask.name}: gram ratio {sing[-1] / sing[0]:.2e}"
            )
    if checked < 50:
        failures.append(f"only {checked} masks had an invertible core")

    conclude(
        6,
        "every corpus mask with invertible core yields N+1 basis functions "
        "with a nonsingular sample Gram matrix on [-1,1]",
        failures,
    )
