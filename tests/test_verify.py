"""The verification battery: every check must pass on the worked corpus,
and the reported results must carry usable residual/tolerance data. One
injected defect per case must fail the check that covers it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import refinable as rf
from refinable import evaluate, verify
from refinable.diffeq import CombinationRule
from refinable.extension import RuleExtender

from conftest import make_mask, make_scale

CHECK_NAMES = [
    "spectrum-decomposition",
    "jordan-identity",
    "conventions",
    "extension-recurrence",
    "homogeneity",
    "zero-at-origin",
    "reconstruction",
    "accuracy-reproduction",
    "independence-consistency",
]


@pytest.mark.parametrize("name", ["bspline3", "d4", "jordan13", "half", "haar"])
def test_battery_passes_on_corpus(name):
    battery = rf.run_battery(make_mask(name), level=9)
    failed = [c for c in battery.checks if not c.passed]
    assert battery.passed, [(c.name, c.residual, c.detail) for c in failed]
    got = [c.name for c in battery.checks]
    for check in CHECK_NAMES:
        assert check in got, check
    for c in battery.checks:
        if c.residual is not None and c.tolerance is not None:
            assert c.residual <= c.tolerance, c.name


def test_half_reports_dependency_witness():
    battery = rf.run_battery(make_mask("half"), level=8)
    witness = battery.check("dependency-witness")
    assert witness.passed
    assert witness.residual <= witness.tolerance


def test_exact_mode_battery():
    battery = rf.run_battery(make_mask("bspline3"), level=8, exact=True)
    assert battery.passed
    # the similarity B T = J B is exact in rational arithmetic; the spectrum
    # check still compares against float eigenvalues, so only near-zero there
    assert battery.check("jordan-identity").residual == 0.0


def test_check_lookup_raises_for_unknown_name():
    battery = rf.run_battery(make_mask("haar"), level=6)
    with pytest.raises(KeyError):
        battery.check("no-such-check")


def test_battery_level_is_recorded():
    battery = rf.run_battery(make_mask("haar"), level=6, tolerance=1e-7)
    assert battery.level == 6
    assert battery.tolerance == 1e-7


# ---------------------------------------------------------------------------
# fault injection: each defect is patched into the construction the battery
# checks, and the battery must fail the matching check


def perturb_jordan_basis(monkeypatch):
    """One basis row off by 1e-7 of its size, below the extension's
    precondition, so that the rows still extend."""
    original = verify.eigen_structure

    def perturbed(*args, **kwargs):
        spectral = original(*args, **kwargs)
        basis = spectral.basis.copy()
        basis[1] += 1e-7 * np.abs(basis[1]).max() * np.random.default_rng(0).normal(size=basis.shape[1])
        return dataclasses.replace(spectral, basis=basis)

    monkeypatch.setattr(verify, "eigen_structure", perturbed)


# extends a window by zeros: the empty combination of fundamental sequences
ZEROS = RuleExtender(CombinationRule((), ()))


def wrong_chain_predecessor(monkeypatch):
    """Chain rows extend with a predecessor that is right on [0, N] and
    zero outside it."""
    original = evaluate.eigen_extend

    def truncated(v, chain_prev, scale, eigenvalue):
        if chain_prev is not None:
            chain_prev = rf.SequenceWindow(chain_prev.values(0, scale.n + 1), extender=ZEROS)
        return original(v, chain_prev, scale, eigenvalue)

    monkeypatch.setattr(evaluate, "eigen_extend", truncated)


def wrong_accuracy_polynomial(monkeypatch):
    """The highest reproduced polynomial gets 1e-6 added to its constant."""
    original = verify.accuracy

    def shifted(*args, **kwargs):
        acc = original(*args, **kwargs)
        coefficients = list(acc.coefficients)
        coefficients[-1] = coefficients[-1] + np.eye(len(coefficients[-1]))[0] * 1e-6
        return dataclasses.replace(acc, coefficients=tuple(coefficients))

    monkeypatch.setattr(verify, "accuracy", shifted)


def shifted_extension_window(monkeypatch):
    """Every extension is read one index to the right of where it belongs."""
    original = evaluate._extension

    def shifted(v, scale, eigenvalue):
        order, window = original(v, scale, eigenvalue)
        lo, hi = -40, scale.n + 41
        return order, rf.SequenceWindow(window.values(lo, hi), lo=lo + 1, extender=ZEROS)

    monkeypatch.setattr(evaluate, "_extension", shifted)


# the check that covers each defect first; the rows' shared max |h| scales
# the homogeneity and origin checks, and the shared sample matrix feeds the
# reconstruction
FAULTS = [
    (perturb_jordan_basis, "d4", ("jordan-identity", "homogeneity", "zero-at-origin")),
    (wrong_chain_predecessor, "jordan13", ("extension-recurrence",)),
    (wrong_accuracy_polynomial, "d4", ("accuracy-reproduction",)),
    (
        shifted_extension_window,
        "bspline3",
        ("extension-recurrence", "homogeneity", "zero-at-origin", "reconstruction"),
    ),
]


@pytest.mark.parametrize("inject, name, checks", FAULTS, ids=[f[0].__name__ for f in FAULTS])
def test_injected_fault_fails_its_checks(inject, name, checks, monkeypatch):
    mask = make_mask(name)
    assert rf.run_battery(mask, level=9).passed
    inject(monkeypatch)
    battery = rf.run_battery(mask, level=9)
    for check in checks:
        result = battery.check(check)
        assert not result.passed, (check, result.residual, result.tolerance)


# ---------------------------------------------------------------------------
# NaN residuals: a NaN in what a check sums must fail the check, with a NaN
# residual, not drop out of the fold as smaller than every number

LEVEL = 6
TOL = 1e-8


def with_nan_row(basis, row):
    """The basis with every sample of one row NaN."""
    samples = basis.samples.copy()
    samples[row] = np.nan
    functions = tuple(dataclasses.replace(f, values=samples[f.row]) for f in basis.functions)
    return dataclasses.replace(basis, samples=samples, functions=functions)


def with_nan_window(basis, row):
    """The basis with one row's extension NaN on [-40, N + 41)."""
    n = basis.spectral.n
    window = rf.SequenceWindow(np.full(n + 81, np.nan), lo=-40, extender=ZEROS)
    functions = tuple(
        dataclasses.replace(f, window=window) if f.row == row else f for f in basis.functions
    )
    return dataclasses.replace(basis, functions=functions)


def with_nan_sample(phi):
    """phi with one NaN sample inside (0, 1)."""
    values = phi.values.copy()
    values[2 ** phi.level // 2] = np.nan
    return dataclasses.replace(phi, values=values)


def stage(name):
    spectral = rf.eigen_structure(make_scale(name))
    return spectral, rf.build_homogeneous_basis(spectral, level=LEVEL)


def nan_origin():
    basis = with_nan_row(stage("bspline3")[1], 1)
    scales = [max(1.0, float(m)) for m in np.abs(basis.samples).max(axis=1)]
    return verify._check_origin(basis, scales, TOL)


def nan_extension():
    return verify._check_extension(with_nan_window(stage("bspline3")[1], 1), TOL)


def nan_accuracy():
    spectral, basis = stage("bspline3")
    return verify._check_accuracy(spectral, with_nan_sample(basis.phi), TOL)


def nan_dependency_witness():
    spectral, basis = stage("half")
    checks = verify._check_independence(spectral, with_nan_sample(basis.phi), TOL)
    return next(c for c in checks if c.name == "dependency-witness")


@pytest.mark.parametrize("check", [nan_origin, nan_extension, nan_accuracy, nan_dependency_witness])
def test_a_nan_residual_fails_its_check(check):
    result = check()
    assert not result.passed
    assert np.isnan(result.residual)


def test_a_nan_eigenvalue_gives_a_nan_distance():
    assert np.isnan(verify._multiset_distance([1, np.nan], [1, 2]))
    assert np.isnan(verify._multiset_distance([1, 2], [np.nan, 2]))
    assert verify._multiset_distance([1, 2], [2, 1]) == 0.0


@pytest.mark.parametrize(
    "residuals, worst, passed",
    [([], 0.0, True), ([0.5, 1.0], 1.0, True), ([1.0, 1.5], 1.5, False), ([1.0, np.nan, 0.0], np.nan, False)],
)
def test_every_residual_check_passes_at_most_its_tolerance(residuals, worst, passed):
    result = verify._residual_check("x", residuals, 1.0, "d")
    assert result == verify.CheckResult("x", passed, result.residual, 1.0, "d")
    np.testing.assert_equal(result.residual, worst)


def test_dependency_witness_is_judged_as_reported():
    # each window's residual is relative to max(1, max |Y|) max(1, max |phi|),
    # far from 1 for this mask, and the verdict is residual <= tolerance
    mask = rf.mask_from_coefficients([1, 1, 1, 1, -1, -1], name="irrational")
    battery = rf.run_battery(mask, level=8)
    witness = battery.check("dependency-witness")
    phi = rf.evaluate_phi(mask, 8)
    reports = [rf.verify_dependency(phi, window) for window in rf.kernel_of_L(mask).windows]
    assert max(r.scale for r in reports) > 100
    assert witness.residual == max(r.max_residual / r.scale for r in reports) > 0
    assert witness.tolerance == battery.tolerance
    assert witness.passed == (witness.residual <= witness.tolerance)
