"""Pointwise evaluation: cascade samples of phi, homogeneous basis
functions, reconstruction of phi from them, and dependency checks.

The oracles are closed forms computed independently of the package: the
quadratic B-spline for (1,3,3,1)/4, the hat function for (1,2,1)/2, the
box for (1,1), and the box*box(./2) convolution (ramp - plateau - ramp)
for (1,1,1,1)/2, plus the classical integer values of the D4 scaling
function.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import random
import re
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

import refinable as rf
from refinable import numeric as nm
from refinable.diffeq import CombinationRule
from refinable.errors import EvaluationError
from refinable.evaluate import MAX_LEVEL, translate_sum
from refinable.extension import RuleExtender
from refinable.spectral import CLUSTER_RTOL

from conftest import GRID_MASK_NAMES, SQRT3, bits, grid_masks, make_mask, make_scale


def closed_form(name: str, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    if name == "haar":
        out[(0 <= x) & (x < 1)] = 1.0
    elif name == "hat":
        out = np.clip(1.0 - np.abs(x - 1.0), 0.0, None)
    elif name == "bspline3":
        m = (0 <= x) & (x < 1)
        out[m] = x[m] ** 2 / 2
        m = (1 <= x) & (x < 2)
        out[m] = -(x[m] ** 2) + 3 * x[m] - 1.5
        m = (2 <= x) & (x <= 3)
        out[m] = (3 - x[m]) ** 2 / 2
    elif name == "half":
        out = 0.5 * np.clip(np.minimum(x, 3.0 - x), 0.0, 1.0)
    else:
        raise KeyError(name)
    return out


def hat_mask() -> rf.Mask:
    return rf.mask_from_coefficients(["1/2", "1", "1/2"], name="hat")


# The grid loops as gathers through index arrays, the formulation the slice
# code replaced; kept as bitwise oracles. They run in complex arithmetic.

def complex_phi(phi):
    """The same samples of phi as ``complex128``."""
    return dataclasses.replace(phi, values=phi.values.astype(complex))


def translate_by_index(phi, window, lo, hi):
    step = 2**phi.level
    out_len = (hi - lo) * step + 1
    out = np.zeros(out_len, dtype=complex)
    k_lo, k_hi = -hi, phi.mask.n - lo
    coeffs = window.values(k_lo, k_hi + 1)
    base = np.arange(out_len) + lo * step
    for k in range(k_lo, k_hi + 1):
        y = coeffs[k - k_lo]
        if y == 0:
            continue
        idx = base + k * step
        ok = (idx >= 0) & (idx < len(phi.values))
        out[ok] += y * phi.values[idx[ok]]
    return out


def homogeneity_by_index(h):
    lam, r = complex(h.eigenvalue), h.order
    step = 2**h.level
    lo, hi = h.interval
    indices = np.arange(lo * step, hi * step + 1)
    indices = indices[indices % (2**r) == 0]
    acc = np.zeros(indices.shape, dtype=complex)
    for k in range(r + 1):
        acc += np.complex128(comb(r, k) * (-lam) ** (r - k)) * h.at_index(indices // (2**k))
    return float(np.abs(acc).max())


def accuracy_sum_by_index(phi, coeffs):
    step = 2**phi.level
    g = np.zeros(step + 1, dtype=complex)
    for k in range(-1, phi.mask.n + 1):
        pk = np.polynomial.polynomial.polyval(k, coeffs)
        idx = np.arange(step + 1) + k * step
        ok = (idx >= 0) & (idx < len(phi.values))
        g[ok] += pk * phi.values[idx[ok]]
    return g


ORACLE_MASKS = GRID_MASK_NAMES + ("jordan13",)


def recursive_extension(v, scale, lam):
    """The extension as a recursion down the chain, each predecessor with
    its own ``minimal_order``."""
    prev = None
    if rf.minimal_order(v, scale, lam) > 1:
        prev = recursive_extension(v @ scale.shifted(complex(lam)), scale, lam)
    return rf.eigen_extend(v, prev, scale, lam)


def oracle_mask(name: str) -> rf.Mask:
    return grid_masks()[name] if name in GRID_MASK_NAMES else make_mask(name)


class TestIntegerSamples:
    def test_exact_values_for_rational_masks(self):
        # haar has a double eigenvalue 1; the phi(N) = 0 disambiguation is a
        # least-squares fit, so exact to rounding rather than bit-for-bit
        np.testing.assert_allclose(
            rf.integer_samples(make_mask("haar")), [1, 0], atol=1e-14
        )
        np.testing.assert_array_equal(
            rf.integer_samples(make_mask("bspline3")), [0, 0.5, 0.5, 0]
        )
        np.testing.assert_array_equal(
            rf.integer_samples(make_mask("half")), [0, 0.5, 0.5, 0]
        )
        np.testing.assert_array_equal(rf.integer_samples(hat_mask()), [0, 1, 0])

    def test_d4_matches_classical_values(self):
        u = rf.integer_samples(make_mask("d4"))
        want = [0.0, (1 + SQRT3) / 2, (1 - SQRT3) / 2, 0.0]
        np.testing.assert_allclose(u, want, atol=1e-10)

    def test_sum_one_and_refinement_at_integers(self, all_masks):
        for mask in all_masks:
            u = rf.integer_samples(mask)
            assert abs(complex(u.sum()) - 1) < 1e-8, mask.name
            # phi(i) = sum_k c_k phi(2i - k), reading phi as zero off [0, N]
            for i in range(mask.n + 1):
                acc = 0.0 + 0.0j
                for k in range(mask.n + 1):
                    j = 2 * i - k
                    if 0 <= j <= mask.n:
                        acc += mask.c(k) * u[j]
                assert abs(acc - u[i]) < 1e-8 * max(
                    1.0, float(np.abs(u).max())
                ), mask.name

    @pytest.mark.filterwarnings("ignore::refinable.MaskSumWarning")
    def test_rejects_mask_without_eigenvalue_one(self):
        mask = rf.mask_from_coefficients(["1/2", "1/2"], name="shrink")
        with pytest.raises(EvaluationError):
            rf.integer_samples(mask)


class TestCascade:
    @pytest.mark.parametrize("name", ["haar", "hat", "bspline3", "half"])
    def test_closed_forms(self, name):
        mask = hat_mask() if name == "hat" else make_mask(name)
        phi = rf.evaluate_phi(mask, level=7)
        np.testing.assert_allclose(
            phi.values, closed_form(name, phi.grid), atol=1e-12
        )

    def test_refinement_identity_everywhere(self, all_masks):
        level = 6
        for mask in all_masks:
            phi = rf.evaluate_phi(mask, level)
            step = 2**level
            t = np.arange(len(phi.values))
            rhs = np.zeros(len(phi.values), dtype=complex)
            for k in range(mask.n + 1):
                rhs += mask.c(k) * phi.at_index(2 * t - k * step)
            bound = 1e-9 * max(1.0, float(np.abs(phi.values).max()))
            assert float(np.abs(phi.values - rhs).max()) <= bound, mask.name

    def test_vector_refinement(self, corpus):
        # u(x) = (phi(x + j))_j satisfies u(x) = T u(2x) on [-1/2, 1/2]:
        # beyond it the translates dropped by the finite vector contribute.
        # The endpoints need phi(0) = phi(N) = 0, which excludes haar.
        level = 6
        step = 2**level
        for name, mask in corpus.items():
            scale = rf.build_scale_matrices(mask)
            phi = rf.evaluate_phi(mask, level)
            if name == "haar":
                t = np.arange(-step // 2 + 1, step // 2)
            else:
                t = np.arange(-step // 2, step // 2 + 1)
            rows = mask.n + 1
            u = np.array([phi.at_index(t + j * step) for j in range(rows)])
            u2 = np.array([phi.at_index(2 * t + j * step) for j in range(rows)])
            residual = float(np.abs(u - scale.full @ u2).max())
            assert residual <= 1e-10 * max(1.0, float(np.abs(u).max())), name

    def test_partition_of_unity(self, corpus):
        level = 7
        step = 2**level
        for name, mask in corpus.items():
            phi = rf.evaluate_phi(mask, level)
            total = np.zeros(step, dtype=complex)
            for k in range(mask.n):
                total += phi.values[k * step : k * step + step]
            np.testing.assert_allclose(
                total, np.ones(step), atol=1e-8, err_msg=name
            )

    def test_grid_and_accessors(self):
        mask = make_mask("bspline3")
        phi = rf.evaluate_phi(mask, level=4)
        assert phi.step == 2.0**-4
        assert len(phi.values) == mask.n * 16 + 1
        assert phi.grid[0] == 0.0 and phi.grid[-1] == mask.n
        np.testing.assert_array_equal(
            phi.values[::16], rf.integer_samples(mask)
        )
        np.testing.assert_array_equal(
            phi.at_index(np.array([-1, 16, 24, len(phi.values)])), [0, phi.values[16], phi.values[24], 0]
        )

    def test_level_validation(self):
        mask = make_mask("haar")
        with pytest.raises(EvaluationError):
            rf.evaluate_phi(mask, -1)
        with pytest.raises(EvaluationError):
            rf.evaluate_phi(mask, MAX_LEVEL + 1)
        assert len(rf.evaluate_phi(mask, 0).values) == 2
        # a non-integral level is refused, not truncated (3.7 gave level 3)
        with pytest.raises(EvaluationError, match="got 3.7"):
            rf.evaluate_phi(mask, 3.7)
        phi = rf.evaluate_phi(mask, 3.0)
        assert phi.level == 3 and type(phi.level) is int


class TestHomogeneousBasis:
    def test_sampling_matches_direct_translate_sum(self, corpus, pipeline):
        for name, mask in corpus.items():
            _, _, phi, basis = pipeline(mask)
            step = 2**basis.level
            offset = -basis.interval[0] * step
            n = np.arange(step)  # x in [0, 1)
            for f in basis.functions:
                np.testing.assert_allclose(
                    f.window.values(0, mask.n + 1), f.vector, atol=1e-7
                )
                direct = np.zeros(step, dtype=complex)
                for k in range(mask.n + 1):
                    direct += f.vector[k] * phi.at_index(n + k * step)
                got = f.values[offset : offset + step]
                scale_ref = max(1.0, float(np.abs(f.values).max()))
                assert float(np.abs(got - direct).max()) <= 1e-9 * scale_ref, (
                    name,
                    f.row,
                )

    def test_h_refinement_through_jordan_matrix(self, corpus, pipeline):
        for name, mask in corpus.items():
            _, spectral, _, basis = pipeline(mask)
            step = 2**basis.level
            lo, hi = basis.interval
            even = np.arange(lo * step, hi * step + 1)
            even = even[even % 2 == 0]
            h = np.array([f.at_index(even) for f in basis.functions])
            h_half = np.array([f.at_index(even // 2) for f in basis.functions])
            residual = float(np.abs(h_half - spectral.jordan @ h).max())
            assert residual <= 1e-8 * max(1.0, float(np.abs(h).max())), name

    def test_origin_value_vanishes_off_eigenvalue_one(self, corpus, pipeline):
        for name, mask in corpus.items():
            _, _, _, basis = pipeline(mask)
            for f in basis.functions:
                if abs(f.eigenvalue - 1) <= 1e-6:
                    continue
                at0 = abs(complex(f.at_index(np.array([0]))[0]))
                scale_ref = max(1.0, float(np.abs(f.values).max()))
                assert at0 <= 1e-8 * scale_ref, (name, f.row)

    def test_first_order_homogeneity(self, pipeline):
        mask = make_mask("bspline3")
        _, _, _, basis = pipeline(mask)
        for f in basis.functions:
            assert f.order == 1
            scale_ref = max(1.0, float(np.abs(f.values).max()))
            assert rf.homogeneity_residual(f) <= 1e-8 * scale_ref

    def test_second_order_homogeneity_on_jordan_mask(self, pipeline):
        mask = make_mask("jordan13")
        _, _, _, basis = pipeline(mask)
        seconds = [f for f in basis.functions if f.order == 2]
        assert len(seconds) == 1
        f = seconds[0]
        scale_ref = max(1.0, float(np.abs(f.values).max()))
        assert rf.homogeneity_residual(f) <= 1e-8 * scale_ref
        # the same function is *not* plainly homogeneous
        assert rf.homogeneity_residual(dataclasses.replace(f, order=1)) > 1e-3
        for g in basis.functions:
            if g.order == 1:
                ref = max(1.0, float(np.abs(g.values).max()))
                assert rf.homogeneity_residual(g) <= 1e-8 * ref

    def test_interval_and_level_validation(self):
        spectral = rf.eigen_structure(make_scale("haar"))
        with pytest.raises(EvaluationError):
            rf.build_homogeneous_basis(spectral, interval=(1, 2), level=3)
        with pytest.raises(EvaluationError):
            rf.build_homogeneous_basis(spectral, interval=(0, 0), level=3)
        with pytest.raises(EvaluationError):
            rf.build_homogeneous_basis(spectral, interval=(-1, 1), level=-2)
        # non-integral values are refused, not truncated: level 2.9 on
        # (-1.5, 1.2) sampled level 2 on (-1, 1)
        for level, interval in [(2.9, (-1, 1)), (2, (-1.5, 1)), (2, (-1, 1.2)), (2.9, (-1.5, 1.2))]:
            with pytest.raises(EvaluationError, match="integer"):
                rf.build_homogeneous_basis(spectral, level=level, interval=interval)
        basis = rf.build_homogeneous_basis(spectral, level=2.0, interval=(-1.0, 2.0))
        assert (basis.level, basis.interval) == (2, (-1, 2))

    def test_unallocatable_grid_is_refused_before_the_cascade(self, monkeypatch):
        from refinable import evaluate

        def no_cascade(*args, **kwargs):
            raise AssertionError("the cascade ran before the sample matrix was allocated")

        monkeypatch.setattr(evaluate, "evaluate_phi", no_cascade)
        spectral = rf.eigen_structure(make_scale("haar"))
        with pytest.raises(EvaluationError, match="2 basis rows of 4000000000000000079538499354629 samples"):
            rf.build_homogeneous_basis(spectral, level=2, interval=(-1, 1e30))

    def test_one_pass_extension_is_the_recursion(self, all_masks, pipeline):
        # orders and windows from one pass of predecessors, bit for bit the
        # ones a recursion with a minimal_order per predecessor gives
        for mask in all_masks:
            scale, spectral, _, basis = pipeline(mask)
            n = mask.n
            for f in basis.functions:
                v = spectral.basis[f.row]
                assert f.order == rf.minimal_order(v, scale, f.eigenvalue), (mask.name, f.row)
                if abs(f.eigenvalue) <= 1e-10:
                    continue
                want = recursive_extension(v, scale, f.eigenvalue).values(-8, n + 9)
                got = f.window.values(-8, n + 9)
                np.testing.assert_array_equal(bits(got), bits(want), err_msg=f"{mask.name} row {f.row}")

    def test_nilpotent_chain_vector_is_rejected(self):
        # core [[0,1,0],[0,0,0],[0,1,0]] is nilpotent of index 2: the
        # eigen recurrence divides by the eigenvalue, so a second-order
        # vector at eigenvalue 0 admits no extension
        mask = rf.mask_from_coefficients([1, 0, 0, 0, 1], name="nilpotent2")
        scale = rf.build_scale_matrices(mask)
        spectral = rf.eigen_structure(scale)
        zero_rows = [
            info for info in spectral.rows if abs(info.eigenvalue) < 1e-9
        ]
        orders = {
            info.index: rf.minimal_order(spectral.basis[info.index], scale, 0.0)
            for info in zero_rows
        }
        # algebraic multiplicity 3 with chain lengths (2, 1)
        assert sorted(orders.values()) == [1, 1, 2]
        top = next(i for i, r in orders.items() if r == 2)
        with pytest.raises(EvaluationError):
            rf.extend_vector(spectral.basis[top], scale, spectral.rows[top].eigenvalue)


class TestReconstruction:
    def test_round_trip_on_corpus(self, corpus, pipeline):
        for name, mask in corpus.items():
            _, _, phi, basis = pipeline(mask)
            result = rf.reconstruct_phi(basis)
            step = 2**basis.level
            assert len(result.values) == step
            np.testing.assert_array_equal(result.reference, phi.values[:step])
            bound = 1e-8 * max(1.0, result.condition)
            assert result.residual <= bound, (name, result.residual)

    def test_interval_must_cover_unit_interval(self):
        spectral = rf.eigen_structure(make_scale("bspline3"))
        basis = rf.build_homogeneous_basis(spectral, level=4, interval=(-1, 0))
        with pytest.raises(EvaluationError):
            rf.reconstruct_phi(basis)


class TestDependency:
    def test_half_kernel_sequence_annihilates(self):
        mask = make_mask("half")
        kernel = rf.kernel_of_L(mask)
        assert len(kernel.windows) == 1
        report = rf.verify_dependency(rf.evaluate_phi(mask, 8), kernel.windows[0])
        assert (report.interval, report.level) == ((-4, 4), 8)
        assert report.max_residual <= 1e-8 * report.scale

    def test_zero_eigenvector_extension_alternates(self):
        mask = make_mask("half")
        scale = rf.build_scale_matrices(mask)
        spectral = rf.eigen_structure(scale)
        info = next(r for r in spectral.rows if abs(r.eigenvalue) < 1e-9)
        window = rf.extend_vector(spectral.basis[info.index], scale, 0.0)
        vals = window.values(-6, 10)
        base = vals[6]  # index 0
        assert abs(base) > 1e-12
        want = base * np.array([(-1.0) ** k for k in range(-6, 10)])
        np.testing.assert_allclose(vals, want, atol=1e-10)
        report = rf.verify_dependency(rf.evaluate_phi(mask, 8), window)
        assert report.max_residual <= 1e-8 * report.scale

    def test_eigen_window_is_not_a_dependency(self):
        mask = make_mask("bspline3")
        scale = rf.build_scale_matrices(mask)
        spectral = rf.eigen_structure(scale)
        info = next(r for r in spectral.rows if abs(r.eigenvalue - 1) < 1e-9)
        window = rf.extend_vector(spectral.basis[info.index], scale, info.eigenvalue)
        report = rf.verify_dependency(rf.evaluate_phi(mask, 6), window)
        assert report.max_residual > 1e-8 * report.scale
        assert report.max_residual > 1e-2


class TestGridOracles:
    """Translate sums and homogeneity samples equal the index gathers bit
    for bit at level 14, where every operand exceeds 16384 values. A real
    mask samples phi in float64, and its sums equal the gathers over the
    same samples in complex128."""

    @pytest.mark.parametrize("name", ORACLE_MASKS)
    def test_phi_is_real_exactly_for_a_real_mask(self, name, pipeline):
        _, _, phi, basis = pipeline(oracle_mask(name), 14)
        real = name != "grid_complex12"
        assert phi.values.dtype == (np.float64 if real else np.complex128)
        assert basis.samples.dtype == np.complex128

    @pytest.mark.parametrize("name", ORACLE_MASKS)
    @pytest.mark.parametrize("level, interval", [(14, (-1, 1)), (10, (-2, 3))])
    def test_translate_sum_is_the_index_gather(self, name, level, interval, pipeline):
        _, _, phi, basis = pipeline(oracle_mask(name), level, interval)
        samples = basis.samples
        assert samples.shape == (len(basis.functions), (interval[1] - interval[0]) * 2**level + 1)
        for r, f in enumerate(basis.functions):
            # each row is the function's samples, not a copy
            assert np.shares_memory(samples[r], f.values)
            np.testing.assert_array_equal(bits(samples[r]), bits(f.values))
            want = translate_by_index(complex_phi(phi), f.window, *interval)
            np.testing.assert_array_equal(bits(f.values), bits(want), err_msg=f"row {f.row}")

    @pytest.mark.parametrize("name", ORACLE_MASKS)
    def test_accuracy_sum_is_the_index_gather(self, name, pipeline):
        _, spectral, phi, _ = pipeline(oracle_mask(name), 14)
        acc = rf.accuracy(spectral.scale)
        assert acc.order >= 1
        for coeffs in acc.coefficients:
            pk = np.array([np.polynomial.polynomial.polyval(k, coeffs) for k in range(-1, phi.mask.n + 1)])
            got = translate_sum(phi, pk, 0, 1)
            want = accuracy_sum_by_index(complex_phi(phi), coeffs)
            np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("imag", [False, True])
    def test_translate_sum_takes_real_and_complex_coefficients_on_a_real_phi(self, imag, pipeline):
        _, _, phi, _ = pipeline(oracle_mask("grid_real12"), 14)
        rng = np.random.default_rng(7)
        ys = rng.normal(size=phi.mask.n + 3) + (1j * rng.normal(size=phi.mask.n + 3) if imag else 0)
        ys[[0, 5]] = 0  # skipped translates
        window = rf.SequenceWindow(ys.astype(complex), lo=-1, extender=RuleExtender(CombinationRule((), ())))
        got = translate_sum(phi, ys, -1, 1)
        want = translate_by_index(complex_phi(phi), window, -1, 1)
        np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("name", ORACLE_MASKS)
    def test_homogeneity_residual_is_the_index_gather(self, name, pipeline):
        _, _, _, basis = pipeline(oracle_mask(name), 14)
        for f in basis.functions:
            got = rf.homogeneity_residual(f)
            assert bits([got]).tolist() == bits([homogeneity_by_index(f)]).tolist(), f.row

    def test_a_nan_sample_fails_the_homogeneity_residual(self, pipeline):
        f = pipeline(make_mask("jordan13"))[3].functions[0]
        values = f.values.copy()
        values[len(values) // 2] = np.nan  # x = 0, a test point of every order
        with pytest.raises(EvaluationError, match="not a number"):
            rf.homogeneity_residual(dataclasses.replace(f, values=values))

    def test_translate_sum_rejects_a_wrong_coefficient_count(self, pipeline):
        _, _, phi, _ = pipeline(make_mask("bspline3"))
        with pytest.raises(EvaluationError):
            translate_sum(phi, np.ones(4), -1, 1)


def verify_pool_masks(count: int, seed: int) -> list[rf.Mask]:
    """A seeded sample of the benchmark's ``verify`` pool, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("_perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus  # its dataclasses look their module up
    spec.loader.exec_module(corpus)
    jobs = random.Random(seed).sample(corpus.pool("verify"), count)
    return [rf.mask_from_coefficients(j.mask["coefficients"], name=j.key) for j in jobs]


def conjugate_pairs(spectral) -> list[tuple[int, int]]:
    return [(info.index, info.conjugate_of) for info in spectral.rows if info.conjugate_of is not None]


class TestConjugatePairs:
    """For a real mask, the rows of conj(lambda) are built as the exact
    conjugates of the rows of lambda: basis vector, eigenvalue, extension
    and samples, bit for bit."""

    SAMPLE = verify_pool_masks(16, seed=16)

    @pytest.mark.parametrize("mask", [make_mask(name) for name in ("bspline3", "d4", "jordan13", "half")]
                             + [grid_masks()["grid_real12"]] + SAMPLE, ids=lambda m: m.name)
    def test_partner_rows_are_exact_conjugates(self, mask, pipeline):
        _, spectral, phi, basis = pipeline(mask)
        assert phi.values.dtype == np.float64
        n = mask.n
        for r, q in conjugate_pairs(spectral):
            assert spectral.rows[q].conjugate_of is None
            assert bits([spectral.rows[r].eigenvalue]).tolist() == bits([np.conj(spectral.rows[q].eigenvalue)]).tolist()
            np.testing.assert_array_equal(bits(spectral.basis[r]), bits(spectral.basis[q].conj()))
            f, g = basis.functions[r], basis.functions[q]
            np.testing.assert_array_equal(bits(f.window.values(-20, n + 21)), bits(g.window.values(-20, n + 21).conj()))
            np.testing.assert_array_equal(bits(basis.samples[r]), bits(basis.samples[q].conj()))
            assert f.order == g.order

    # basis/flt_n7_w2/3 of the benchmark's basis pool: at level 8 on
    # [-2, 2] an imaginary part of row 1 sums to exactly zero
    SIGNED_ZERO = rf.mask_from_coefficients(
        [-1.0744124037096834, 0.37799326485120877, 0.5220186349054945, 0.33933345012388394,
         0.17228027198443716, -0.06250768311590459, 1.3801134968197515, 0.345180968140812],
        name="flt_n7_w2/3",
    )

    @pytest.mark.parametrize(
        "mask, interval",
        [(make_mask(name), (-1, 1)) for name in ("bspline3", "d4", "jordan13", "half")]
        + [(grid_masks()["grid_real12"], (-1, 1))] + [(m, (-1, 1)) for m in SAMPLE]
        + [(SIGNED_ZERO, (-2, 2))],
        ids=lambda v: getattr(v, "name", str(v)),
    )
    def test_partner_rows_are_the_translate_sums_of_their_windows(self, mask, interval, pipeline):
        _, spectral, phi, basis = pipeline(mask, 8, interval)
        lo, hi = interval
        for r, _ in conjugate_pairs(spectral):
            window = basis.functions[r].window
            direct = translate_sum(phi, window.values(-hi, mask.n - lo + 1), lo, hi)
            np.testing.assert_array_equal(bits(basis.samples[r]), bits(direct))

    def test_an_exact_zero_imaginary_part_of_a_partner_row_is_plus_zero(self, pipeline):
        basis = pipeline(self.SIGNED_ZERO, 8, (-2, 2))[3]
        row, pair = basis.samples[1], basis.samples[basis.spectral.rows[1].conjugate_of]
        zero = np.flatnonzero(pair.imag == 0)
        assert zero.size and not np.signbit(pair.imag[zero]).any()
        assert not np.signbit(row.imag[zero]).any()

    def test_conjugate_window_reads_through_its_source(self):
        spectral = rf.eigen_structure(rf.build_scale_matrices(grid_masks()["grid_real12"]))
        basis = rf.build_homogeneous_basis(spectral, level=4)
        r, q = conjugate_pairs(basis.spectral)[0]
        view, source = basis.functions[r].window, basis.functions[q].window
        assert isinstance(view, rf.SequenceWindow) and view is not source
        assert source.lo > -30 and source.hi < 50
        values = view.values(-30, 50)  # reads beyond the source's window grow it
        assert source.lo <= -30 and source.hi >= 50
        np.testing.assert_array_equal(bits(values), bits(source.values(-30, 50).conj()))
        assert values.imag.any()

    def test_every_complex_row_of_the_sample_is_paired(self, pipeline):
        pairs = 0
        for mask in [grid_masks()["grid_real12"]] + self.SAMPLE:
            spectral = pipeline(mask)[1]
            tol = CLUSTER_RTOL * max(1.0, float(np.abs(np.linalg.eigvals(spectral.scale.full)).max()))
            partners = {r for r, _ in conjugate_pairs(spectral)}
            pairs += len(partners)
            for info in spectral.rows:
                if info.eigenvalue.imag < -tol:
                    assert info.index in partners, (mask.name, info.index)
                elif info.eigenvalue.imag > tol:
                    assert info.index not in partners
        assert pairs >= 10  # the sample meets complex eigenvalues

    def test_a_complex_mask_is_not_paired(self, pipeline):
        spectral = pipeline(grid_masks()["grid_complex12"])[1]
        assert any(abs(info.eigenvalue.imag) > 1e-3 for info in spectral.rows)
        assert conjugate_pairs(spectral) == []

    def test_a_real_cluster_with_a_tiny_imaginary_part_is_not_paired(self, monkeypatch):
        mask = grid_masks()["grid_real12"]
        clusters = nm.clusters

        def tilted(values, rtol):
            # every real cluster moved up from the axis, far above rounding
            # and well inside the tolerance, which the rank decisions allow
            tol = nm.cluster_tolerance(values, rtol)
            return [(c + 1e-4j * tol if abs(c.imag) <= tol else c, m, s) for c, m, s in clusters(values, rtol)]

        monkeypatch.setattr(nm, "clusters", tilted)
        spectral = rf.eigen_structure(rf.build_scale_matrices(mask))
        tilted_rows = [info for info in spectral.rows if 1e-13 < info.eigenvalue.imag <= 1e-6]
        assert len(tilted_rows) == 9
        assert all(info.conjugate_of is None for info in tilted_rows)
        assert len(conjugate_pairs(spectral)) == 2

    @pytest.mark.parametrize("how", ["moved", "dropped"])
    def test_an_unpaired_complex_cluster_is_refused(self, how, monkeypatch):
        scale = rf.build_scale_matrices(grid_masks()["grid_real12"])
        clusters = nm.clusters
        values = np.linalg.eigvals(scale.full)
        upper = max((c for c, _, _ in clusters(values, CLUSTER_RTOL)), key=lambda c: c.imag)

        def unpaired(values, rtol):
            # the partner of the upper cluster moved off its conjugate, or gone
            out = []
            for c, m, s in clusters(values, rtol):
                if abs(c - upper.conjugate()) < 1e-6:
                    if how == "dropped":
                        continue
                    c -= 1e-3j
                out.append((c, m, s))
            return out

        monkeypatch.setattr(nm, "clusters", unpaired)
        with pytest.raises(rf.ClusteringError, match=rf"complex cluster {re.escape(f'{upper:.6g}')} has no conjugate partner"):
            rf.eigen_structure(scale)
