"""Pointwise evaluation: cascade samples of phi, homogeneous basis
functions, reconstruction of phi from them, and dependency checks.

The oracles are closed forms computed independently of the package: the
quadratic B-spline for (1,3,3,1)/4, the hat function for (1,2,1)/2, the
box for (1,1), and the box*box(./2) convolution (ramp - plateau - ramp)
for (1,1,1,1)/2, plus the classical integer values of the D4 scaling
function.
"""

from __future__ import annotations

from math import comb

import numpy as np
import pytest

import refinable as rf
from refinable.errors import EvaluationError
from refinable.evaluate import MAX_LEVEL, translate_sum

from conftest import GRID_MASK_NAMES, SQRT3, bits, grid_masks, make_mask


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
# code replaced; kept as bitwise oracles.

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
    return rf.eigen_extend(v, prev, scale.mask, lam, scale=scale)


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
            phi.integer_values, rf.integer_samples(mask)
        )
        np.testing.assert_array_equal(
            phi.at_index(np.array([-1, len(phi.values)])), [0, 0]
        )
        assert phi.value(1.0) == phi.values[16]
        assert phi.value(1.5) == phi.values[24]
        with pytest.raises(EvaluationError):
            phi.value(0.3)  # not a level-4 grid point

    def test_level_validation(self):
        mask = make_mask("haar")
        with pytest.raises(EvaluationError):
            rf.evaluate_phi(mask, -1)
        with pytest.raises(EvaluationError):
            rf.evaluate_phi(mask, MAX_LEVEL + 1)
        assert len(rf.evaluate_phi(mask, 0).values) == 2


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
            # explicit probe points exercise the test_points path
            assert (
                rf.homogeneity_residual(f, test_points=[0.5, -0.25, 0.75])
                <= 1e-8 * scale_ref
            )

    def test_second_order_homogeneity_on_jordan_mask(self, pipeline):
        mask = make_mask("jordan13")
        _, _, _, basis = pipeline(mask)
        seconds = [f for f in basis.functions if f.order == 2]
        assert len(seconds) == 1
        f = seconds[0]
        scale_ref = max(1.0, float(np.abs(f.values).max()))
        assert rf.homogeneity_residual(f) <= 1e-8 * scale_ref
        # the same function is *not* plainly homogeneous
        assert rf.homogeneity_residual(f, order=1) > 1e-3
        for g in basis.functions:
            if g.order == 1:
                ref = max(1.0, float(np.abs(g.values).max()))
                assert rf.homogeneity_residual(g) <= 1e-8 * ref

    def test_homogeneity_point_validation(self, pipeline):
        mask = make_mask("bspline3")
        _, _, _, basis = pipeline(mask)
        f = basis.functions[0]
        with pytest.raises(EvaluationError):
            rf.homogeneity_residual(f, test_points=[0.3])  # off the grid
        with pytest.raises(EvaluationError):
            rf.homogeneity_residual(f, order=2, test_points=[f.step])

    def test_interval_and_level_validation(self):
        mask = make_mask("haar")
        with pytest.raises(EvaluationError):
            rf.build_homogeneous_basis(mask, interval=(1, 2), level=3)
        with pytest.raises(EvaluationError):
            rf.build_homogeneous_basis(mask, interval=(0, 0), level=3)
        with pytest.raises(EvaluationError):
            rf.build_homogeneous_basis(mask, interval=(-1, 1), level=-2)

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
            rf.extend_vector(spectral.basis[top], spectral, spectral.rows[top].eigenvalue)


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

    def test_level_mismatch_raises(self, pipeline):
        mask = make_mask("bspline3")
        _, _, _, basis = pipeline(mask)
        with pytest.raises(EvaluationError):
            rf.reconstruct_phi(basis, level=basis.level + 1)

    def test_interval_must_cover_unit_interval(self):
        mask = make_mask("bspline3")
        basis = rf.build_homogeneous_basis(mask, level=4, interval=(-1, 0))
        with pytest.raises(EvaluationError):
            rf.reconstruct_phi(basis)


class TestDependency:
    def test_half_kernel_sequence_annihilates(self):
        mask = make_mask("half")
        kernel = rf.kernel_of_L(mask)
        assert len(kernel.windows) == 1
        report = rf.verify_dependency(mask, kernel.windows[0], level=8)
        assert report.dependent
        assert report.max_residual <= report.tolerance

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
        report = rf.verify_dependency(mask, window, level=8)
        assert report.dependent

    def test_eigen_window_is_not_a_dependency(self):
        mask = make_mask("bspline3")
        spectral = rf.eigen_structure(mask)
        info = next(r for r in spectral.rows if abs(r.eigenvalue - 1) < 1e-9)
        window = rf.extend_vector(spectral.basis[info.index], spectral, info.eigenvalue)
        report = rf.verify_dependency(mask, window, level=6)
        assert not report.dependent
        assert report.max_residual > 1e-2

    def test_empty_interval_raises(self):
        mask = make_mask("half")
        kernel = rf.kernel_of_L(mask)
        with pytest.raises(EvaluationError):
            rf.verify_dependency(mask, kernel.windows[0], interval=(2, 2))


class TestGridOracles:
    """Translate sums and homogeneity samples equal the index gathers bit
    for bit at level 14, where every operand exceeds 16384 values."""

    @pytest.mark.parametrize("name", ORACLE_MASKS)
    @pytest.mark.parametrize("level, interval", [(14, (-1, 1)), (10, (-2, 3))])
    def test_translate_sum_is_the_index_gather(self, name, level, interval, pipeline):
        _, _, phi, basis = pipeline(oracle_mask(name), level, interval)
        for f in basis.functions:
            want = translate_by_index(phi, f.window, *interval)
            np.testing.assert_array_equal(bits(f.values), bits(want), err_msg=f"row {f.row}")

    @pytest.mark.parametrize("name", ORACLE_MASKS)
    def test_accuracy_sum_is_the_index_gather(self, name, pipeline):
        _, spectral, phi, _ = pipeline(oracle_mask(name), 14)
        acc = rf.accuracy(spectral.scale)
        assert acc.order >= 1
        for coeffs in acc.coefficients:
            pk = np.array([np.polynomial.polynomial.polyval(k, coeffs) for k in range(-1, phi.mask.n + 1)])
            got = translate_sum(phi, pk, 0, 1)
            np.testing.assert_array_equal(bits(got), bits(accuracy_sum_by_index(phi, coeffs)))

    @pytest.mark.parametrize("name", ORACLE_MASKS)
    def test_homogeneity_residual_is_the_index_gather(self, name, pipeline):
        _, _, _, basis = pipeline(oracle_mask(name), 14)
        for f in basis.functions:
            got = rf.homogeneity_residual(f)
            assert bits([got]).tolist() == bits([homogeneity_by_index(f)]).tolist(), f.row

    def test_explicit_points_match_the_default_grid(self, pipeline):
        _, _, _, basis = pipeline(oracle_mask("grid_real12"), 14)
        step = 2**basis.level
        for f in basis.functions:
            points = np.arange(-step, step + 1, 2**f.order) / step
            assert rf.homogeneity_residual(f, test_points=points) == rf.homogeneity_residual(f)

    def test_explicit_points_keep_their_errors(self, pipeline):
        _, _, _, basis = pipeline(make_mask("jordan13"), 14)
        f = next(g for g in basis.functions if g.order == 2)
        with pytest.raises(EvaluationError, match="not a level-14 grid point"):
            rf.homogeneity_residual(f, test_points=[0.1])
        with pytest.raises(EvaluationError, match="divisible by 2"):
            rf.homogeneity_residual(f, test_points=[f.step])
        with pytest.raises(EvaluationError, match="left the sampled interval"):
            rf.homogeneity_residual(f, test_points=[1.5])

    def test_translate_sum_rejects_a_wrong_coefficient_count(self, pipeline):
        _, _, phi, _ = pipeline(make_mask("bspline3"))
        with pytest.raises(EvaluationError):
            translate_sum(phi, np.ones(4), -1, 1)
