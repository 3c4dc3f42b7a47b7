"""Sequence windows, eigen-extensions and the kernel of L.

The extensions are checked against the dense subdivision oracle, which
materializes the bi-infinite band operator L[i, j] = c_{2i-j} over a
finite index box.
"""

from __future__ import annotations

import concurrent.futures

import numpy as np
import pytest

import refinable as rf
from refinable import kernels
from refinable.errors import ExtensionError, ExtensionOverflowError
from refinable.extension import subdivision_system

from conftest import dense_subdivision, make_mask


class TestSequenceWindow:
    def test_initial_values_and_bounds(self, corpus):
        mask = corpus["bspline3"]
        spectral = rf.eigen_structure(rf.build_scale_matrices(mask))
        v = spectral.basis[1]
        w = rf.eigen_extend(v, None, spectral.scale, spectral.rows[1].eigenvalue)
        assert (w.lo, w.hi) == (0, mask.n + 1)
        assert w.values(1, 2)[0] == v[1]
        np.testing.assert_array_equal(w.values(0, mask.n + 1), v)

    def test_reads_outside_grow_the_window(self, corpus):
        w = rf.kernel_of_L(corpus["half"]).windows[0]
        block = w.values(0, 4)
        assert (w.lo, w.hi) == (0, 4)
        vals = w.values(-3, 7)
        assert (w.lo, w.hi) == (-3, 7)
        np.testing.assert_array_equal(vals[3:7], block)

    def test_values_are_copies(self, corpus):
        w = rf.kernel_of_L(corpus["half"]).windows[0]
        first = w.values(0, 1)[0]
        v = w.values(0, 2)
        v[0] = 99.0
        assert w.values(0, 1)[0] == first != 99.0

    def test_concurrent_growth_is_consistent(self):
        mask = make_mask("bspline3")
        scale = rf.build_scale_matrices(mask)
        spectral = rf.eigen_structure(scale)
        row = spectral.basis[1]  # eigenvalue 1/2 row
        lam = spectral.rows[1].eigenvalue

        w = rf.eigen_extend(row, None, scale, lam)
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(w.values, -5 * i, 5 * i + 4) for i in range(1, 9)]
            results = [f.result() for f in futures]
        reference = rf.eigen_extend(row, None, scale, lam)
        for i, got in enumerate(results, start=1):
            np.testing.assert_allclose(got, reference.values(-5 * i, 5 * i + 4), rtol=1e-12)


class TestEigenExtend:
    def test_round_trip_restriction(self, corpus, pipeline):
        for name in ("bspline3", "d4", "jordan13"):
            mask = corpus[name]
            scale, spectral, _, _ = pipeline(mask)
            for info in spectral.rows:
                lam = info.eigenvalue
                if abs(lam) < 1e-10:
                    continue
                v = spectral.basis[info.index]
                shifted = v @ scale.shifted(lam)
                if np.abs(shifted).max() < 1e-9 * max(1, np.abs(v).max()):
                    prev = None
                else:
                    prev = rf.extend_vector(shifted, scale, lam)
                window = rf.eigen_extend(v, prev, scale, lam)
                np.testing.assert_allclose(
                    window.values(0, mask.n + 1), v, atol=1e-10 * max(1, np.abs(v).max())
                )

    def test_extension_satisfies_the_recurrence_everywhere(self, corpus):
        mask = corpus["bspline3"]
        scale = rf.build_scale_matrices(mask)
        spectral = rf.eigen_structure(scale)
        v = spectral.basis[1]
        lam = spectral.rows[1].eigenvalue  # 1/2
        w = rf.eigen_extend(v, None, scale, lam)
        y = w.values(-30, 34)
        lhs = dense_subdivision(y, -30, mask.coefficients, -20, 41)
        rhs = lam * w.values(-20, 21)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9 * np.abs(y).max())

    def test_rejects_wrong_precondition(self, corpus):
        scale = rf.build_scale_matrices(corpus["bspline3"])
        v = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        with pytest.raises(ExtensionError):
            rf.eigen_extend(v, None, scale, 0.5)

    def test_rejects_zero_eigenvalue(self, corpus):
        scale = rf.build_scale_matrices(corpus["half"])
        with pytest.raises(ExtensionError):
            rf.eigen_extend(np.zeros(4, dtype=complex), None, scale, 0.0)

    def test_polynomial_growth_rate(self, corpus):
        # the eigenvalue-1/2 extension of D4 samples a degree-1 polynomial:
        # doubling the index doubles the value, no geometric blowup
        mask = corpus["d4"]
        scale = rf.build_scale_matrices(mask)
        spectral = rf.eigen_structure(scale)
        idx = next(
            i for i, r in enumerate(spectral.rows) if abs(r.eigenvalue - 0.5) < 1e-8
        )
        v = spectral.basis[idx]
        w = rf.eigen_extend(v, None, scale, 0.5)
        y = w.values(0, 201)
        y100, y200 = abs(y[100] - y[0]), abs(y[200] - y[0])
        assert y200 / y100 == pytest.approx(2.0, rel=1e-6)

    # growth is |n|^(log2(1/|lam|)), so a legitimately tiny corner
    # eigenvalue overflows within ~1e300^(1/100) ~ 1000 indices, on the
    # side of its corner: below the window for c_0, above it for c_N
    @pytest.mark.filterwarnings("ignore::refinable.MaskSumWarning")
    @pytest.mark.parametrize(
        "coefficients, corner, lo, hi, index",
        [
            ([1e-30, 1.0, 1.0, 1.0], 0, -1500, 4, -1025),
            ([1.0, 1.0, 1.0, 1e-30], 3, 0, 1500, 1028),
        ],
        ids=["backward", "forward"],
    )
    def test_overflow_raises_with_index(self, coefficients, corner, lo, hi, index):
        mask = rf.mask_from_coefficients(coefficients, name="adv")
        scale = rf.build_scale_matrices(mask)
        window = rf.eigen_extend(np.eye(4, dtype=complex)[corner], None, scale, 1e-30)
        with pytest.raises(ExtensionOverflowError) as err:
            window.values(lo, hi)
        assert err.value.index == index
        assert (window.lo, window.hi) == (0, 4)  # a failed growth keeps the window

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_sentinel_at_kernel_level(self):
        coeffs = np.array([1.0, 1.0], dtype=complex)
        values = np.zeros(64, dtype=complex)
        values[0], values[1] = 1.0, 1.0
        stop = kernels.extend_forward(
            values, 0, 2, 64, coeffs, 1e-300, np.zeros(0, dtype=complex), 0,
            kernels.OVERFLOW_LIMIT,
        )
        assert stop < 64  # overflowing index reported, no silent inf


# masks with a nontrivial ker L, by the roots of the gcd of their even and
# odd polynomials: (coefficients, gcd degree)
KERNEL_MASKS = {
    "half": (["1/2", "1/2", "1/2", "1/2"], 1),  # simple root -1
    "double": (["1/4", "1/4", "1/2", "1/2", "1/4", "1/4"], 2),  # double root -1
    "double-float": ([0.25, 0.25, 0.5, 0.5, 0.25, 0.25], 2),
    "complex": (["1/3"] * 6, 2),  # the primitive cube roots of unity
    "irrational": ([1, 1, 1, 1, -1, -1], 2),  # (1 +- sqrt 5) / 2
}


class TestKernelOfL:
    @pytest.mark.parametrize(
        "coefficients, gcd",
        [
            (["1/4", "3/4", "3/4", "1/4"], [1]),  # bspline3: coprime halves
            (["1/2", "1/2", "1/2", "1/2"], [1, 1]),  # even = odd = 1/2 + z/2
            ([0.5, 0.5, 0.5, 0.5], [1, 1]),
            ([1, 0, 1], [1, 1]),  # the odd half is zero and constrains nothing
        ],
    )
    def test_subdivision_system_is_the_gcd_of_the_even_and_odd_halves(self, coefficients, gcd):
        mask = rf.mask_from_coefficients(coefficients)
        system = subdivision_system(mask)
        np.testing.assert_array_equal(system.gcd, gcd)
        assert system.exact_gcd == (tuple(gcd) if mask.is_rational else None)

    def test_half_mask_alternating_kernel(self, corpus):
        kernel = rf.kernel_of_L(corpus["half"])
        assert kernel.dimension == 1
        w = kernel.windows[0]
        vals = w.values(-6, 7)
        expected = vals[6] * np.array([(-1.0) ** k for k in range(-6, 7)])
        np.testing.assert_allclose(vals, expected, rtol=1e-9)

    @pytest.mark.parametrize("name", KERNEL_MASKS)
    def test_kernel_sequences_annihilate_under_subdivision(self, name):
        coefficients, degree = KERNEL_MASKS[name]
        mask = rf.mask_from_coefficients(coefficients, name=name)
        kernel = rf.kernel_of_L(mask)
        assert kernel.gcd_degree == kernel.dimension == degree
        # the windows on [0, N] are independent: one per gcd root and index
        windows = np.array([w.values(0, mask.n + 1) for w in kernel.windows])
        assert np.linalg.matrix_rank(windows) == kernel.gcd_degree
        for w in kernel.windows:
            y = w.values(-12, 16)
            out = dense_subdivision(y, -12, mask.coefficients, -8, 17)
            assert np.abs(out).max() < 1e-10 * max(1.0, float(np.abs(y).max()))

    def test_independent_mask_has_trivial_kernel(self, corpus):
        kernel = rf.kernel_of_L(corpus["bspline3"])
        assert kernel.dimension == 0
        assert kernel.windows == ()
