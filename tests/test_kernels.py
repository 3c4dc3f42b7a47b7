"""Low-level grid kernels: each kernel must match an independent dense sum,
the cascade step must equal its index-gather formulation bit for bit, in
real and in complex arithmetic, the subdivision sweep must equal its double
loop bit for bit, and overflow must be reported through the sentinel return
value.
"""

from __future__ import annotations

import numpy as np
import pytest

import refinable as rf
import refinable.kernels as kernels

from conftest import GRID_MASK_NAMES, bits, dense_subdivision, grid_masks

RNG = np.random.default_rng(424242)


def random_complex(n: int) -> np.ndarray:
    return (RNG.normal(size=n) + 1j * RNG.normal(size=n)).astype(np.complex128)


def subdivision_by_loop(alpha, alpha_lo, coeffs, out_lo, out_len):
    """The subdivision sweep as a double loop over j, then i ascending, the
    formulation the slice kernel replaced; kept as a bitwise oracle."""
    nmask = coeffs.shape[0] - 1
    last = alpha_lo + alpha.shape[0] - 1
    out = np.zeros(out_len, dtype=np.complex128)
    for jj in range(out_len):
        j = out_lo + jj
        imin = max(-((-j) // 2), alpha_lo)
        imax = min((j + nmask) // 2, last)
        acc = 0.0 + 0.0j
        for i in range(imin, imax + 1):
            acc += alpha[i - alpha_lo] * coeffs[2 * i - j]
        out[jj] = acc
    return out


def refine_level_by_index(prev, coeffs, halfstep):
    """The cascade step as a gather through index arrays, the formulation
    the slice kernel replaced; kept as a bitwise oracle."""
    p = prev.shape[0]
    out = np.empty(2 * p - 1, dtype=np.complex128)
    out[0::2] = prev
    tt = np.arange(1, 2 * p - 1, 2)
    acc = np.zeros(tt.shape[0], dtype=np.complex128)
    for k in range(coeffs.shape[0]):
        idx = tt - k * halfstep
        ok = (idx >= 0) & (idx < p)
        acc[ok] += coeffs[k] * prev[idx[ok]]
    out[1::2] = acc
    return out


class TestRefineLevel:
    def test_box_by_hand(self):
        prev = np.array([1.0, 0.0], dtype=np.complex128)
        coeffs = np.array([1.0, 1.0], dtype=np.complex128)
        out = kernels.refine_level(prev, coeffs, 1)
        np.testing.assert_array_equal(out, [1.0, 1.0, 0.0])

    def test_matches_dense_sum(self):
        for nmask in (1, 2, 5, 9):
            coeffs = random_complex(nmask + 1)
            for level in (0, 1, 3):
                halfstep = 2**level
                prev = random_complex(nmask * halfstep + 1)
                got = kernels.refine_level(prev, coeffs, halfstep)
                assert got.shape == (2 * prev.shape[0] - 1,)
                # out[t] = sum_k c_k prev[t - k*h] on odd t, prev read as
                # zero outside its array
                for t in range(1, got.shape[0], 2):
                    want = sum(
                        coeffs[k] * prev[t - k * halfstep]
                        for k in range(nmask + 1)
                        if 0 <= t - k * halfstep < prev.shape[0]
                    )
                    assert abs(got[t] - want) <= 1e-13

    @pytest.mark.parametrize(
        "name, dtype",
        zip(GRID_MASK_NAMES, (np.float64, np.float64, np.complex128)),
        ids=GRID_MASK_NAMES,
    )
    def test_bitwise_equal_to_index_gather_through_level_14(self, name, dtype):
        # real masks run in float64, and every level equals the complex
        # index gather on the same samples bit for bit
        mask = grid_masks()[name]
        samples = rf.integer_samples(mask)
        coeffs = mask.coefficients.real if dtype is np.float64 else mask.coefficients
        got = samples.real.copy() if dtype is np.float64 else samples
        want = got.astype(complex)
        for j in range(14):
            got = kernels.refine_level(got, coeffs, 2**j)
            want = refine_level_by_index(want, mask.coefficients, 2**j)
            assert got.dtype == dtype
            np.testing.assert_array_equal(bits(got), bits(want), err_msg=f"level {j + 1}")
        assert got.shape[0] == 12 * 2**14 + 1
        phi = rf.evaluate_phi(mask, 14)
        assert phi.values.dtype == dtype
        np.testing.assert_array_equal(bits(phi.values), bits(got))

    def test_even_indices_copy_previous_level(self):
        coeffs = random_complex(4)
        prev = random_complex(3 * 4 + 1)
        out = kernels.refine_level(prev, coeffs, 4)
        np.testing.assert_array_equal(out[0::2], prev)


class TestSubdivisionWindow:
    def test_matches_dense_sum_beyond_the_support(self):
        for nmask in (1, 3, 6):
            coeffs = random_complex(nmask + 1)
            alpha = random_complex(7)
            alpha_lo = -3
            # deliberately wider than the support of the result
            out_lo = 2 * alpha_lo - nmask - 3
            out_len = (2 * (alpha_lo + 7) - 1 + nmask + 6) - out_lo
            got = kernels.subdivision_window(
                alpha, alpha_lo, coeffs, out_lo, out_len
            )
            want = dense_subdivision(alpha, alpha_lo, coeffs, out_lo, out_len)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("imag_coeffs", [False, True])
    @pytest.mark.parametrize("imag_alpha", [False, True])
    def test_bitwise_equal_to_the_double_loop(self, imag_coeffs, imag_alpha):
        for nmask in (1, 2, 5, 12):
            coeffs = random_complex(nmask + 1)
            alpha = random_complex(9)
            if not imag_coeffs:
                coeffs = coeffs.real.astype(complex)
            if not imag_alpha:
                alpha = alpha.real.astype(complex)
            for alpha_lo in (-4, 0, 3):
                # windows inside, across and beyond the support
                for out_lo in range(2 * alpha_lo - nmask - 3, 2 * alpha_lo + 4):
                    for out_len in (0, 1, 6, 2 * 9 + nmask + 6):
                        got = kernels.subdivision_window(alpha, alpha_lo, coeffs, out_lo, out_len)
                        want = subdivision_by_loop(alpha, alpha_lo, coeffs, out_lo, out_len)
                        np.testing.assert_array_equal(
                            bits(got), bits(want), err_msg=f"N={nmask} lo={alpha_lo} {out_lo}+{out_len}"
                        )


class TestExtendKernels:
    COEFFS = np.array([0.5, 0.5, 0.5, 0.5], dtype=np.complex128)

    def run_forward(self, lam):
        lo, hi = 0, 40
        values = np.zeros(hi - lo, dtype=np.complex128)
        values[0:4] = [0.0, 1.0, 1.0, 0.0]
        stop = kernels.extend_forward(
            values,
            lo,
            4,
            hi,
            self.COEFFS,
            lam,
            np.zeros(0, dtype=np.complex128),
            0,
            kernels.OVERFLOW_LIMIT,
        )
        return values, stop

    def test_forward_satisfies_the_recurrence(self):
        lam = 0.5 + 0.0j
        values, stop = self.run_forward(lam)
        assert stop == 40
        # lambda Y_n = (Y L)_n for every filled n, with (Y L) the dense
        # subdivision sum over the whole window
        image = dense_subdivision(values, 0, self.COEFFS, 4, 36)
        np.testing.assert_allclose(lam * values[4:40], image, rtol=1e-12, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_forward_overflow_sentinel(self):
        values, stop = self.run_forward(1e-300 + 0.0j)
        assert stop < 40
        # the reported index is the first overflowing entry
        assert abs(values[stop]) > kernels.OVERFLOW_LIMIT

    def test_backward_overflow_sentinel(self):
        coeffs = np.array([1e-30, 1.0, 1.0, 1.0], dtype=np.complex128)
        lo = -2000
        values = np.zeros(4 - lo, dtype=np.complex128)
        values[-4:] = [1.0, 0.0, 0.0, 0.0]  # e_0 as a window on [0, 3]
        first = kernels.extend_backward(
            values,
            lo,
            lo,
            0,
            coeffs,
            1e-30 + 0.0j,
            np.zeros(0, dtype=np.complex128),
            0,
            kernels.OVERFLOW_LIMIT,
        )
        assert lo - 1 < first < 0
        assert abs(values[first - lo]) > kernels.OVERFLOW_LIMIT

    def test_backward_completes_without_overflow(self):
        coeffs = np.array([0.25, 0.75, 0.75, 0.25], dtype=np.complex128)
        lo = -50
        values = np.zeros(4 - lo, dtype=np.complex128)
        values[-4:] = [1.0, 0.0, 0.0, 0.0]
        first = kernels.extend_backward(
            values,
            lo,
            lo,
            0,
            coeffs,
            0.25 + 0.0j,
            np.zeros(0, dtype=np.complex128),
            0,
            kernels.OVERFLOW_LIMIT,
        )
        assert first == lo - 1
