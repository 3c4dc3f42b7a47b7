"""Low-level grid kernels: the compiled and plain-numpy variants must agree,
overflow must be reported through the sentinel return value, and the
environment flag must force the fallback implementations.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

import refinable.kernels as kernels

from conftest import subprocess_env

RNG = np.random.default_rng(424242)


def random_complex(n: int) -> np.ndarray:
    return (RNG.normal(size=n) + 1j * RNG.normal(size=n)).astype(np.complex128)


class TestRefineLevel:
    def test_box_by_hand(self):
        prev = np.array([1.0, 0.0], dtype=np.complex128)
        coeffs = np.array([1.0, 1.0], dtype=np.complex128)
        out = kernels.refine_level(prev, coeffs, 1)
        np.testing.assert_array_equal(out, [1.0, 1.0, 0.0])

    def test_variants_agree(self):
        for nmask in (1, 2, 5, 9):
            coeffs = random_complex(nmask + 1)
            for level in (0, 1, 3):
                halfstep = 2**level
                prev = random_complex(nmask * halfstep + 1)
                a = kernels.refine_level(prev, coeffs, halfstep)
                b = kernels.refine_level_numpy(prev, coeffs, halfstep)
                assert a.shape == b.shape == (2 * prev.shape[0] - 1,)
                np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-14)

    def test_even_indices_copy_previous_level(self):
        coeffs = random_complex(4)
        prev = random_complex(3 * 4 + 1)
        out = kernels.refine_level(prev, coeffs, 4)
        np.testing.assert_array_equal(out[0::2], prev)


class TestSubdivisionWindow:
    def dense(self, alpha, alpha_lo, coeffs, out_lo, out_len):
        nmask = len(coeffs) - 1
        out = np.zeros(out_len, dtype=complex)
        for jj in range(out_len):
            j = out_lo + jj
            for i in range(alpha_lo, alpha_lo + len(alpha)):
                k = 2 * i - j
                if 0 <= k <= nmask:
                    out[jj] += alpha[i - alpha_lo] * coeffs[k]
        return out

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
            want = self.dense(alpha, alpha_lo, coeffs, out_lo, out_len)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)

    def test_variants_agree(self):
        coeffs = random_complex(5)
        alpha = random_complex(9)
        a = kernels.subdivision_window(alpha, -4, coeffs, -12, 30)
        b = kernels.subdivision_numpy(alpha, -4, coeffs, -12, 30)
        np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-14)


class TestExtendKernels:
    def run_forward(self, impl, lam):
        coeffs = np.array([0.5, 0.5, 0.5, 0.5], dtype=np.complex128)
        lo, hi = 0, 40
        values = np.zeros(hi - lo, dtype=np.complex128)
        values[0:4] = [0.0, 1.0, 1.0, 0.0]
        stop = impl(
            values,
            lo,
            4,
            hi,
            coeffs,
            lam,
            np.zeros(0, dtype=np.complex128),
            0,
            kernels.OVERFLOW_LIMIT,
        )
        return values, stop

    def test_variants_agree(self):
        a, stop_a = self.run_forward(kernels.extend_forward, 0.5 + 0.0j)
        b, stop_b = self.run_forward(kernels.extend_forward_numpy, 0.5 + 0.0j)
        assert stop_a == stop_b == 40
        np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-300)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_forward_overflow_sentinel(self):
        values, stop = self.run_forward(kernels.extend_forward, 1e-300 + 0.0j)
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


class TestDispatch:
    def test_flags_are_consistent(self):
        assert kernels.USING_NUMBA == kernels.HAVE_NUMBA
        if kernels.HAVE_NUMBA:
            assert kernels.refine_level is not kernels.refine_level_numpy
        else:
            assert kernels.refine_level is kernels.refine_level_numpy

    def test_environment_flag_forces_fallback(self):
        code = (
            "import refinable.kernels as k, json, numpy as np\n"
            "prev = np.array([1.0, 0.0], dtype=np.complex128)\n"
            "coeffs = np.array([1.0, 1.0], dtype=np.complex128)\n"
            "out = k.refine_level(prev, coeffs, 1)\n"
            "print(json.dumps({'using': k.USING_NUMBA,"
            " 'same': bool(k.refine_level is k.refine_level_numpy),"
            " 'out': [abs(v) for v in out]}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=subprocess_env(REFINABLE_NO_NUMBA="1"),
            check=True,
        )
        got = json.loads(proc.stdout)
        assert got["using"] is False
        assert got["same"] is True
        assert got["out"] == [1.0, 1.0, 0.0]
