"""Grid kernels: the cascade refinement step, the two-sided eigen-extension
recurrences and the subdivision operator, in numpy and plain Python.

The cascade step adds, for each mask coefficient in turn, the coefficient
times one stride-2 slice of the coarse grid. That is the arithmetic of the
dense sum, element by element and in the same order, without building
index arrays. It computes in the dtype of its input: ``float64`` for a real
mask and real samples, ``complex128`` otherwise. The bits are the same
either way: a complex product in which one factor has an imaginary part of
exactly zero rounds each part once, to the value of the real product, and
every accumulator starts at +0, so the signs of zero wash out.

The subdivision sweep works on slices too, one per mask coefficient. A
complex coefficient is multiplied in as four real products, the formula
of numpy's scalar complex product, because numpy's vector loop for
complex arrays may fuse a multiply and an add into one rounding.
"""

from __future__ import annotations

import numpy as np

OVERFLOW_LIMIT = 1e300

# There is no compiled backend; the constant stays for callers that record it.
USING_NUMBA = False


def refine_level(prev, coeffs, halfstep):
    """One cascade step: grid values at level j -> level j+1 on [0, N].

    ``prev`` holds N*2^j + 1 values; ``halfstep`` is 2^j. Even output indices
    copy the coarse grid; odd indices t get sum_k c_k * prev[t - k*2^j],
    accumulated in ascending k. Odd output m reads prev[2m + 1 - k*2^j], so
    each k adds c_k times one slice of the even- or odd-indexed half of
    ``prev``. The output has the dtype of ``prev``; real samples need real
    ``coeffs``.
    """
    p = prev.shape[0]
    out = np.empty(2 * p - 1, dtype=prev.dtype)
    out[0::2] = prev
    # Views need no copy: c_k is a numpy scalar, and numpy multiplies a
    # numpy scalar into a strided view exactly as into a gathered copy.
    halves = (prev[0::2], prev[1::2])
    acc = np.zeros(p - 1, dtype=prev.dtype)
    for k in range(coeffs.shape[0]):
        s = 1 - k * halfstep  # odd output m reads prev[2m + s]
        half, off = halves[s & 1], s >> 1
        a, b = max(0, -off), min(p - 1, half.shape[0] - off)
        if a < b:
            acc[a:b] += coeffs[k] * half[a + off : b + off]
    out[1::2] = acc
    return out


def _extend(values, lo, indices, coeffs, lam, prev_vals, prev_lo, limit):
    """Fill values[n-lo] for n in ``indices``, in that order, by
    Y_n = (sum_{i in [ceil(n/2), (n+N)//2]} Y_i c_{2i-n} - Y_prev_n) / lambda.
    Returns the first n whose value exceeds ``limit``, or None."""
    nmask = coeffs.shape[0] - 1
    has_prev = prev_vals.shape[0] > 0
    for n in indices:
        acc = 0.0 + 0.0j
        for i in range(-((-n) // 2), (n + nmask) // 2 + 1):
            acc += values[i - lo] * coeffs[2 * i - n]
        if has_prev:
            acc -= prev_vals[n - prev_lo]
        y = acc / lam
        values[n - lo] = y
        if abs(y) > limit:
            return n
    return None


def extend_forward(values, lo, start, stop, coeffs, lam, prev_vals, prev_lo, limit):
    """Fill [start, stop) ascending; for n > N every referenced i is < n.
    Returns the first overflowing index, or ``stop`` when none overflowed."""
    n = _extend(values, lo, range(start, stop), coeffs, lam, prev_vals, prev_lo, limit)
    return stop if n is None else n


def extend_backward(values, lo, start, stop, coeffs, lam, prev_vals, prev_lo, limit):
    """Fill [start, stop) descending; for n <= -1 every referenced i is > n.
    Returns the first overflowing index, or ``start - 1`` when none overflowed."""
    n = _extend(values, lo, range(stop - 1, start - 1, -1), coeffs, lam, prev_vals, prev_lo, limit)
    return start - 1 if n is None else n


def subdivision_window(alpha, alpha_lo, coeffs, out_lo, out_len):
    """out[j - out_lo] = sum_i alpha[i - alpha_lo] * c_{2i - j}, i ascending.

    ``alpha`` is treated as zero outside its array (finitely supported
    sequence). Each k = 2i - j adds c_k times one slice of ``alpha`` into the
    outputs j = 2i - k, a stride-2 slice of the parity of k; ascending k is
    ascending i for every j.
    """
    out = np.zeros(out_len, dtype=np.complex128)
    last = alpha_lo + alpha.shape[0] - 1
    for k in range(coeffs.shape[0]):
        # out index 2i - k - out_lo in [0, out_len), i in [alpha_lo, last]
        ia = max(alpha_lo, -((-(k + out_lo)) // 2))
        ib = min(last, (out_len - 1 + k + out_lo) // 2)
        if ia > ib:
            continue
        dst = slice(2 * ia - k - out_lo, 2 * ib - k - out_lo + 1, 2)
        src = alpha[ia - alpha_lo : ib - alpha_lo + 1]
        c = coeffs[k]
        if c.imag == 0:
            out[dst] += c.real * src
        else:
            re, im = src.real, src.imag
            out.real[dst] += re * c.real - im * c.imag
            out.imag[dst] += re * c.imag + im * c.real
    return out
