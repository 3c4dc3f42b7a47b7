"""Floating-point helpers: rank-revealing factorizations, scalar clustering,
and polynomial utilities on ascending complex coefficient arrays."""

from __future__ import annotations

import numpy as np


def default_cutoff(a, rel=1e-10):
    """Absolute singular-value cutoff ``rel * sigma_max`` (with a tiny floor)."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if a.size == 0:
        return rel
    smax = np.linalg.norm(a, 2)
    return rel * max(smax, 1e-300)


def singular_values(a):
    """Singular values of ``a`` as the complex matrix that ``default_cutoff``
    and ``numerical_rank`` factor; one SVD serves both (its largest value is
    ``norm(a, 2)``)."""
    return np.linalg.svd(np.atleast_2d(np.asarray(a, dtype=complex)), compute_uv=False)


def numerical_rank(a, cutoff):
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > cutoff))


def nullspace(a, cutoff):
    """Rows spanning {x : a x = 0} (orthonormal, from the SVD)."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if a.size == 0:
        n = a.shape[1]
        return np.eye(n, dtype=complex)
    _, s, vt = np.linalg.svd(a)
    r = int(np.sum(s > cutoff))
    return vt[r:].conj()


def left_nullspace(a, cutoff):
    """Rows v with v a = 0."""
    return nullspace(np.asarray(a, dtype=complex).T, cutoff)


def orthonormal_rows(rows, cutoff=1e-12):
    """Orthonormal spanning set for the row span of the stacked vectors.

    Rows of A = U S V^H lie in the span of the leading rows of V^H (no
    conjugation: a_i = sum_k U_ik s_k (V^H)_k).
    """
    m = np.atleast_2d(np.asarray(rows, dtype=complex))
    if m.size == 0:
        return m.reshape(0, m.shape[1] if m.ndim == 2 else 0)
    _, s, vt = np.linalg.svd(m)
    r = int(np.sum(s > cutoff * max(s[0] if len(s) else 1.0, 1e-300)))
    return vt[:r]


def cluster_scalars(values, tol):
    """Group indices of values whose chained pairwise distance is below tol."""
    values = np.asarray(values, dtype=complex)
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


# ---------------------------------------------------------------------------
# polynomials: ascending complex coefficient arrays

def poly_trim(p, tol=0.0):
    p = np.asarray(p, dtype=complex)
    scale = np.abs(p).max() if p.size else 0.0
    cut = tol * scale
    n = len(p)
    while n > 0 and abs(p[n - 1]) <= cut:
        n -= 1
    return p[:n].copy()


def poly_monic(p):
    p = poly_trim(p)
    if p.size == 0:
        return p
    return p / p[-1]


def poly_roots(p):
    p = poly_trim(p)
    if len(p) <= 1:
        return np.zeros(0, dtype=complex)
    return np.roots(p[::-1])


def roots_with_multiplicity(p, rtol=1e-7):
    """Roots of p clustered into (root, multiplicity) pairs.

    Cluster tolerance is relative to the largest root magnitude (with a floor
    of 1), per the companion-matrix + clustering design.
    """
    rts = poly_roots(p)
    if len(rts) == 0:
        return []
    scale = max(np.abs(rts).max(), 1.0)
    out = []
    for idx in cluster_scalars(rts, rtol * scale):
        center = rts[idx].mean()
        out.append((complex(center), len(idx)))
    out.sort(key=lambda rm: (-abs(rm[0]), np.angle(rm[0]).round(12)))
    return out


def sylvester(a, b):
    """Sylvester matrix of two trimmed polynomials (degrees >= 1)."""
    a, b = poly_trim(a), poly_trim(b)
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    s = np.zeros((size, size), dtype=complex)
    ad, bd = a[::-1], b[::-1]
    for i in range(n):
        s[i, i : i + m + 1] = ad
    for i in range(m):
        s[n + i, i : i + n + 1] = bd
    return s


def float_poly_gcd(a, b, rel_cutoff=1e-8):
    """Approximate monic gcd: Sylvester-rank degree decision, cofactor solve.

    The gcd degree is the rank deficiency of the Sylvester matrix at the
    ``rel_cutoff * ||S||`` threshold; the cofactors come from its null vector
    and the gcd itself from a least-squares deconvolution.
    """
    a, b = poly_trim(a, 1e-14), poly_trim(b, 1e-14)
    if a.size == 0 and b.size == 0:
        raise ValueError("gcd of two zero polynomials")
    if a.size == 0:
        return poly_monic(b)
    if b.size == 0:
        return poly_monic(a)
    m, n = len(a) - 1, len(b) - 1
    if m == 0 or n == 0:
        return np.ones(1, dtype=complex)
    s = sylvester(a, b)
    smax = np.linalg.norm(s, 2)
    srank = numerical_rank(s, rel_cutoff * max(smax, 1e-300))
    ell = m + n - srank
    if ell == 0:
        return np.ones(1, dtype=complex)
    if ell == min(m, n) and m == n:
        # quick exit: proportional polynomials
        ratio = a[-1] / b[-1]
        if np.abs(a - ratio * b).max() <= rel_cutoff * np.abs(a).max():
            return poly_monic(a)
    # cofactors p (deg m-ell), q (deg n-ell) with a*q - b*p = 0
    rows = m + n - ell + 1
    cols_p, cols_q = m - ell + 1, n - ell + 1
    k = np.zeros((rows, cols_p + cols_q), dtype=complex)
    for j in range(cols_q):
        k[j : j + m + 1, cols_p + j] += a
    for j in range(cols_p):
        k[j : j + n + 1, j] -= b
    _, _, vt = np.linalg.svd(k)
    null = vt[-1].conj()
    p_cof = null[:cols_p]
    # g from least-squares division a = g * p_cof
    conv = np.zeros((m + 1, ell + 1), dtype=complex)
    for j in range(ell + 1):
        conv[j : j + cols_p, j] = p_cof
    g, *_ = np.linalg.lstsq(conv, a, rcond=None)
    return poly_monic(g)
