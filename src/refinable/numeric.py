"""Floating-point helpers: rank-revealing factorizations, scalar clustering,
and polynomial utilities on ascending complex coefficient arrays."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

GCD_REL = 1e-8


class SvdRank(NamedTuple):
    """One SVD of a matrix and the rank decision made on its own values."""

    rank: int
    cutoff: float  # max(rel * smax, floor)
    smax: float  # largest singular value, at least 1e-300
    vh: np.ndarray | None  # right factor, rows spanning row space then kernel


def svd_rank(a, rel=1e-10, floor=0.0, *, vectors=True) -> SvdRank:
    """Rank of ``a``: the number of singular values above
    ``max(rel * smax, floor)``, where smax is the largest of them. Every
    float rank decision of the package goes through this one SVD."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if vectors:
        _, s, vh = np.linalg.svd(a)
    else:
        s, vh = np.linalg.svd(a, compute_uv=False), None
    smax = max(s[0] if len(s) else 0.0, 1e-300)
    cutoff = max(rel * smax, floor)
    return SvdRank(int(np.sum(s > cutoff)), cutoff, smax, vh)


def nullspace(a):
    """Orthonormal rows spanning {x : a x = 0}, at ``svd_rank``'s default cutoff."""
    r = svd_rank(a)
    return r.vh[r.rank :].conj()


def orthonormal_rows(rows, rel=1e-12):
    """Orthonormal spanning set for the row span of the stacked vectors.

    Rows of A = U S V^H lie in the span of the leading rows of V^H (no
    conjugation: a_i = sum_k U_ik s_k (V^H)_k).
    """
    r = svd_rank(rows, rel)
    return r.vh[: r.rank]


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


def cluster_tolerance(values, rtol) -> float:
    """The absolute distance at which ``clusters`` chains two values:
    ``rtol`` times the largest magnitude, at least 1."""
    return rtol * max(1.0, float(np.abs(values).max(initial=0.0)))


def clusters(values, rtol):
    """(center, multiplicity, spread) of each cluster of eigenvalues or
    roots, at ``cluster_tolerance(values, rtol)``; centers are the cluster
    means."""
    values = np.asarray(values, dtype=complex)
    tol = cluster_tolerance(values, rtol)
    out = []
    for idxs in cluster_scalars(values, tol):
        if len(idxs) == 1:
            # the mean of one value as ``mean`` makes it, a sum from +0
            # divided by the count, so that the signs of zeros match
            value = values[idxs[0]]
            center = complex((value + 0.0) / 1)
            out.append((center, 1, abs(complex(value) - center)))
        else:
            members = values[idxs]
            center = complex(members.mean())
            out.append((center, len(idxs), float(np.abs(members - center).max(initial=0.0))))
    return out


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


def float_poly_gcd(a, b):
    """Approximate monic gcd: Sylvester-rank degree decision, cofactor solve.

    The gcd degree is the rank deficiency of the Sylvester matrix at the
    ``GCD_REL * ||S||`` threshold; the cofactors come from its null vector
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
    ell = m + n - svd_rank(sylvester(a, b), GCD_REL, vectors=False).rank
    if ell == 0:
        return np.ones(1, dtype=complex)
    if ell == min(m, n) and m == n:
        # quick exit: proportional polynomials
        ratio = a[-1] / b[-1]
        if np.abs(a - ratio * b).max() <= GCD_REL * np.abs(a).max():
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
