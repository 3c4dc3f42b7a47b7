"""Exact linear algebra and polynomial arithmetic over the rationals.

Matrices are lists of rows of :class:`fractions.Fraction`; polynomials are
ascending coefficient lists. The scale matrix of a degree-N mask is
(N+1)x(N+1) with no fixed bound on N, so the spectral steps stay polynomial
in N: the characteristic polynomial is computed over the integers and
rational roots are found from float roots checked by exact evaluation.

The matrix routines take and return Fractions but do their arithmetic on
Python integers: products clear each operand to one common denominator,
and the RREF and the determinant eliminate without fractions. The RREF
and every product are unique, so the results are the ones Fraction
arithmetic gives; only the number of gcds taken on the way changes.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul

import numpy as np

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, and 'p/q' strings; floats are taken bit-exactly."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not valid rational scalars")
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational scalar")


# ---------------------------------------------------------------------------
# matrices

def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def zeros(rows, cols):
    return [[ZERO] * cols for _ in range(rows)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def integer_rows(a):
    """(integer rows, d) with a == rows / d, d the lcm of all denominators."""
    den = lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def mat_mul(a, b):
    ai, da = integer_rows(a)
    bt, db = integer_rows(transpose(b))
    den = da * db
    return [[Fraction(sum(map(mul, row, col)), den) for col in bt] for row in ai]


def vec_mat(v, a):
    """Row vector times matrix."""
    if not a:
        return []
    (vi,), dv = integer_rows([v])
    at, da = integer_rows(transpose(a))
    den = dv * da
    return [Fraction(sum(map(mul, vi, col)), den) for col in at]


def _primitive(row):
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g in (0, 1) else [x // g for x in row]


def rref(a):
    """Reduced row echelon form; returns (rows, pivot_columns).

    The rows are cleared to integers and every elimination step replaces a
    row by ``p * row - f * pivot_row`` divided by its content, with p the
    pivot and f the row's entry in the pivot column. That is a nonzero
    multiple of the row that Fraction elimination would produce, so the
    zero pattern, and with it the choice of every pivot, is the same; the
    pivot rows are divided by their pivots once at the end.
    """
    if not a:
        return [], []
    m = [_primitive(row) for row in integer_rows(a)[0]]
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(rows):
            f = m[i][c]
            if i != r and f != 0:
                m[i] = _primitive([p * x - f * y for x, y in zip(m[i], prow)])
        pivots.append(c)
        r += 1
        if r == rows:
            break
    out = [
        [Fraction(x, m[i][c]) if x else ZERO for x in m[i]] for i, c in enumerate(pivots)
    ]
    out += [[ZERO] * cols for _ in range(rows - r)]
    return out, pivots


def rank(a):
    return len(rref(a)[1])


def nullspace(a):
    """Canonical basis of {x : a x = 0} read off the RREF free columns."""
    if not a:
        return []
    cols = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ZERO] * cols
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def left_nullspace(a):
    """Basis of row vectors v with v a = 0."""
    return nullspace(transpose(a))


def solve(a, b):
    """One exact solution of a x = b (free variables 0), or None if inconsistent."""
    if not a:
        return [] if all(x == 0 for x in b) else None
    cols = len(a[0])
    aug = [row[:] + [bv] for row, bv in zip(a, b)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def det(a):
    """Exact determinant by Bareiss elimination over the integers.

    With a == m / den for an integer matrix m, det(a) == det(m) / den^n;
    every division of the Bareiss recursion on m is exact.
    """
    n = len(a)
    if n == 0:
        return ONE
    m, den = integer_rows(a)
    sign = 1
    prev = 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        p = m[k][k]
        for i in range(k + 1, n):
            f = m[i][k]
            m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], m[k])]
        prev = p
    return Fraction(sign * m[n - 1][n - 1], den**n)


def inverse(a):
    """Exact inverse; raises ValueError when singular."""
    n = len(a)
    aug = [row[:] + ident_row[:] for row, ident_row in zip(a, identity(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def charpoly(a):
    """Monic characteristic polynomial det(xI - A), ascending coefficients.

    Faddeev-LeVerrier recursion on the integer matrix B = L A, where L is the
    common denominator of the entries of A. Every division by k in the
    recursion over B is exact, and det(xI - A) has coefficient c_k(B) / L^k
    at x^(n-k).
    """
    n = len(a)
    b, den = integer_rows(a)
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    scale = 1
    for k in range(1, n + 1):
        cols = list(zip(*mk))
        bm = [[sum(map(mul, row, col)) for col in cols] for row in b]
        ck = -sum(bm[i][i] for i in range(n)) // k
        scale *= den
        coeffs[n - k] = Fraction(ck, scale)
        for i in range(n):
            bm[i][i] += ck
        mk = bm
    return coeffs


# ---------------------------------------------------------------------------
# polynomials (ascending coefficient lists)

def poly_trim(p):
    q = list(p)
    while q and q[-1] == 0:
        q.pop()
    return q


def poly_degree(p):
    q = poly_trim(p)
    return len(q) - 1


def poly_sub(p, q):
    n = max(len(p), len(q))
    return poly_trim([(p[i] if i < len(p) else ZERO) - (q[i] if i < len(q) else ZERO) for i in range(n)])


def poly_divmod(p, q):
    p, q = poly_trim(p), poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [ZERO] * max(len(p) - len(q) + 1, 1)
    rem = list(p)
    dq = len(q) - 1
    lead = q[-1]
    while len(rem) - 1 >= dq and rem:
        shift = len(rem) - 1 - dq
        f = rem[-1] / lead
        quot[shift] = f
        for i, y in enumerate(q):
            rem[shift + i] -= f * y
        rem = poly_trim(rem)
        if not rem:
            break
    return poly_trim(quot), poly_trim(rem)


def poly_monic(p):
    p = poly_trim(p)
    if not p:
        return []
    inv = ONE / p[-1]
    return [x * inv for x in p]


def poly_gcd(p, q):
    """Monic gcd by the Euclidean algorithm."""
    p, q = poly_trim(p), poly_trim(q)
    while q:
        _, r = poly_divmod(p, q)
        p, q = q, r
    if not p:
        return []
    return poly_monic(p)


def poly_derivative(p):
    return poly_trim([i * x for i, x in enumerate(p)][1:])


def poly_eval(p, x):
    """p(x) by Horner, in the arithmetic of the coefficients and of x."""
    out = 0
    for c in reversed(list(p)):
        out = out * x + c
    return out


def squarefree_factors(p):
    """Yun's algorithm: list of (factor, multiplicity), factors monic."""
    p = poly_monic(p)
    if poly_degree(p) < 1:
        return []
    dp = poly_derivative(p)
    a = poly_gcd(p, dp)
    b, _ = poly_divmod(p, a)
    c, _ = poly_divmod(dp, a)
    d = poly_sub(c, poly_derivative(b))
    out = []
    i = 1
    while poly_degree(b) >= 1:
        a = poly_gcd(b, d)
        if poly_degree(a) >= 1:
            out.append((poly_monic(a), i))
        b, _ = poly_divmod(b, a)
        c, _ = poly_divmod(d, a)
        d = poly_sub(c, poly_derivative(b))
        i += 1
    return out


def _convergents(x: Fraction, max_den: int):
    """Continued-fraction convergents of x with denominator at most max_den."""
    num, den = x.numerator, x.denominator
    h0, h1, k0, k1 = 0, 1, 1, 0
    while den:
        a, rem = divmod(num, den)
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        if k1 > max_den:
            return
        yield Fraction(h1, k1)
        num, den = den, rem


def _float_guided_roots(g):
    """Ascending rational roots of a monic squarefree g with g(0) != 0.

    With g cleared to integers (leading term L, constant term a_0), the
    candidates are the continued-fraction convergents with denominator at
    most L of the real parts of the float roots. A candidate p/q is kept
    only if p divides a_0, q divides L and g(p/q) == 0 exactly. By Legendre's
    theorem a root p/q is among the candidates whenever its float
    approximation lies within 1 / (2 q^2) of it.
    """
    lead = lcm(*(c.denominator for c in g))
    const = int(g[0] * lead)
    try:
        floats = np.roots([float(c) for c in reversed(g)])
    except OverflowError:
        return []
    found = set()
    for z in floats:
        if not np.isfinite(z) or z.imag < 0:
            continue
        for cand in _convergents(Fraction(float(z.real)), lead):
            if (
                cand not in found
                and cand != 0
                and const % cand.numerator == 0
                and lead % cand.denominator == 0
                and poly_eval(g, cand) == 0
            ):
                found.add(cand)
    return sorted(found)


def rational_roots(p):
    """Split a rational polynomial into rational linear factors and leftovers.

    Returns (roots, leftovers): ``roots`` is a list of (Fraction root,
    multiplicity), ascending within each squarefree factor; ``leftovers`` a
    list of (monic rational polynomial, multiplicity). Every reported root is
    checked by exact evaluation, so the split is exact; a rational root that
    the float guide misses stays inside a leftover factor.
    """
    roots = []
    leftovers = []
    for factor, mult in squarefree_factors(p):
        g = list(factor)
        while g and g[0] == 0:
            g = g[1:]
            roots.append((ZERO, mult))
        if poly_degree(g) < 1:
            continue
        for cand in _float_guided_roots(g):
            g, rem = poly_divmod(g, [-cand, ONE])
            assert not rem
            roots.append((cand, mult))
        if poly_degree(g) >= 1:
            leftovers.append((poly_monic(g), mult))
    return roots, leftovers


def superfactorial(m):
    """Product 1! 2! ... m! (empty product for m <= 0)."""
    out = 1
    for t in range(1, m + 1):
        out *= factorial(t)
    return out
