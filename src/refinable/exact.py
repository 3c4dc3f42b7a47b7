"""Exact linear algebra and polynomial arithmetic over the rationals.

Matrices are lists of integer rows; a rational matrix is a pair (rows, d)
that stands for rows / d, and ``integer_rows`` clears a Fraction matrix
to that form. Polynomials are ascending coefficient lists. The scale
matrix of a degree-N mask is (N+1)x(N+1) with no fixed bound on N, so the
spectral steps stay polynomial in N: the characteristic polynomial is
computed over the integers and rational roots are found from float roots
checked by exact evaluation.

The matrix routines take and return integers. Products are integer
products, and the RREF eliminates without fractions: each step replaces a
row by an integer combination of two rows divided by its content, so each
of its rows is a positive multiple of the rational RREF row. A kernel
vector is the primitive integer multiple, with the same sign, of the
canonical one read off the RREF; ``solve`` and ``inverse`` return their
rational results over one common denominator. The RREF and every product
are unique, so the values are the ones Fraction arithmetic gives; callers
build Fractions only for what they report.

The root split takes an integer polynomial and the gcd takes and returns
monic Fractions; both work on primitive integer polynomials: gcds run the
primitive remainder sequence, the root split's squarefree factors come
from Yun's algorithm, which divides by them with exact integer quotients,
a candidate root p/q is tested by the integer sum of a_i p^i q^(d-i) and
divided out by q x - p. Monic factors and gcds are unique, so the results
are the ones Fraction arithmetic gives.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from operator import mul

import numpy as np

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# matrices

def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def integer_rows(a):
    """(integer rows, d) with a == rows / d, d the lcm of all denominators."""
    den = lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def mat_mul(a, b):
    """Product of two integer matrices."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def vec_mat(v, a):
    """Integer row vector times integer matrix."""
    return [sum(map(mul, v, col)) for col in zip(*a)]


def _primitive(row):
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g in (0, 1) else [x // g for x in row]


def rref(a):
    """Reduced row echelon form of an integer matrix, up to row scaling;
    returns (rows, pivot_columns).

    The rows are made primitive and every elimination step replaces a row
    by ``p * row - f * pivot_row`` divided by its content, with p the pivot
    and f the row's entry in the pivot column. That is a nonzero multiple
    of the row that Fraction elimination would produce, so the zero
    pattern, and with it the choice of every pivot, is the same. Row r of
    the result is the primitive multiple of rational RREF row r with a
    positive pivot; the rows past the last pivot row are zero.
    """
    if not a:
        return [], []
    m = [_primitive(list(row)) for row in a]
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
    out = [row if row[c] > 0 else [-x for x in row] for row, c in zip(m, pivots)]
    out += [[0] * cols for _ in range(rows - r)]
    return out, pivots


def _pivot_lcm(red, pivots):
    """The lcm of the pivots: a common denominator of the rational RREF."""
    return lcm(*(red[r][c] for r, c in enumerate(pivots)))


def rank(a):
    return len(rref(a)[1])


def nullspace(a):
    """Basis of {x : a x = 0} for an integer matrix: the canonical basis read
    off the RREF free columns (1 in its free column, 0 in the others), each
    vector made a primitive integer row by a positive scale."""
    if not a:
        return []
    cols = len(a[0])
    red, pivots = rref(a)
    den = _pivot_lcm(red, pivots)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [0] * cols
        vec[fc] = den
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc] * (den // red[r][pc])
        basis.append(_primitive(vec))
    return basis


def left_nullspace(a):
    """Basis of integer row vectors v with v a = 0."""
    return nullspace(transpose(a))


def solve(a, b):
    """One exact solution of a x = b (free variables 0) for integer a and b,
    as (integer x, d) standing for x / d, or None if inconsistent."""
    if not a:
        return ([], 1) if all(x == 0 for x in b) else None
    cols = len(a[0])
    red, pivots = rref([row + [bv] for row, bv in zip(a, b)])
    if cols in pivots:
        return None
    den = _pivot_lcm(red, pivots)
    x = [0] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols] * (den // red[r][pc])
    return x, den


def inverse(a):
    """Exact inverse of an integer matrix as (rows, d) standing for rows / d;
    raises ValueError when singular."""
    n = len(a)
    red, pivots = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    den = _pivot_lcm(red, pivots)
    return [[x * (den // row[r]) for x in row[n:]] for r, row in enumerate(red)], den


def charpoly(a, den=1):
    """den^n det(xI - a / den) for an integer n x n matrix a: an integer
    polynomial with leading coefficient den^n, ascending.

    Faddeev-LeVerrier recursion on a: every division by k in it is exact,
    and det(yI - a) = sum_k c_k y^(n-k) gives den^n det(xI - a / den) =
    sum_k c_k den^(n-k) x^(n-k).
    """
    n = len(a)
    coeffs = [0] * (n + 1)
    coeffs[n] = den**n
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*mk))
        bm = [[sum(map(mul, row, col)) for col in cols] for row in a]
        ck = -sum(bm[i][i] for i in range(n)) // k
        coeffs[n - k] = ck * den ** (n - k)
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


def poly_monic(p):
    p = poly_trim(p)
    if not p:
        return []
    inv = ONE / p[-1]
    return [x * inv for x in p]


def poly_eval(p, x):
    """p(x) by Horner, in the arithmetic of the coefficients and of x."""
    out = 0
    for c in reversed(list(p)):
        out = out * x + c
    return out


# Trimmed integer polynomials, each standing for its rational multiples:
# the steps below keep a polynomial only up to a nonzero constant.

def integer_poly(p):
    """The primitive integer polynomial that is a rational multiple of p."""
    return _primitive(integer_rows([poly_trim(p)])[0][0])


def _derivative(p):
    return [i * x for i, x in enumerate(p)][1:]


def _sub(p, q):
    return poly_trim([x - y for x, y in zip_longest(p, q, fillvalue=0)])


def _remainder(a, b):
    """A nonzero integer multiple of the remainder of a by b (b nonzero).

    Each step cancels the top term of r by ``s r - t x^shift b`` with
    s / t = lead(b) / lead(r) in lowest terms, so the multiplier is smaller
    than the lead(b)^(deg a - deg b + 1) of the textbook pseudo-remainder.
    """
    db = len(b) - 1
    lead, low = b[-1], b[:-1]
    r = a
    while len(r) > db:
        f = r[-1]
        g = gcd(lead, f)
        s, t = lead // g, f // g
        shift = len(r) - 1 - db
        r = [s * x for x in r[:-1]] if s != 1 else r[:-1]
        for i, y in enumerate(low, shift):
            r[i] -= t * y
        while r and r[-1] == 0:
            r.pop()
    return r


def _gcd(a, b):
    """Primitive gcd by the primitive remainder sequence; [] for two zeros."""
    while b:
        a, b = b, _primitive(_remainder(a, b))
    return _primitive(a)


def _quotient(a, b):
    """a / b for a primitive b that divides a over the rationals.

    By Gauss's lemma the quotient has integer coefficients, so every
    division by lead(b) is exact.
    """
    db = len(b) - 1
    lead = b[-1]
    a = list(a)
    quot = [0] * (len(a) - db)
    for shift in range(len(a) - 1 - db, -1, -1):
        f = a[shift + db] // lead
        quot[shift] = f
        if f:
            for i, y in enumerate(b, shift):
                a[i] -= f * y
    return quot


def _squarefree(f):
    """Yun's algorithm on a primitive integer polynomial.

    Returns (primitive factor, multiplicity) pairs. ``b`` and ``c`` are
    divided by the same primitive gcds, so ``c - b'`` is a constant
    multiple of the rational one and every quotient is exact.
    """
    if len(f) < 2:
        return []
    df = _derivative(f)
    a = _gcd(f, df)
    b = _quotient(f, a)
    d = _sub(_quotient(df, a), _derivative(b))
    out = []
    i = 1
    while len(b) > 1:
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b = _quotient(b, a)
        d = _sub(_quotient(d, a), _derivative(b))
        i += 1
    return out


def poly_gcd(p, q):
    """Monic gcd; [] when both are zero."""
    return poly_monic(_gcd(integer_poly(p), integer_poly(q)))


def _convergents(num: int, den: int, max_den: int):
    """Continued-fraction convergents (h, k) of num / den with 0 < k <= max_den.

    Every convergent is in lowest terms.
    """
    h0, h1, k0, k1 = 0, 1, 1, 0
    while den:
        a, rem = divmod(num, den)
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        if k1 > max_den:
            return
        yield h1, k1
        num, den = den, rem


def _vanishes_at(g, p, q):
    """Whether g(p / q) == 0, tested as sum g_i p^i q^(d-i) == 0."""
    acc, qk = g[-1], 1
    for c in reversed(g[:-1]):
        qk *= q
        acc = acc * p + c * qk
    return acc == 0


def rational_roots(p):
    """Split a nonzero integer polynomial into rational linear factors and
    leftovers.

    Returns (roots, leftovers): ``roots`` is a list of (Fraction root,
    multiplicity), ascending within each squarefree factor; ``leftovers`` a
    list of (primitive integer polynomial with a positive leading
    coefficient, multiplicity), the parts of
    degree 2 or more of the squarefree factors in which the search found no
    rational root.

    Each squarefree factor g is an integer polynomial with leading term L
    and constant term a_0. Its candidate roots are the continued-fraction
    convergents with denominator at most |L| of the real parts of the float
    roots of g / L. A candidate p/q is kept only if p divides a_0, q divides
    L and g(p/q) == 0 exactly; it is then divided out as the exact integer
    quotient by q x - p. By Legendre's theorem a root p/q is among the
    candidates whenever its float approximation lies within 1 / (2 q^2) of
    it. A root that the float guide misses stays inside a leftover, unless
    the leftover has degree 1: then it is its root -g_0 / g_1.
    """
    roots = []
    leftovers = []
    for g, mult in _squarefree(_primitive(poly_trim(p))):
        while g[0] == 0:
            g = g[1:]
            roots.append((ZERO, mult))
        if len(g) < 2:
            continue
        lead, const = g[-1], g[0]
        try:
            floats = np.roots([x / lead for x in reversed(g)])
        except OverflowError:
            floats = []
        found = set()
        for z in floats:
            if not np.isfinite(z) or z.imag < 0:
                continue
            for num, den in _convergents(*float(z.real).as_integer_ratio(), abs(lead)):
                if (
                    (num, den) not in found
                    and num != 0
                    and const % num == 0
                    and lead % den == 0
                    and _vanishes_at(g, num, den)
                ):
                    found.add((num, den))
        factor_roots = [Fraction(num, den) for num, den in found]
        for root in factor_roots:
            g = _quotient(g, [-root.numerator, root.denominator])
        if len(g) == 2:
            factor_roots.append(Fraction(-g[0], g[1]))
        elif len(g) > 2:
            leftovers.append((g if g[-1] > 0 else [-x for x in g], mult))
        roots += [(root, mult) for root in sorted(factor_roots)]
    return roots, leftovers
