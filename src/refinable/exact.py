"""Exact linear algebra and polynomial arithmetic over the rationals.

Matrices are lists of rows of :class:`fractions.Fraction`; polynomials are
ascending coefficient lists. The scale matrix of a degree-N mask is
(N+1)x(N+1) with no fixed bound on N, so the spectral steps stay polynomial
in N: the characteristic polynomial is computed over the integers and
rational roots are found from float roots checked by exact evaluation.

The gcd and the root split take and return monic Fractions but clear
each polynomial to a primitive integer one: gcds run the primitive
remainder sequence, the root split's squarefree factors come from Yun's
algorithm, which divides by them with exact integer quotients, a candidate root p/q is tested by the integer
sum of a_i p^i q^(d-i) and divided out by q x - p. Monic factors and
gcds are unique, so the results are the ones Fraction arithmetic gives.

The matrix routines take and return Fractions but do their arithmetic on
Python integers: products clear each operand to one common denominator,
and the RREF eliminates without fractions. The RREF and every product
are unique, so the results are the ones Fraction arithmetic gives; only
the number of gcds taken on the way changes.
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

def _integer_poly(p):
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
    return poly_monic(_gcd(_integer_poly(p), _integer_poly(q)))


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
    """Split a rational polynomial into rational linear factors and leftovers.

    Returns (roots, leftovers): ``roots`` is a list of (Fraction root,
    multiplicity), ascending within each squarefree factor; ``leftovers`` a
    list of (monic rational polynomial, multiplicity), the parts of the
    squarefree factors in which the search found no rational root.

    Each squarefree factor g is an integer polynomial with leading term L
    and constant term a_0. Its candidate roots are the continued-fraction
    convergents with denominator at most |L| of the real parts of the float
    roots of g / L. A candidate p/q is kept only if p divides a_0, q divides
    L and g(p/q) == 0 exactly; it is then divided out as the exact integer
    quotient by q x - p. By Legendre's theorem a root p/q is among the
    candidates whenever its float approximation lies within 1 / (2 q^2) of
    it, and a root that the float guide misses stays inside a leftover.
    """
    roots = []
    leftovers = []
    for g, mult in _squarefree(_integer_poly(p)):
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
        for root in sorted(Fraction(num, den) for num, den in found):
            g = _quotient(g, [-root.numerator, root.denominator])
            roots.append((root, mult))
        if len(g) > 1:
            leftovers.append((poly_monic(g), mult))
    return roots, leftovers
