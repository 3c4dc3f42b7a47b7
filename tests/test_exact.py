"""Exact rational linear algebra, cross-checked against numpy oracles."""

from __future__ import annotations

import time
from fractions import Fraction
from math import comb, gcd, isqrt, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refinable as rf
import refinable.exact as xq

from conftest import exact_scale_matrix

RNG = np.random.default_rng(987654321)


# Fraction helpers that only the tests need, kept here as oracles.

def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s):
    return [[s * x for x in row] for row in a]


def poly_is_zero(p):
    return not xq.poly_trim(p)


def poly_add(p, q):
    n = max(len(p), len(q))
    zero = Fraction(0)
    return xq.poly_trim([(p[i] if i < len(p) else zero) + (q[i] if i < len(q) else zero) for i in range(n)])


def poly_mul(p, q):
    p, q = xq.poly_trim(p), xq.poly_trim(q)
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x == 0:
            continue
        for j, y in enumerate(q):
            out[i + j] += x * y
    return xq.poly_trim(out)


# The Fraction versions of the arithmetic that ``exact`` now does on
# integers, kept as oracles: the results must be equal Fractions.

def mat_mul_fraction(a, b):
    bt = xq.transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def vec_mat_fraction(v, a):
    if not a:
        return []
    cols = len(a[0])
    return [sum(v[i] * a[i][j] for i in range(len(a))) for j in range(cols)]


def rref_fraction(a):
    m = [row[:] for row in a]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def nullspace_fraction(a):
    """The canonical kernel basis read off the Fraction RREF: 1 in its
    free column, 0 in the other free columns."""
    cols = len(a[0])
    red, pivots = rref_fraction(a)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def random_matrix(rows, cols, den=8, lo=-6, hi=6):
    return [
        [Fraction(int(RNG.integers(lo, hi + 1)), int(RNG.integers(1, den))) for _ in range(cols)]
        for _ in range(rows)
    ]


def to_float(rows):
    return np.array([[float(q) for q in row] for row in rows])


def leverrier_fraction(a):
    """Reference charpoly: Faddeev-LeVerrier directly over the Fractions."""
    n = len(a)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = identity(n)
    for k in range(1, n + 1):
        am = mat_mul_fraction(a, mk)
        ck = -trace(am) / k
        coeffs[n - k] = ck
        mk = [[am[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


# The Fraction Euclid, Yun and root split that ``exact`` now runs on
# primitive integer polynomials, kept as oracles: the results must be equal.

def poly_sub(p, q):
    n = max(len(p), len(q))
    zero = Fraction(0)
    return xq.poly_trim([(p[i] if i < len(p) else zero) - (q[i] if i < len(q) else zero) for i in range(n)])


def poly_derivative(p):
    return xq.poly_trim([i * x for i, x in enumerate(p)][1:])


def poly_divmod(p, q):
    p, q = xq.poly_trim(p), xq.poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 1)
    rem = list(p)
    dq = len(q) - 1
    while len(rem) - 1 >= dq and rem:
        shift = len(rem) - 1 - dq
        f = rem[-1] / q[-1]
        quot[shift] = f
        for i, y in enumerate(q):
            rem[shift + i] -= f * y
        rem = xq.poly_trim(rem)
    return xq.poly_trim(quot), rem


def poly_gcd_fraction(p, q):
    """Monic gcd by the Euclidean algorithm over the Fractions."""
    p, q = xq.poly_trim(p), xq.poly_trim(q)
    while q:
        p, q = q, poly_divmod(p, q)[1]
    return xq.poly_monic(p)


def squarefree_factors_fraction(p):
    """Yun's algorithm over the Fractions."""
    p = xq.poly_monic(p)
    if xq.poly_degree(p) < 1:
        return []
    dp = poly_derivative(p)
    a = poly_gcd_fraction(p, dp)
    b, c = poly_divmod(p, a)[0], poly_divmod(dp, a)[0]
    d = poly_sub(c, poly_derivative(b))
    out = []
    i = 1
    while xq.poly_degree(b) >= 1:
        a = poly_gcd_fraction(b, d)
        if xq.poly_degree(a) >= 1:
            out.append((a, i))
        b, c = poly_divmod(b, a)[0], poly_divmod(d, a)[0]
        d = poly_sub(c, poly_derivative(b))
        i += 1
    return out


def rational_roots_fraction(p):
    """The float-guided split over the Fractions: the convergents of the
    float roots of each monic squarefree factor, the divisor filters, and
    Fraction evaluation and division."""
    roots, leftovers = [], []
    for g, mult in squarefree_factors_fraction(p):
        while g and g[0] == 0:
            g = g[1:]
            roots.append((Fraction(0), mult))
        if xq.poly_degree(g) < 1:
            continue
        lead = lcm(*(c.denominator for c in g))
        const = int(g[0] * lead)
        try:
            floats = np.roots([float(c) for c in reversed(g)])
        except OverflowError:
            floats = []
        found = set()
        for z in floats:
            if not np.isfinite(z) or z.imag < 0:
                continue
            num, den = float(z.real).as_integer_ratio()
            h0, h1, k0, k1 = 0, 1, 1, 0
            while den:  # the continued-fraction convergents h1 / k1
                a, rem = divmod(num, den)
                h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
                num, den = den, rem
                if k1 > lead:
                    break
                cand = Fraction(h1, k1)
                if (
                    cand != 0
                    and const % cand.numerator == 0
                    and lead % cand.denominator == 0
                    and xq.poly_eval(g, cand) == 0
                ):
                    found.add(cand)
        for cand in sorted(found):
            g = poly_divmod(g, [-cand, Fraction(1)])[0]
            roots.append((cand, mult))
        if xq.poly_degree(g) >= 1:
            leftovers.append((xq.poly_monic(g), mult))
    return roots, leftovers


def rescaled(p):
    """p, and rational multiples of p with a negative or non-unit leading
    term or, cleared to integers, a content above 1."""
    den = lcm(*(c.denominator for c in p))
    return [
        p,
        [-c for c in p],
        [Fraction(-7, 3) * c for c in p],
        [6 * den * c for c in p],
        [-10 * den * c for c in p],
    ]


def bspline_charpoly(order):
    coeffs = [Fraction(comb(order, k), 2 ** (order - 1)) for k in range(order + 1)]
    return charpoly_q(exact_scale_matrix(rf.mask_from_coefficients(coeffs)))


def _divisors(n):
    n = abs(n)
    return {d for k in range(1, isqrt(n) + 1) if n % k == 0 for d in (k, n // k)}


def rational_roots_by_enumeration(p):
    """Reference split by the rational root theorem; small coefficients only.

    Tries every +-a/b with a dividing the constant and b the leading term of
    each squarefree factor cleared to integers, in ascending order.
    """
    roots, leftovers = [], []
    for factor, mult in squarefree_factors_fraction(p):
        g = list(factor)
        while g and g[0] == 0:
            g = g[1:]
            roots.append((Fraction(0), mult))
        if xq.poly_degree(g) < 1:
            continue
        den = lcm(*(c.denominator for c in g))
        ints = [int(c * den) for c in g]
        candidates = {
            Fraction(sign * a, b)
            for a in _divisors(ints[0])
            for b in _divisors(ints[-1])
            for sign in (1, -1)
        }
        for cand in sorted(candidates):
            if xq.poly_degree(g) >= 1 and xq.poly_eval(g, cand) == 0:
                g, _ = poly_divmod(g, [-cand, Fraction(1)])
                roots.append((cand, mult))
        if xq.poly_degree(g) >= 1:
            leftovers.append((xq.poly_monic(g), mult))
    return roots, leftovers


def random_split_polynomial(rng):
    """Random product of (x - p/q)^m factors and irreducible quadratics."""
    p = [Fraction(int(rng.integers(1, 6)) * int(rng.choice([-1, 1])), int(rng.integers(1, 5)))]
    for _ in range(int(rng.integers(0, 4))):
        root = Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 7)))
        for _ in range(int(rng.integers(1, 4))):
            p = poly_mul(p, [-root, Fraction(1)])
    for _ in range(int(rng.integers(0, 3))):
        a, b = int(rng.integers(-6, 7)), int(rng.integers(1, 7))
        if rng.random() < 0.5:
            quad = [Fraction(a * a + b * b, 4), Fraction(-a), Fraction(1)]  # roots (a +- bi) / 2
        else:
            quad = [Fraction(-int(rng.choice([2, 3, 5, 6, 7])), b * b), Fraction(0), Fraction(1)]
        for _ in range(int(rng.integers(1, 3))):
            p = poly_mul(p, quad)
    return p


# The traced routines of ``exact`` take and return integers; these convert
# at the boundary, so that the Fraction oracles above stay as they are.

def ints(a):
    return xq.integer_rows(a)[0]


def mat_mul_q(a, b):
    (x, dx), (y, dy) = xq.integer_rows(a), xq.integer_rows(b)
    return [[Fraction(v, dx * dy) for v in row] for row in xq.mat_mul(x, y)]


def vec_mat_q(v, a):
    ((x,), dx), (y, dy) = xq.integer_rows([v]), xq.integer_rows(a)
    return [Fraction(w, dx * dy) for w in xq.vec_mat(x, y)]


def rref_q(a):
    """The rational RREF: each integer pivot row divided by its pivot."""
    rows, pivots = xq.rref(ints(a))
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(rows, pivots)]
    return out + [[Fraction(x) for x in row] for row in rows[len(pivots):]], pivots


def rank_q(a):
    return xq.rank(ints(a))


def solve_q(a, b):
    """a and b cleared over one denominator, which leaves a x = b as it is."""
    rows = ints([row + [bv] for row, bv in zip(a, b)])
    fit = xq.solve([row[:-1] for row in rows], [row[-1] for row in rows])
    return None if fit is None else [Fraction(x, fit[1]) for x in fit[0]]


def inverse_q(a):
    rows, den = xq.integer_rows(a)
    inv, d = xq.inverse(rows)  # (rows / den)^-1 == den inv / d
    return [[Fraction(x * den, d) for x in row] for row in inv]


def charpoly_q(a):
    return xq.poly_monic(xq.charpoly(*xq.integer_rows(a)))


def rational_roots_q(p):
    roots, leftovers = xq.rational_roots(xq.integer_poly(p))
    return roots, [(xq.poly_monic(f), mult) for f, mult in leftovers]


def is_positive_multiple(row, vec):
    """Whether the integer row is s * vec for some rational s > 0."""
    i = next(i for i, x in enumerate(vec) if x != 0)
    s = Fraction(row[i]) / vec[i]
    return s > 0 and all(x == s * y for x, y in zip(row, vec))


def kernel_matches(got, want):
    """Primitive integer rows, each a positive multiple of its Fraction
    kernel vector."""
    return len(got) == len(want) and all(
        all(type(x) is int for x in row) and gcd(*row) == 1 and is_positive_multiple(row, vec)
        for row, vec in zip(got, want)
    )


class TestBasics:
    def test_matrix_arithmetic_matches_numpy(self):
        for _ in range(10):
            a = random_matrix(3, 4)
            b = random_matrix(4, 2)
            np.testing.assert_allclose(to_float(mat_mul_q(a, b)), to_float(a) @ to_float(b))
        a = random_matrix(3, 3)
        v = [Fraction(1), Fraction(-2), Fraction(3)]
        np.testing.assert_allclose(
            [float(x) for x in vec_mat_q(v, a)], np.array([1.0, -2.0, 3.0]) @ to_float(a)
        )

    def test_identity_and_trace(self):
        a = random_matrix(4, 4)
        assert mat_mul_q(a, identity(4)) == a
        # the trace oracle behind leverrier_fraction
        assert float(trace(a)) == pytest.approx(np.trace(to_float(a)), abs=1e-12)


class TestRrefAndRank:
    def test_rank_matches_numpy(self):
        for _ in range(20):
            rows, cols = int(RNG.integers(1, 6)), int(RNG.integers(1, 6))
            a = random_matrix(rows, cols)
            assert rank_q(a) == np.linalg.matrix_rank(to_float(a), tol=1e-9)

    def test_rref_pivots(self):
        a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        reduced, pivots = rref_q(a)
        assert pivots == [0]
        assert reduced[0] == [Fraction(1), Fraction(2)]
        assert reduced[1] == [Fraction(0), Fraction(0)]

    def test_rank_deficient_by_construction(self):
        a = random_matrix(3, 3)
        a.append([x + y for x, y in zip(a[0], a[1])])  # dependent fourth row
        assert rank_q(a) == rank_q(a[:3])


class TestNullspaceSolveDet:
    def test_nullspace_vectors_annihilate(self):
        for _ in range(15):
            a = random_matrix(3, 5)
            basis = xq.nullspace(ints(a))
            assert len(basis) == 5 - rank_q(a)
            for vec in basis:
                assert all(
                    sum(a[i][j] * vec[j] for j in range(5)) == 0 for i in range(3)
                )

    def test_left_nullspace(self):
        a = random_matrix(4, 3)
        for vec in xq.left_nullspace(ints(a)):
            assert all(sum(vec[i] * a[i][j] for i in range(4)) == 0 for j in range(3))

    def test_solve_and_inverse_match_numpy(self):
        for _ in range(15):
            a = random_matrix(4, 4)
            if rank_q(a) < 4:
                continue
            b = [Fraction(int(RNG.integers(-5, 6))) for _ in range(4)]
            x = solve_q(a, b)
            np.testing.assert_allclose(
                [float(q) for q in x],
                np.linalg.solve(to_float(a), [float(q) for q in b]),
                atol=1e-9,
            )
            np.testing.assert_allclose(
                to_float(inverse_q(a)), np.linalg.inv(to_float(a)), atol=1e-9
            )

    def test_solve_inconsistent_returns_none(self):
        a = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
        assert solve_q(a, [Fraction(0), Fraction(1)]) is None



def oracle_cases(seed, count=60):
    """Seeded rational matrices: every shape from 0x0 to 6x6, sparse and
    dense, rank-deficient products, zero rows and columns, negative entries
    only, and bit-exact floats in +-[1, 2) (denominators up to 2^52)."""
    rng = np.random.default_rng(seed)

    def entry(kind):
        if kind == "float":
            return Fraction(float(rng.uniform(1.0, 2.0)) * float(rng.choice([-1.0, 1.0])))
        num = int(rng.integers(-9, 10))
        return Fraction(-abs(num) if kind == "negative" else num, int(rng.integers(1, 13)))

    def draw(rows, cols, kind, zero):
        return [
            [Fraction(0) if rng.random() < zero else entry(kind) for _ in range(cols)]
            for _ in range(rows)
        ]

    cases = []
    for _ in range(count):
        rows, cols = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        kind = str(rng.choice(["small", "negative", "float"]))
        a = draw(rows, cols, kind, float(rng.choice([0.0, 0.3, 0.7])))
        if rows and cols and rng.random() < 0.4:
            inner = int(rng.integers(1, 3))
            a = mat_mul_fraction(draw(rows, inner, kind, 0.0), draw(inner, cols, kind, 0.0))
        if rows and rng.random() < 0.2:
            a[int(rng.integers(rows))] = [Fraction(0)] * cols
        if cols and rng.random() < 0.2:
            j = int(rng.integers(cols))
            for row in a:
                row[j] = Fraction(0)
        cases.append((kind, a))
    return cases


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


class TestIntegerLayerAgainstFractionOracles:
    """``exact`` works on integer rows over one denominator; its results
    must equal the Fraction arithmetic it replaced."""

    def test_mat_mul_and_vec_mat(self):
        cases = oracle_cases(11)
        for (_, a), (_, b) in zip(cases, cases[1:]):
            # a a^T, a^T a and a times a matrix of the next case's entries
            b = [(b[i % len(b)] if b else []) for i in range(len(a[0]) if a else 0)]
            for x, y in ((a, xq.transpose(a)), (xq.transpose(a), a), (a, b)):
                got = xq.mat_mul(ints(x), ints(y))
                assert all(type(v) is int for row in got for v in row)
                assert mat_mul_q(x, y) == mat_mul_fraction(x, y)
        for _, a in cases:
            v = [Fraction(int(x), 7) for x in np.arange(len(a)) - 3]
            assert vec_mat_q(v, a) == vec_mat_fraction(v, a)

    def test_rref_rows_and_pivots(self):
        for kind, a in oracle_cases(12, count=300):
            rows, pivots = rref_q(a)
            want_rows, want_pivots = rref_fraction(a)
            assert pivots == want_pivots, (kind, a)
            assert rows == want_rows, (kind, a)
            # each integer pivot row is primitive with a positive pivot
            for row, c in zip(xq.rref(ints(a))[0], pivots):
                assert row[c] > 0 and gcd(*row) == 1

    def test_rref_shapes(self):
        assert xq.rref([]) == ([], [])
        assert xq.rref([[]]) == ([[]], [])
        assert xq.rref([[-3]]) == ([[1]], [0])
        assert xq.rref([[0]]) == ([[0]], [])
        wide = [[Fraction(0), Fraction(-2), Fraction(4), Fraction(1, 3)]]
        assert xq.rref(ints(wide)) == ([[0, 6, -12, -1]], [1])
        assert rref_q(wide) == ([[0, 1, -2, Fraction(-1, 6)]], [1])
        assert xq.rref([[0], [-5], [2]]) == ([[1], [0], [0]], [0])

    def test_nullspace_solve_and_inverse_through_the_oracle(self):
        for _, a in oracle_cases(14, count=100):
            if not a or not a[0]:
                continue
            cols = len(a[0])
            pivots = rref_fraction(a)[1]
            assert kernel_matches(xq.nullspace(ints(a)), nullspace_fraction(a))
            if len(a) == cols and len(pivots) == cols:
                inv = inverse_q(a)
                assert mat_mul_fraction(a, inv) == identity(cols)


ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-20, max_value=20, max_denominator=16),
)


def matrices(rows, cols):
    return st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def products(draw):
    """(a, b) of sizes r x k and k x c, and a rank-deficient a b when k < r."""
    r, k, c = (draw(st.integers(0, 6)) for _ in range(3))
    return draw(matrices(r, k)), draw(matrices(k, c))


@st.composite
def nonempty_matrices(draw):
    """Rational matrices of at least one row and column; rank-deficient by
    a product through a narrow inner size when the draw says so."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        inner = draw(st.integers(1, 3))
        return mat_mul_fraction(draw(matrices(rows, inner)), draw(matrices(inner, cols)))
    return draw(matrices(rows, cols))


class TestIntegerLayerProperties:
    """Random rational matrices, cleared to integer rows over one
    denominator: the integer routines against the Fraction oracles."""

    @settings(max_examples=150, deadline=None)
    @given(products())
    def test_products_over_one_denominator(self, ab):
        a, b = ab
        (x, dx), (y, dy) = xq.integer_rows(a), xq.integer_rows(b)
        got = xq.mat_mul(x, y)
        assert all(type(v) is int for row in got for v in row)
        assert [[Fraction(v, dx * dy) for v in row] for row in got] == mat_mul_fraction(a, b)
        if a and b:
            ((v,), dv) = xq.integer_rows([a[0]])
            assert [Fraction(w, dv * dy) for w in xq.vec_mat(v, y)] == vec_mat_fraction(a[0], b)

    @settings(max_examples=150, deadline=None)
    @given(nonempty_matrices())
    def test_rank_and_kernels(self, a):
        rows = ints(a)
        want_rows, want_pivots = rref_fraction(a)
        assert xq.rank(rows) == len(want_pivots)
        assert rref_q(a) == (want_rows, want_pivots)
        assert kernel_matches(xq.nullspace(rows), nullspace_fraction(a))
        assert kernel_matches(xq.left_nullspace(rows), nullspace_fraction(xq.transpose(a)))


class TestCharpoly:
    def test_matches_numpy_eigenvalues(self):
        for _ in range(10):
            a = random_matrix(4, 4)
            cp = charpoly_q(a)  # ascending, monic
            assert cp[-1] == 1
            eigs = np.linalg.eigvals(to_float(a))
            vals = np.polyval([float(c) for c in reversed(cp)], eigs)
            assert np.abs(vals).max() < 1e-6 * max(1.0, np.abs(eigs).max() ** 4)

    def test_equals_fraction_leverrier_up_to_12x12(self):
        for n in range(13):
            for _ in range(2):
                a = random_matrix(n, n, den=17, lo=-9, hi=9)
                assert charpoly_q(a) == leverrier_fraction(a), n

    def test_cayley_hamilton(self):
        a = random_matrix(3, 3)
        cp = charpoly_q(a)
        acc = zeros(3, 3)
        power = identity(3)
        for coeff in cp:
            acc = mat_add(acc, mat_scale(power, coeff))
            power = mat_mul_q(power, a)
        assert acc == zeros(3, 3)


class TestPolynomials:
    def test_divmod_reconstructs(self):
        for _ in range(15):
            p = [Fraction(int(RNG.integers(-4, 5)), 3) for _ in range(6)]
            q = [Fraction(int(RNG.integers(-4, 5)), 2) for _ in range(3)]
            if poly_is_zero(q):
                continue
            quo, rem = poly_divmod(p, q)
            rebuilt = poly_add(poly_mul(quo, q), rem)
            assert xq.poly_trim(rebuilt) == xq.poly_trim(p)
            assert xq.poly_degree(rem) < xq.poly_degree(q)

    def test_gcd_divides_both(self):
        a = poly_mul([Fraction(-1), Fraction(1)], [Fraction(2), Fraction(1)])  # (x-1)(x+2)
        b = poly_mul([Fraction(-1), Fraction(1)], [Fraction(5), Fraction(1)])  # (x-1)(x+5)
        g = xq.poly_gcd(a, b)
        assert g == [Fraction(-1), Fraction(1)]  # monic x - 1

    def test_gcd_equals_fraction_euclid(self):
        rng = np.random.default_rng(20261019)
        for _ in range(100):
            common = random_split_polynomial(rng)
            a = poly_mul(common, random_split_polynomial(rng))
            b = poly_mul(common, random_split_polynomial(rng))
            want = poly_gcd_fraction(a, b)
            assert xq.poly_degree(want) >= xq.poly_degree(common)
            for x in rescaled(a):
                for y in rescaled(b)[::2]:
                    got = xq.poly_gcd(x, y)
                    assert got == want and all_fractions([got]), (x, y)
        x, one = [Fraction(0), Fraction(1)], [Fraction(1)]
        # zero constant terms, a gcd of degree 0, and zero polynomials
        assert xq.poly_gcd([0, Fraction(2), Fraction(4)], [0, 0, Fraction(-6)]) == x
        assert xq.poly_gcd([Fraction(3), Fraction(1)], [Fraction(-2), Fraction(1)]) == one
        assert xq.poly_gcd([Fraction(-3, 2)], [Fraction(0)]) == one
        assert xq.poly_gcd([Fraction(0), Fraction(-4)], []) == x
        assert xq.poly_gcd([], [Fraction(0)]) == []

    def test_rational_roots_with_multiplicity(self):
        # p = (x - 1/2)^2 (x + 3) (x^2 + 1): rational part found exactly,
        # irrational/complex part returned as a leftover factor.
        half = [Fraction(-1, 2), Fraction(1)]
        p = poly_mul(poly_mul(half, half), [Fraction(3), Fraction(1)])
        p = poly_mul(p, [Fraction(1), Fraction(0), Fraction(1)])
        roots, leftovers = rational_roots_q(p)
        assert dict(roots) == {Fraction(1, 2): 2, Fraction(-3): 1}
        assert len(leftovers) == 1
        factor, mult = leftovers[0]
        assert xq.poly_degree(factor) == 2 and mult == 1



HARD_N9 = ["65/16", "93/16", "7/16", "33/8", "-9/8", "-7/16", "-29/16", "-1/16", "-9/16", "-135/16"]


class TestRationalRoots:
    def test_agrees_with_enumeration_on_random_products(self):
        rng = np.random.default_rng(20261018)
        checked = 0
        for _ in range(300):
            p = random_split_polynomial(rng)
            if xq.poly_degree(p) < 1:
                continue
            want = rational_roots_by_enumeration(p)
            for v in rescaled(p):
                assert rational_roots_q(v) == want, v
            checked += 1
        assert checked > 250

    def test_factors_reproduce_the_input(self):
        rng = np.random.default_rng(424242)
        for _ in range(200):
            p = random_split_polynomial(rng)
            if xq.poly_degree(p) < 1:
                continue
            roots, leftovers = rational_roots_q(p)
            rebuilt = [Fraction(1)]
            for root, mult in roots:
                for _ in range(mult):
                    rebuilt = poly_mul(rebuilt, [-root, Fraction(1)])
            for factor, mult in leftovers:
                for _ in range(mult):
                    rebuilt = poly_mul(rebuilt, factor)
            assert rebuilt == xq.poly_monic(p)

    def test_zero_root_and_ascending_order(self):
        # x^2 (x - 3)(x + 1/2)(x - 2/3)
        p = [Fraction(1)]
        for root in (0, 0, 3, Fraction(-1, 2), Fraction(2, 3)):
            p = poly_mul(p, [-Fraction(root), Fraction(1)])
        roots, leftovers = rational_roots_q(p)
        # Yun's algorithm lists the simple factor before the square x^2
        assert roots == [(Fraction(-1, 2), 1), (Fraction(2, 3), 1), (Fraction(3), 1), (Fraction(0), 2)]
        assert leftovers == []
        for v in rescaled(p):
            assert rational_roots_q(v) == (roots, []) == rational_roots_fraction(v)

    def test_no_rational_root_is_one_leftover_however_it_factors(self):
        # (x^2 - 2)(x^2 - 3): the split does not factor over the rationals
        p = poly_mul([Fraction(-2), Fraction(0), Fraction(1)], [Fraction(-3), Fraction(0), Fraction(1)])
        assert rational_roots_q(p) == ([], [(p, 1)]) == rational_roots_fraction(p)

    def test_root_beyond_float_range_stays_a_leftover(self):
        # the float guide cannot see the roots +-10^400; the split degrades,
        # never lies
        p = [Fraction(-(10**800)), Fraction(0), Fraction(1)]
        assert rational_roots_q(p) == ([], [(p, 1)])
        assert xq.rational_roots([-(10**800), 0, -3]) == ([], [([10**800, 0, 3], 1)])

    def test_overflowing_ratio_keeps_the_guide_on_small_roots(self):
        # (x + 3)(x - 10^400): the ratio -3 * 10^400 / 1 overflows a float,
        # yet the guide still finds -3, and 10^400 is the root of the
        # leftover of degree 1
        assert xq.rational_roots([-3 * 10**400, 3 - 10**400, 1]) == (
            [(Fraction(-3), 1), (Fraction(10**400), 1)],
            [],
        )
        # (7x - 3)(x - 10^400): a root with a denominator
        p = [3 * 10**400, -3 - 7 * 10**400, 7]
        assert xq.rational_roots(p) == ([(Fraction(3, 7), 1), (Fraction(10**400), 1)], [])

    @pytest.mark.filterwarnings("ignore::refinable.MaskSumWarning")
    def test_linear_leftover_is_its_root(self):
        # a root that the float guide cannot see is still the root of a
        # leftover factor of degree 1, sorted in with its factor's roots
        assert xq.rational_roots([-(10**400), 1]) == ([(Fraction(10**400), 1)], [])
        # the mask (10^-21, 2) has the spectrum {2, 10^-21}; the float guide
        # finds 2 and misses 10^-21
        t = exact_scale_matrix(rf.mask_from_coefficients(["1/1000000000000000000000", "2"]))
        roots, leftovers = xq.rational_roots(xq.charpoly(*xq.integer_rows(t)))
        assert roots == [(Fraction(1, 10**21), 1), (Fraction(2), 1)] and leftovers == []

    def test_large_constant_term_splits_fast(self):
        # hard_n9: the characteristic polynomial cleared to integers has a
        # constant term of about 5.7e17, so enumerating its divisors takes
        # about 7.5e8 trial divisions
        t = xq.integer_rows(exact_scale_matrix(rf.mask_from_coefficients(HARD_N9)))
        start = time.perf_counter()
        cp = xq.charpoly(*t)
        roots, leftovers = xq.rational_roots(cp)
        elapsed = time.perf_counter() - start
        assert abs(xq.integer_poly(cp)[0]) > 10**17
        assert elapsed < 0.5
        assert roots == [(Fraction(-135, 16), 1), (Fraction(1), 1), (Fraction(65, 16), 1)]
        assert [(xq.poly_degree(f), m) for f, m in leftovers] == [(7, 1)]

    def test_charpolys_equal_the_fraction_path(self):
        # HARD_N9 and the B-spline orders 1-24, whose characteristic
        # polynomials repeat roots 2^-s and, cleared to integers, lead with up to 2^299
        hard = charpoly_q(exact_scale_matrix(rf.mask_from_coefficients(HARD_N9)))
        for p in [hard] + [bspline_charpoly(m) for m in range(1, 25)]:
            want = rational_roots_fraction(p)
            for v in rescaled(p)[::2]:
                assert rational_roots_q(v) == want
