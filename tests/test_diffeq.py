"""Constant-coefficient difference equations: the gcd of a system, its
roots, and the fundamental sequences that span the common solutions.

The fundamental-sequence family is validated by substitution into the
defining recurrence over a window straddling zero — the recurrence is
the ground truth, not any closed formula.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

import refinable.diffeq as dq
from refinable.errors import DifferenceEquationError
from test_exact import poly_gcd_fraction, poly_mul, random_split_polynomial


def gcd_pairs(seed, count=60):
    """Seeded rational pairs a = f u, b = f v with a known common factor f,
    with a coprime pair, and with a pair whose constant terms are zero."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        common = random_split_polynomial(rng)
        a, b = (poly_mul(common, random_split_polynomial(rng)) for _ in range(2))
        if len(a) > 1 and len(b) > 1:
            pairs.append((common, a, b))
    one, x = [Fraction(1)], [Fraction(0), Fraction(1)]
    pairs.append((one, [Fraction(3), Fraction(1)], [Fraction(-2, 5), Fraction(0), Fraction(7)]))
    pairs.append((x, poly_mul(x, [Fraction(1, 2), Fraction(-3)]), [Fraction(0), Fraction(0), Fraction(4, 9)]))
    return pairs


def trimmed(p):
    """Ascending Fractions without leading and trailing zeros."""
    p = [Fraction(c) for c in p]
    while p[-1] == 0:
        p.pop()
    while p[0] == 0:
        p.pop(0)
    return p


def from_roots(roots):
    """The polynomial with these roots; Fractions when its coefficients are real."""
    poly = np.polynomial.polynomial.polyfromroots(roots)
    if np.iscomplexobj(poly) and np.any(poly.imag != 0):
        return list(poly)
    return [Fraction(float(c.real)) for c in poly]


def substitution_residual(u, rule, lo=-20, hi=20) -> float:
    """max |sum_k u_k z_{n+k}| over n in [lo, hi] for the sequence rule."""
    u = np.asarray([complex(c) for c in u])
    r = len(u) - 1
    z = rule.values(lo, hi + r + 1)
    worst = 0.0
    for n in range(hi - lo + 1):
        acc = sum(u[k] * z[n + k] for k in range(r + 1))
        worst = max(worst, abs(acc))
    return worst


class TestDifferenceEquation:
    """A lone equation: its system's gcd is the trimmed monic polynomial."""

    def test_trims_and_shifts(self):
        system = dq.difference_system([[0, 0, 2, -3, 1, 0]])
        assert system.gcd_degree == 2
        assert system.exact_gcd == (2, -3, 1)
        np.testing.assert_array_equal(system.gcd, [2, -3, 1])

    def test_rejects_degenerate_input(self):
        with pytest.raises(DifferenceEquationError):
            dq.difference_system([[]])
        with pytest.raises(DifferenceEquationError):
            dq.difference_system([[0.0, 0.0]])
        with pytest.raises(DifferenceEquationError):
            dq.difference_system([])

    def test_order_zero_equation_is_legal_with_no_roots(self):
        # constant equations arise from masks whose even or odd part is a
        # single coefficient; their only solution is zero
        system = dq.difference_system([[3.0]])
        assert system.gcd_degree == 0
        assert system.gcd_roots == ()
        assert dq.solve_system(system) == ()

    def test_characteristic_roots(self):
        system = dq.difference_system([[2.0, -3.0, 1.0]])  # (x-1)(x-2)
        roots = sorted(r.real for r, _ in system.gcd_roots)
        np.testing.assert_allclose(roots, [1.0, 2.0], atol=1e-10)

    def test_exact_coefficients_kept(self):
        system = dq.difference_system([[Fraction(1, 2), Fraction(1, 2)]])
        assert system.exact_gcd == (Fraction(1), Fraction(1))
        assert system.gcd_roots == ((-1 + 0j, 1),)

    @pytest.mark.parametrize(
        "bad",
        ["1/2", float("nan"), float("inf"), complex(1, float("inf")), True, np.True_, None, [1]],
    )
    def test_rejects_coefficients_that_are_not_finite_numbers(self, bad):
        with pytest.raises(DifferenceEquationError):
            dq.difference_system([[1, bad, 1]])
        with pytest.raises(DifferenceEquationError):
            dq.difference_system([[1.0, 2.0], [1.0, bad]])


class TestFundamentalBasis:
    @pytest.mark.parametrize(
        "spec",
        [
            [(2.0, 1), (4.0, 1)],
            [(1.0, 2)],
            [(1.0, 3)],
            [(0.5, 2), (-2.0, 1)],
            [(1.0 + 1.0j, 1), (1.0 - 1.0j, 1)],
            [(3.0, 2), (0.25, 3)],
        ],
    )
    def test_substitution_over_a_window_straddling_zero(self, spec):
        # the equation with exactly these characteristic roots
        poly = from_roots([d for d, m in spec for _ in range(m)])
        system = dq.difference_system([poly])
        assert sorted(m for _, m in system.gcd_roots) == sorted(m for _, m in spec)
        rules = dq.solve_system(system)
        assert len(rules) == sum(m for _, m in spec)
        for rule in rules:
            assert substitution_residual(poly, rule) < 1e-7 * max(
                1.0, np.abs(rule.values(-20, 25)).max()
            )
        # independent: their windows on [0, order) have full rank
        windows = np.array([rule.values(0, len(rules)) for rule in rules])
        assert np.linalg.matrix_rank(windows) == len(rules)

    def test_rule_values_match_scalar_value(self):
        # each entry of a window is the closed form k(k-1)...(k-j+1) d^k
        for j in range(3):
            rule = dq.FundamentalSequenceRule(root=2.0 + 0j, index=j)
            vals = rule.values(-5, 6)
            for k in range(-5, 6):
                falling = 1
                for t in range(j):
                    falling *= k - t
                assert vals[k + 5] == falling * (2.0 + 0j) ** k

    def test_rejects_zero_root(self):
        # a zero root of x^2 (x - 2) is a shift of the equation, not a root
        system = dq.difference_system([[0, 0, -2, 1]])
        assert system.gcd_roots == ((2 + 0j, 1),)
        assert [rule.root for rule in dq.solve_system(system)] == [2]

    def test_first_rules_are_pure_powers(self):
        rules = dq.solve_system(dq.difference_system([[9, -6, 1]]))  # (x-3)^2
        assert rules[0].values(4, 5)[0] == pytest.approx(81.0)  # 3^4
        assert rules[1].values(4, 5)[0] == pytest.approx(4 * 81.0)  # k * 3^k


class TestPolyGcd:
    """The gcd of two equations, read through their system."""

    def test_exact_gcd_equals_fraction_euclid(self):
        degrees = set()
        for common, a, b in gcd_pairs(31):
            want = poly_gcd_fraction(trimmed(a), trimmed(b))
            assert len(want) >= len(trimmed(common))
            degrees.add(len(want) - 1)
            system = dq.difference_system([a, b])
            assert system.exact_gcd == tuple(want), (a, b)
            assert np.array_equal(system.gcd, np.array([float(c) for c in want], dtype=complex)), (a, b)
        assert 0 in degrees and max(degrees) >= 4


class TestDifferenceSystem:
    def test_gcd_solutions_solve_both_equations(self):
        # equations share exactly the root 3
        e1 = list(np.polynomial.polynomial.polyfromroots([3.0, 1.0]))
        e2 = list(np.polynomial.polynomial.polyfromroots([3.0, -2.0]))
        system = dq.difference_system([e1, e2])
        assert system.gcd_degree == 1
        rules = dq.solve_system(system)
        assert len(rules) == 1
        for rule in rules:
            assert substitution_residual(e1, rule) < 1e-7 * 3.0**25
            assert substitution_residual(e2, rule) < 1e-7 * 3.0**25

    def test_exact_gcd_equals_fraction_euclid(self):
        degrees = set()
        pairs = gcd_pairs(32)
        for (_, a, b), (_, c, _) in zip(pairs, pairs[1:] + pairs[:1]):
            want = poly_gcd_fraction(poly_gcd_fraction(trimmed(a), trimmed(b)), trimmed(poly_mul(a, c)))
            degrees.add(len(want) - 1)
            system = dq.difference_system([a, b, poly_mul(a, c)])
            assert system.exact_gcd == tuple(want), (a, b)
            assert np.array_equal(system.gcd, np.array([float(q) for q in want], dtype=complex))
        assert 0 in degrees and max(degrees) >= 4
        # the zero constant terms are a shift of the equations, not a root
        x = [Fraction(0), Fraction(1)]
        a = poly_mul(x, [Fraction(2), Fraction(1)])
        system = dq.difference_system([a, [Fraction(0), Fraction(-4), Fraction(-2)]])
        assert system.exact_gcd == (Fraction(2), Fraction(1))
        assert system.gcd_roots == ((-2 + 0j, 1),)

    def test_coprime_system_has_trivial_kernel(self):
        system = dq.difference_system([[1.0, 1.0], [2.0, 1.0]])
        assert system.gcd_degree == 0
        assert dq.solve_system(system) == ()

    def test_roots_are_found_on_first_read(self, monkeypatch):
        calls = []
        real = dq.root_triples
        monkeypatch.setattr(dq, "root_triples", lambda *a: calls.append(a) or real(*a))
        e1 = [Fraction(-6), Fraction(1), Fraction(1)]  # roots 2, -3
        e2 = [Fraction(-2), Fraction(1)]  # root 2
        system = dq.difference_system([e1, e2])
        assert system.gcd_degree == 1
        assert calls == []
        assert [d for d, _ in system.gcd_roots] == [2]
        assert len(calls) == 1
        assert system.gcd_roots is system.gcd_roots
        assert len(calls) == 1

    @pytest.mark.parametrize("coeffs", [[2, 4], [2.0, 4.0]])
    def test_lone_equation_gives_a_monic_gcd(self, coeffs):
        system = dq.difference_system([coeffs])
        np.testing.assert_array_equal(system.gcd, [0.5, 1.0])
