"""Constant-coefficient difference equations: fundamental solutions,
Casoratian determinants, two-equation systems, and extension by gcd
solutions.

The fundamental-sequence family is validated by substitution into the
defining recurrence over a window straddling zero — the recurrence is
the ground truth, not any closed formula.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

import refinable as rf
import refinable.diffeq as dq
from refinable.errors import DifferenceEquationError
from test_exact import poly_gcd_fraction, poly_mul, random_split_polynomial

RNG = np.random.default_rng(11223344)


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


def substitution_residual(eq: dq.DifferenceEquation, rule, lo=-20, hi=20) -> float:
    """max |sum_k u_k z_{n+k}| over n in [lo, hi] for the sequence rule."""
    u = eq.coefficients
    r = len(u) - 1
    z = rule.values(lo, hi + r + 1)
    worst = 0.0
    for n in range(hi - lo + 1):
        acc = sum(u[k] * z[n + k] for k in range(r + 1))
        worst = max(worst, abs(acc))
    return worst


class TestDifferenceEquation:
    def test_trims_and_shifts(self):
        eq = dq.difference_equation([0, 0, 2, -3, 1, 0])
        assert eq.shift == 2
        assert eq.order == 2
        np.testing.assert_allclose(eq.coefficients.real, [2, -3, 1])
        assert eq.nominal_order == 5

    def test_rejects_degenerate_input(self):
        with pytest.raises(DifferenceEquationError):
            dq.difference_equation([])
        with pytest.raises(DifferenceEquationError):
            dq.difference_equation([0.0, 0.0])

    def test_order_zero_equation_is_legal_with_no_roots(self):
        # constant equations arise from masks whose even or odd part is a
        # single coefficient; their only solution is zero
        eq = dq.difference_equation([3.0])
        assert eq.order == 0
        assert eq.roots() == []

    def test_characteristic_roots(self):
        eq = dq.difference_equation([2, -3, 1])  # (x-1)(x-2)
        roots = sorted(r.real for r, _, _ in eq.roots())
        np.testing.assert_allclose(roots, [1.0, 2.0], atol=1e-10)

    def test_exact_coefficients_kept(self):
        eq = dq.difference_equation([Fraction(1, 2), Fraction(1, 2)])
        assert eq.exact == (Fraction(1, 2), Fraction(1, 2))
        (root, mult, exact) = eq.roots()[0]
        assert exact == Fraction(-1)
        assert mult == 1


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
        roots = dq.root_data(tuple((complex(d), m) for d, m in spec))
        # the equation with exactly these characteristic roots
        poly = np.polynomial.polynomial.polyfromroots(
            [d for d, m in spec for _ in range(m)]
        )
        eq = dq.difference_equation(list(poly))
        basis = dq.fundamental_basis(roots)
        assert len(basis.rules) == roots.order
        for rule in basis.rules:
            assert substitution_residual(eq, rule) < 1e-7 * max(
                1.0, np.abs(rule.values(-20, 25)).max()
            )

    def test_rule_values_match_scalar_value(self):
        roots = dq.root_data(((2.0 + 0j, 2),))
        for rule in dq.fundamental_basis(roots).rules:
            vals = rule.values(-5, 6)
            for k in range(-5, 6):
                assert vals[k + 5] == rule.value(k)

    def test_rejects_zero_root(self):
        with pytest.raises(DifferenceEquationError):
            dq.root_data(((0j, 1),))

    def test_first_rules_are_pure_powers(self):
        roots = dq.root_data(((3.0 + 0j, 2),))
        rules = dq.fundamental_basis(roots).rules
        assert rules[0].value(4) == pytest.approx(81.0)  # 3^4
        assert rules[1].value(4) == pytest.approx(4 * 81.0)  # k * 3^k


class TestFundamentalDeterminant:
    @pytest.mark.parametrize(
        "spec",
        [
            [(2.0, 1), (4.0, 1)],
            [(2.0, 1), (3.0, 1)],
            [(1.0, 1), (-1.0, 1), (2.0, 1)],
            [(1.0, 2)],
            [(2.0, 2), (3.0, 1)],
            [(0.5, 3)],
            [(1.5 + 0.5j, 2), (-0.75, 2)],
        ],
    )
    def test_direct_equals_closed_form(self, spec):
        roots = dq.root_data(tuple((complex(d), m) for d, m in spec))
        result = dq.fundamental_determinant(roots)
        assert result.direct == pytest.approx(result.closed_form, rel=1e-8)
        assert abs(result.direct) > 0  # fundamental system is independent

    def test_exact_determinant_for_rational_roots(self):
        roots = dq.root_data(
            ((2.0 + 0j, 2), (3.0 + 0j, 1)),
            exact_values=(Fraction(2), Fraction(3)),
        )
        result = dq.fundamental_determinant(roots)
        assert result.exact_direct is not None
        assert result.exact_direct == result.exact_closed_form
        assert float(result.exact_direct) == pytest.approx(result.direct.real)

    def test_simple_roots_reduce_to_vandermonde(self):
        ds = [2.0, -1.0, 0.5, 3.0]
        roots = dq.root_data(tuple((complex(d), 1) for d in ds))
        result = dq.fundamental_determinant(roots)
        vandermonde = np.prod(
            [ds[s] - ds[l] for s in range(4) for l in range(s)]
        )
        assert result.direct == pytest.approx(complex(vandermonde), rel=1e-9)


class TestPolyGcd:
    def test_exact_gcd_from_rational_inputs(self):
        # (x+1)(x+2) and (x+1)(x-5)
        a = [Fraction(2), Fraction(3), Fraction(1)]
        b = [Fraction(-5), Fraction(-4), Fraction(1)]
        g = dq.poly_gcd(a, b)
        np.testing.assert_allclose(np.asarray(g).real, [1.0, 1.0], atol=1e-12)

    def test_exact_gcd_equals_fraction_euclid(self):
        degrees = set()
        for common, a, b in gcd_pairs(31):
            want = poly_gcd_fraction(a, b)
            assert len(want) >= len(common)
            degrees.add(len(want) - 1)
            g = dq.poly_gcd(a, b, exact=True)
            assert np.array_equal(g, np.array([float(c) for c in want], dtype=complex)), (a, b)
        assert 0 in degrees and max(degrees) >= 4

    def test_float_gcd(self):
        a = np.polynomial.polynomial.polyfromroots([-1.0, 2.0])
        b = np.polynomial.polynomial.polyfromroots([-1.0, 7.0])
        g = dq.poly_gcd(a, b)
        assert len(g) == 2
        assert abs(-g[0] / g[1] - (-1.0)) < 1e-8


class TestDifferenceSystem:
    def test_gcd_solutions_solve_both_equations(self):
        # equations share exactly the root 3
        e1 = dq.difference_equation(list(np.polynomial.polynomial.polyfromroots([3.0, 1.0])))
        e2 = dq.difference_equation(list(np.polynomial.polynomial.polyfromroots([3.0, -2.0])))
        system = dq.difference_system([e1, e2])
        assert system.gcd_degree == 1
        basis = dq.solve_system(system)
        assert len(basis.rules) == 1
        for rule in basis.rules:
            assert substitution_residual(e1, rule) < 1e-7 * 3.0**25
            assert substitution_residual(e2, rule) < 1e-7 * 3.0**25

    def test_exact_gcd_equals_fraction_euclid(self):
        pairs = gcd_pairs(32)
        for (_, a, b), (_, c, _) in zip(pairs, pairs[1:] + pairs[:1]):
            system = dq.difference_system([a, b, poly_mul(a, c)])
            want = [Fraction(1)]
            for i, eq in enumerate(system.equations):
                want = list(eq.exact) if i == 0 else poly_gcd_fraction(want, list(eq.exact))
            assert system.exact_gcd == tuple(want), (a, b)
        # the zero constant terms are a shift of the equations, not a root
        x = [Fraction(0), Fraction(1)]
        a = poly_mul(x, [Fraction(2), Fraction(1)])
        system = dq.difference_system([a, [Fraction(0), Fraction(-4), Fraction(-2)]])
        assert [eq.shift for eq in system.equations] == [1, 1]
        assert system.exact_gcd == (Fraction(2), Fraction(1))

    def test_coprime_system_has_trivial_kernel(self):
        e1 = dq.difference_equation([1.0, 1.0])
        e2 = dq.difference_equation([2.0, 1.0])
        system = dq.difference_system([e1, e2])
        assert system.gcd_degree == 0
        assert len(dq.solve_system(system).rules) == 0

    def test_union_roots_take_max_multiplicity(self):
        e1 = dq.difference_equation(list(np.polynomial.polynomial.polyfromroots([2.0, 2.0])))
        e2 = dq.difference_equation(list(np.polynomial.polynomial.polyfromroots([2.0, 5.0])))
        system = dq.difference_system([e1, e2])
        union = {complex(np.round(r, 8)): m for r, m in system.union_roots.pairs}
        assert union == {(2 + 0j): 2, (5 + 0j): 1}

    def test_roots_are_found_on_first_read(self, monkeypatch):
        calls = []
        real = dq.root_triples
        monkeypatch.setattr(dq, "root_triples", lambda *a: calls.append(a) or real(*a))
        e1 = dq.difference_equation([Fraction(-6), Fraction(1), Fraction(1)])  # roots 2, -3
        e2 = dq.difference_equation([Fraction(-2), Fraction(1)])  # root 2
        system = dq.difference_system([e1, e2])
        assert system.gcd_degree == 1
        assert calls == []
        assert [d for d, _ in system.gcd_roots.pairs] == [2]
        assert len(calls) == 1
        assert system.index == 2  # union of {2, -3} and {2}
        assert len(calls) == 3
        assert system.gcd_roots is system.gcd_roots
        assert len(calls) == 3

    @pytest.mark.parametrize("coeffs", [[2, 4], [2.0, 4.0]])
    def test_lone_equation_gives_a_monic_gcd(self, coeffs):
        system = dq.difference_system([coeffs])
        np.testing.assert_array_equal(system.gcd, [0.5, 1.0])


class TestExtendFiniteSolution:
    def test_round_trip_through_the_gcd_span(self):
        e1 = dq.difference_equation(list(np.polynomial.polynomial.polyfromroots([3.0, 1.0])))
        e2 = dq.difference_equation(list(np.polynomial.polynomial.polyfromroots([3.0, -2.0])))
        system = dq.difference_system([e1, e2])
        z = np.array([2.0 * 3.0**k for k in range(6)], dtype=complex)
        combo = dq.extend_finite_solution(z, system)
        np.testing.assert_allclose(combo.values(0, 6), z, rtol=1e-9)
        # the extension continues with the same rule beyond the window
        assert combo.value(10) == pytest.approx(2.0 * 3.0**10, rel=1e-9)
        assert combo.value(-3) == pytest.approx(2.0 * 3.0**-3, rel=1e-9)

    def test_rejects_sequences_outside_the_span(self):
        e1 = dq.difference_equation(list(np.polynomial.polynomial.polyfromroots([3.0, 1.0])))
        e2 = dq.difference_equation(list(np.polynomial.polynomial.polyfromroots([3.0, -2.0])))
        system = dq.difference_system([e1, e2])
        # 1^k solves e1 but not e2, so it violates the window residual check
        z = np.ones(6, dtype=complex)
        with pytest.raises(DifferenceEquationError):
            dq.extend_finite_solution(z, system)

    def test_zero_window_is_the_zero_solution(self):
        e1 = dq.difference_equation([(-1.0), 1.0])
        system = dq.difference_system([e1])
        combo = dq.extend_finite_solution(np.zeros(4, dtype=complex), system)
        assert np.abs(combo.values(-5, 5)).max() == 0.0
