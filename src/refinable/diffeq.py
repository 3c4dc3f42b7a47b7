"""Two-sided linear difference equations with constant coefficients.

The two-sided solution space of an equation sum_k u_k y_{n+k} = 0 (all
integer n) is spanned by the sequences k(k-1)...(k-j+1) d^k for each
characteristic root d and each derivative index j below its multiplicity.
Leading and trailing zero coefficients only reindex a two-sided equation,
so they are trimmed and no root is zero. The common solutions of several
equations are the fundamental sequences of the gcd of their characteristic
polynomials.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import exact as xq
from . import numeric as nm
from .errors import DifferenceEquationError

ROOT_CLUSTER_RTOL = 1e-7


@dataclass(frozen=True)
class FundamentalSequenceRule:
    """The two-sided sequence k(k-1)...(k-j+1) * d^k.

    This family solves every equation whose characteristic polynomial has d
    as a root of multiplicity > j; the literal sign-factor form fails its own
    recurrence at negative k for j != 1, so the falling-factorial basis is
    used throughout (the substitution test is the normative definition).
    """

    root: complex
    index: int

    def values(self, lo: int, hi: int) -> np.ndarray:
        ks = np.arange(lo, hi)
        out = np.full(ks.shape, self.root, dtype=complex) ** ks
        fall = np.ones(ks.shape, dtype=complex)
        for t in range(self.index):
            fall *= ks - t
        return fall * out


@dataclass(frozen=True)
class CombinationRule:
    """A finite linear combination of fundamental sequences."""

    rules: tuple[FundamentalSequenceRule, ...]
    coefficients: tuple[complex, ...]

    def values(self, lo: int, hi: int) -> np.ndarray:
        out = np.zeros(hi - lo, dtype=complex)
        for c, rule in zip(self.coefficients, self.rules):
            out += c * rule.values(lo, hi)
        return out


def root_triples(coeffs):
    """(complex root, multiplicity, exact root or None) triples of a polynomial.

    When every coefficient is an int or a Fraction, the rational roots are
    exact and only the leftover factors fall back to clustered float
    roots; otherwise every root is a clustered float root.
    """
    if not all(is_exact(c) for c in coeffs):
        return [(d, m, None) for d, m, _ in nm.clusters(nm.poly_roots(coeffs), ROOT_CLUSTER_RTOL)]
    rational, leftovers = xq.rational_roots(list(coeffs))
    out = [(complex(d), m, d) for d, m in rational]
    for factor, mult in leftovers:
        roots = nm.poly_roots(np.array([float(c) for c in factor], dtype=complex))
        for d, m, _ in nm.clusters(roots, ROOT_CLUSTER_RTOL):
            out.append((d, m * mult, None))
    return out


@dataclass(frozen=True)
class DifferenceSystem:
    """Several equations sharing solutions: the common space is the gcd's.

    ``gcd`` is monic. The roots are found on first read: the gcd degree
    alone needs no root search.
    """

    gcd: np.ndarray
    exact_gcd: tuple[Fraction, ...] | None

    @property
    def gcd_degree(self) -> int:
        return len(self.gcd) - 1

    @cached_property
    def gcd_roots(self) -> tuple[tuple[complex, int], ...]:
        """(root, multiplicity) pairs, by decreasing modulus, then angle."""
        out = root_triples(self.gcd if self.exact_gcd is None else self.exact_gcd)
        out.sort(key=lambda e: (-abs(e[0]), round(float(np.angle(e[0])), 12)))
        return tuple((complex(d), int(m)) for d, m, _ in out)


def is_exact(v) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def _check_coefficient(v) -> None:
    if is_exact(v):
        return
    if isinstance(v, bool) or not isinstance(v, numbers.Complex) or not cmath.isfinite(v):
        raise DifferenceEquationError(
            f"coefficient {v!r} is not a finite int, Fraction, float or complex number"
        )


def _trim(values):
    """The values without leading and trailing zeros."""
    hi = len(values)
    while hi > 0 and values[hi - 1] == 0:
        hi -= 1
    if hi == 0:
        raise DifferenceEquationError("empty or all-zero coefficient list")
    lo = 0
    while values[lo] == 0:
        lo += 1
    return values[lo:hi]


def difference_system(equations) -> DifferenceSystem:
    """The common solutions of the equations, given as ascending coefficient
    lists: exact Euclid when every coefficient is an int or a Fraction, the
    float gcd otherwise."""
    eqs = [list(eq) for eq in equations]
    if not eqs:
        raise DifferenceEquationError("a system needs at least one equation")
    for eq in eqs:
        for v in eq:
            _check_coefficient(v)
    if all(is_exact(v) for eq in eqs for v in eq):
        g = _trim([Fraction(v) for v in eqs[0]])
        for eq in eqs[1:]:
            g = xq.poly_gcd(g, _trim([Fraction(v) for v in eq]))
        exact_gcd = tuple(xq.poly_monic(g))
        return DifferenceSystem(gcd=np.array([float(c) for c in exact_gcd], dtype=complex), exact_gcd=exact_gcd)
    polys = [_trim(np.asarray([complex(v) for v in eq], dtype=complex)) for eq in eqs]
    g = polys[0]
    for p in polys[1:]:
        g = nm.float_poly_gcd(g, p)
    # float_poly_gcd is monic already; a lone equation is scaled here
    return DifferenceSystem(gcd=g if len(polys) > 1 else nm.poly_monic(g), exact_gcd=None)


def solve_system(system: DifferenceSystem) -> tuple[FundamentalSequenceRule, ...]:
    """Basis of the common two-sided solution space (gcd fundamental sequences)."""
    return tuple(
        FundamentalSequenceRule(root=d, index=j) for d, m in system.gcd_roots for j in range(m)
    )
