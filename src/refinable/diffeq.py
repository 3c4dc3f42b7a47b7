"""Two-sided linear difference equations with constant coefficients.

The two-sided solution space of an equation sum_k u_k y_{n+k} = 0
(u_0, u_r != 0, all integer n) is spanned by the sequences
k(k-1)...(k-j+1) d^k for each characteristic root d (never zero, since the
constant term is nonzero) and each derivative index j below its multiplicity. Systems of such equations have
solution space spanned by the fundamental sequences of the gcd of the
characteristic polynomials, and any finite solution window of the system can
be extended to a full two-sided solution through the fundamental matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import exact as xq
from . import numeric as nm
from .errors import DifferenceEquationError

ROOT_CLUSTER_RTOL = 1e-7
SOLUTION_RTOL = 1e-10  # relative residual accepted by extend_finite_solution


def _as_exact_list(p):
    """Fractions for exactly-given coefficients, else None."""
    if isinstance(p, np.ndarray):
        return None
    out = []
    for v in p:
        if isinstance(v, bool):
            return None
        if isinstance(v, (int, Fraction, str)):
            try:
                out.append(xq.as_fraction(v))
            except (ValueError, ZeroDivisionError, TypeError):
                return None
        else:
            return None
    return out


# ---------------------------------------------------------------------------
# polynomial gcd (shared entry point)

def poly_gcd(a, b, *, exact=None):
    """Monic gcd of two polynomials (ascending coefficients), as floats.

    Rational inputs (ints/Fractions/'p/q' strings) use exact Euclid; float
    input decides the degree from the rank deficiency of the Sylvester matrix
    at cutoff 1e-8 * ||S|| and recovers the gcd from a cofactor null vector.
    """
    ea, eb = _as_exact_list(a), _as_exact_list(b)
    if exact is None:
        exact = ea is not None and eb is not None
    if exact:
        if ea is None or eb is None:
            raise DifferenceEquationError("exact gcd requested for non-rational input")
        g = xq.poly_gcd(ea, eb)
        return np.array([float(c) for c in g], dtype=complex)
    fa = np.asarray([complex(v) for v in a], dtype=complex)
    fb = np.asarray([complex(v) for v in b], dtype=complex)
    return nm.float_poly_gcd(fa, fb)


# ---------------------------------------------------------------------------
# equations and root data

@dataclass(frozen=True)
class DifferenceEquation:
    """A trimmed two-sided equation sum_k u_k y_{n+k} = 0.

    ``shift`` counts removed leading zero coefficients (for two-sided
    sequences a leading zero is a pure reindexing); ``nominal_order`` is the
    order before any trimming. After trimming u_0 != 0 and u_r != 0, so the
    characteristic polynomial has no zero root.
    """

    coefficients: np.ndarray
    exact: tuple[Fraction, ...] | None
    nominal_order: int
    shift: int

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @property
    def characteristic(self) -> np.ndarray:
        return self.coefficients

    def residual_on(self, z) -> float:
        """Max |sum_k u_k z_{n+k}| over all shifts n fitting inside z."""
        z = np.asarray(z, dtype=complex)
        r = self.order
        worst = 0.0
        for n in range(len(z) - r):
            acc = np.dot(self.coefficients, z[n : n + r + 1])
            worst = max(worst, abs(acc))
        return worst

    def roots(self):
        """(complex root, multiplicity, exact root or None) triples."""
        return root_triples(self.coefficients, self.exact)


def difference_equation(coefficients) -> DifferenceEquation:
    """Validate and trim a coefficient list into a DifferenceEquation."""
    exact = _as_exact_list(coefficients)
    arr = np.asarray([complex(v) for v in coefficients], dtype=complex)
    if arr.size == 0:
        raise DifferenceEquationError("empty coefficient list")
    nominal_order = len(arr) - 1
    hi = len(arr)
    while hi > 0 and arr[hi - 1] == 0:
        hi -= 1
    if hi == 0:
        raise DifferenceEquationError("all coefficients are zero")
    lo = 0
    while arr[lo] == 0:
        lo += 1
    trimmed = arr[lo:hi].copy()
    trimmed.setflags(write=False)
    return DifferenceEquation(
        coefficients=trimmed,
        exact=tuple(exact[lo:hi]) if exact is not None else None,
        nominal_order=nominal_order,
        shift=lo,
    )


@dataclass(frozen=True)
class RootData:
    """Distinct nonzero roots with positive integer multiplicities."""

    pairs: tuple[tuple[complex, int], ...]
    exact_values: tuple[Fraction | None, ...] = ()

    @property
    def count(self) -> int:
        return len(self.pairs)

    @property
    def order(self) -> int:
        return sum(m for _, m in self.pairs)

    def labels(self):
        """(root, derivative index) label per fundamental sequence, in order."""
        out = []
        for d, m in self.pairs:
            for j in range(m):
                out.append((d, j))
        return out


def root_data(pairs, exact_values=None) -> RootData:
    pairs = tuple((complex(d), int(m)) for d, m in pairs)
    for d, m in pairs:
        if d == 0:
            raise DifferenceEquationError("root data contains a zero root")
        if m < 1:
            raise DifferenceEquationError("multiplicities must be positive")
    values = [d for d, _ in pairs]
    if len(set(values)) != len(values):
        raise DifferenceEquationError("root data contains a repeated root")
    if exact_values is None:
        exact_values = (None,) * len(pairs)
    return RootData(pairs=pairs, exact_values=tuple(exact_values))


# ---------------------------------------------------------------------------
# fundamental sequences

def _falling(k, j):
    out = 1
    for t in range(j):
        out *= k - t
    return out


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
    exact_root: Fraction | None = None

    def value(self, k: int) -> complex:
        return _falling(k, self.index) * self.root ** k

    def exact_value(self, k: int) -> Fraction:
        if self.exact_root is None:
            raise DifferenceEquationError("sequence rule has no exact root")
        return Fraction(_falling(k, self.index)) * self.exact_root ** k

    def values(self, lo: int, hi: int) -> np.ndarray:
        ks = np.arange(lo, hi)
        out = np.full(ks.shape, self.root, dtype=complex) ** ks
        fall = np.ones(ks.shape, dtype=complex)
        for t in range(self.index):
            fall *= ks - t
        return fall * out


@dataclass(frozen=True)
class FundamentalBasis:
    """Fundamental sequences of a root set, grouped by root."""

    roots: RootData
    rules: tuple[FundamentalSequenceRule, ...]

    @property
    def order(self) -> int:
        return len(self.rules)


def fundamental_basis(roots: RootData) -> FundamentalBasis:
    rules = []
    for (d, m), ex in zip(roots.pairs, roots.exact_values):
        for j in range(m):
            rules.append(FundamentalSequenceRule(root=d, index=j, exact_root=ex))
    return FundamentalBasis(roots=roots, rules=tuple(rules))


def fundamental_matrix(roots: RootData, ncols=None) -> np.ndarray:
    """A[i][k] = value of the i-th fundamental sequence at k (k = 0..ncols-1)."""
    basis = fundamental_basis(roots)
    t = basis.order
    ncols = t if ncols is None else ncols
    a = np.zeros((t, ncols), dtype=complex)
    for i, rule in enumerate(basis.rules):
        a[i] = rule.values(0, ncols)
    return a


def fundamental_matrix_exact(roots: RootData, ncols=None):
    basis = fundamental_basis(roots)
    t = basis.order
    ncols = t if ncols is None else ncols
    return [[rule.exact_value(k) for k in range(ncols)] for rule in basis.rules]


@dataclass(frozen=True)
class DeterminantResult:
    direct: complex
    closed_form: complex
    matrix: np.ndarray
    exact_direct: Fraction | None = None
    exact_closed_form: Fraction | None = None


def _casoratian(pairs, values, one):
    """The closed form below, over complex or Fraction root values."""
    closed = one
    for li in range(len(pairs)):
        for si in range(li + 1, len(pairs)):
            closed *= (values[si] - values[li]) ** (pairs[li][1] * pairs[si][1])
    for (_, r), d in zip(pairs, values):
        closed *= d ** (r * (r - 1) // 2) * xq.superfactorial(r - 1)
    return closed


def fundamental_determinant(roots: RootData) -> DeterminantResult:
    """Determinant of the square fundamental matrix, direct and closed form.

    Closed form (Casoratian of the falling-factorial family):
    prod_{l<s} (d_s - d_l)^(r_l r_s) * prod_i d_i^(r_i(r_i-1)/2)
    * prod_i (1! 2! ... (r_i - 1)!). For simple roots this is the Vandermonde
    determinant.
    """
    # re-validate distinctness (root_data enforces it, but accept raw tuples)
    values = [d for d, _ in roots.pairs]
    if len(set(values)) != len(values):
        raise DifferenceEquationError("repeated roots in root data")
    a = fundamental_matrix(roots)
    direct = complex(np.linalg.det(a)) if a.size else 1.0 + 0.0j
    closed = _casoratian(roots.pairs, values, 1.0 + 0.0j)
    exact_direct = exact_closed = None
    if all(ex is not None for ex in roots.exact_values) and roots.count:
        exact_direct = xq.det(fundamental_matrix_exact(roots))
        exact_closed = _casoratian(roots.pairs, roots.exact_values, Fraction(1))
    return DeterminantResult(
        direct=direct,
        closed_form=closed,
        matrix=a,
        exact_direct=exact_direct,
        exact_closed_form=exact_closed,
    )


# ---------------------------------------------------------------------------
# systems

@dataclass(frozen=True)
class DifferenceSystem:
    """Several equations sharing solutions: the common space is the gcd's.

    ``gcd`` is monic. The root sets are found on first read: the gcd
    degree alone needs no root search.
    """

    equations: tuple[DifferenceEquation, ...]
    gcd: np.ndarray
    exact_gcd: tuple[Fraction, ...] | None

    @property
    def gcd_degree(self) -> int:
        return len(self.gcd) - 1

    @cached_property
    def gcd_roots(self) -> RootData:
        return _roots_of_poly(self.gcd, self.exact_gcd)

    @cached_property
    def union_roots(self) -> RootData:
        return _merge_roots([eq.roots() for eq in self.equations])

    @property
    def index(self) -> int:
        """Sum over distinct roots of the max multiplicity across equations."""
        return self.union_roots.order

    @property
    def is_exact(self) -> bool:
        return self.exact_gcd is not None


def _merge_roots(per_equation_roots):
    """Union of root sets, keeping the max multiplicity per root."""
    merged = []  # entries [complex value, mult, exact or None]
    for triples in per_equation_roots:
        for d, m, ex in triples:
            found = None
            for entry in merged:
                if ex is not None and entry[2] is not None:
                    if ex == entry[2]:
                        found = entry
                        break
                elif abs(d - entry[0]) <= ROOT_CLUSTER_RTOL * max(1.0, abs(d), abs(entry[0])):
                    found = entry
                    break
            if found is None:
                merged.append([d, m, ex])
            else:
                found[1] = max(found[1], m)
                if found[2] is None:
                    found[2] = ex
    merged.sort(key=lambda e: (-abs(e[0]), round(float(np.angle(e[0])), 12)))
    return root_data([(d, m) for d, m, _ in merged], [ex for _, _, ex in merged])


def root_triples(coeffs_float, coeffs_exact):
    """(complex root, multiplicity, exact root or None) triples of a polynomial.

    With exact coefficients ``coeffs_float`` is not read: the rational
    roots are exact and only the leftover factors fall back to clustered
    float roots.
    """
    if coeffs_exact is None:
        return [(d, m, None) for d, m, _ in nm.clusters(nm.poly_roots(coeffs_float), ROOT_CLUSTER_RTOL)]
    rational, leftovers = xq.rational_roots(list(coeffs_exact))
    out = [(complex(d), m, d) for d, m in rational]
    for factor, mult in leftovers:
        roots = nm.poly_roots(np.array([float(c) for c in factor], dtype=complex))
        for d, m, _ in nm.clusters(roots, ROOT_CLUSTER_RTOL):
            out.append((d, m * mult, None))
    return out


def _roots_of_poly(coeffs_float, coeffs_exact):
    out = root_triples(coeffs_float, coeffs_exact)
    out.sort(key=lambda e: (-abs(e[0]), round(float(np.angle(e[0])), 12)))
    return root_data([(d, m) for d, m, _ in out], [ex for _, _, ex in out])


def difference_system(equations) -> DifferenceSystem:
    eqs = tuple(
        eq if isinstance(eq, DifferenceEquation) else difference_equation(eq) for eq in equations
    )
    if not eqs:
        raise DifferenceEquationError("a system needs at least one equation")
    if all(eq.exact is not None for eq in eqs):
        g = list(eqs[0].exact)
        for eq in eqs[1:]:
            g = xq.poly_gcd(g, list(eq.exact))
        exact_gcd = tuple(xq.poly_monic(g))
        gcd_float = np.array([float(c) for c in exact_gcd], dtype=complex)
    else:
        g = eqs[0].coefficients
        for eq in eqs[1:]:
            g = nm.float_poly_gcd(g, eq.coefficients)
        # float_poly_gcd is monic already; a lone equation is scaled here
        gcd_float = g if len(eqs) > 1 else nm.poly_monic(g)
        exact_gcd = None
    return DifferenceSystem(equations=eqs, gcd=gcd_float, exact_gcd=exact_gcd)


def solve_system(system: DifferenceSystem) -> FundamentalBasis:
    """Basis of the common two-sided solution space (gcd fundamental sequences)."""
    return fundamental_basis(system.gcd_roots)


@dataclass(frozen=True)
class CombinationRule:
    """A finite linear combination of fundamental sequences."""

    rules: tuple[FundamentalSequenceRule, ...]
    coefficients: tuple[complex, ...]
    exact_coefficients: tuple[Fraction, ...] | None = None

    def value(self, k: int) -> complex:
        return sum(c * rule.value(k) for c, rule in zip(self.coefficients, self.rules))

    def values(self, lo: int, hi: int) -> np.ndarray:
        out = np.zeros(hi - lo, dtype=complex)
        for c, rule in zip(self.coefficients, self.rules):
            out += c * rule.values(lo, hi)
        return out

    def exact_value(self, k: int) -> Fraction:
        if self.exact_coefficients is None:
            raise DifferenceEquationError("combination has no exact coefficients")
        return sum(
            (c * rule.exact_value(k) for c, rule in zip(self.exact_coefficients, self.rules)),
            Fraction(0),
        )


def extend_finite_solution(z, system: DifferenceSystem) -> CombinationRule:
    """Extend finite samples z (window k = 0..len(z)-1) to a full solution.

    Solves the fundamental-matrix system for the coordinates of z, checks
    that the non-gcd coordinates vanish (z must lie in the common solution
    space), and returns the gcd-supported combination. Rational systems with
    rational samples solve exactly.
    """
    z_exact = _as_exact_list(z)
    zf = np.asarray([complex(v) for v in z], dtype=complex)
    if zf.size == 0:
        raise DifferenceEquationError("empty sample window")
    scale = max(1.0, float(np.abs(zf).max()))
    for eq in system.equations:
        worst = eq.residual_on(zf)
        if worst > SOLUTION_RTOL * scale:
            raise DifferenceEquationError(
                f"samples do not satisfy the system on their window (residual {worst:.3g})"
            )
    basis = fundamental_basis(system.union_roots)
    t = basis.order
    if t == 0:
        if float(np.abs(zf).max()) > SOLUTION_RTOL * scale:
            raise DifferenceEquationError("system admits only the zero solution")
        return CombinationRule(rules=(), coefficients=(), exact_coefficients=())
    exact_ok = (
        system.is_exact
        and z_exact is not None
        and all(ex is not None for ex in system.union_roots.exact_values)
    )
    if exact_ok:
        fe = fundamental_matrix_exact(system.union_roots, ncols=len(zf))
        cols = [[fe[i][k] for i in range(t)] for k in range(len(zf))]
        alpha_exact = xq.solve(cols, z_exact)
        if alpha_exact is None:
            raise DifferenceEquationError("samples are inconsistent with the fundamental system")
        alpha = np.array([float(c) for c in alpha_exact], dtype=complex)
    else:
        alpha_exact = None
        f = fundamental_matrix(system.union_roots, ncols=len(zf)).T
        alpha, *_ = np.linalg.lstsq(f, zf, rcond=None)
        resid = np.abs(f @ alpha - zf).max()
        if resid > SOLUTION_RTOL * scale * 1e2:
            raise DifferenceEquationError(
                f"samples are inconsistent with the fundamental system (residual {resid:.3g})"
            )
    supported = []
    for d, j in basis.roots.labels():
        m_in_gcd = 0
        for gd, gm in system.gcd_roots.pairs:
            if abs(d - gd) <= ROOT_CLUSTER_RTOL * max(1.0, abs(d), abs(gd)):
                m_in_gcd = gm
                break
        supported.append(j < m_in_gcd)
    amax = max(1.0, float(np.abs(alpha).max()))
    for i, ok in enumerate(supported):
        if not ok and abs(alpha[i]) > max(SOLUTION_RTOL * amax, 1e-9 * scale):
            raise DifferenceEquationError(
                "samples are not in the solution space of the system "
                f"(component {abs(alpha[i]):.3g} outside the gcd span)"
            )
    rules = tuple(r for r, ok in zip(basis.rules, supported) if ok)
    coeffs = tuple(complex(alpha[i]) for i, ok in enumerate(supported) if ok)
    exact_coeffs = None
    if alpha_exact is not None:
        exact_coeffs = tuple(alpha_exact[i] for i, ok in enumerate(supported) if ok)
    return CombinationRule(rules=rules, coefficients=coeffs, exact_coefficients=exact_coeffs)
