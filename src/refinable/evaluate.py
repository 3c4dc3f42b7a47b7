"""Pointwise evaluation: the cascade, homogeneous functions, reconstruction.

The refinement equation phi(x) = sum_k c_k phi(2x - k) determines phi's
integer samples (a right 1-eigenvector of the scale matrix, normalized to
sum 1) and then every dyadic value exactly, level by level: even grid points
copy the previous level, odd ones apply the mask. Values at dyadic
discontinuities follow the right-continuous convention (phi(N) = 0
disambiguates a non-simple eigenvalue 1).

Every left vector v of the scale matrix induces a function
h_v(x) = sum_k Y_k phi(x + k) through its two-sided extension Y; on [-1, 1]
only the initial window v contributes. Chain vectors of eigenvalue lambda
with order r satisfy the two-scale homogeneity
sum_{k=0..r} C(r, k) (-lambda)^(r-k) h(x / 2^k) = 0, and the full row basis
reconstructs phi on [0, 1] back from the h values.

The grid sums run on slices. ``translate_sum`` is the one place that forms
sum_k y_k phi(x + k): the basis rows, the dependency check and the battery's
accuracy check all call it, and each k adds y_k times one contiguous slice
of phi. The homogeneity residual reads h(x / 2^k) as a stride-2^(r-k) slice
of the samples. Every product is the one an index gather would compute,
element by element and in the same order. Each factor is a numpy scalar,
so the operand order of the complex product, which is not bitwise
commutative, does not depend on whether numpy reuses a temporary array.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import exact as xq
from . import kernels
from . import numeric as nm
from .diffeq import CombinationRule
from .errors import EvaluationError
from .extension import RuleExtender, SequenceWindow, eigen_extend, kernel_of_L
from .mask import Mask, build_scale_matrices
from .spectral import SpectralData, eigen_structure, power_chain

ZERO_EIGENVALUE_TOL = 1e-10
FIT_RTOL = 1e-8  # zero-sum test and least-squares fits of the extensions and samples

MAX_LEVEL = 24
DEFAULT_LEVEL = 12


def _check_level(level: int) -> int:
    level = int(level)
    if not 0 <= level <= MAX_LEVEL:
        raise EvaluationError(f"level must be between 0 and {MAX_LEVEL}, got {level}")
    return level


# ---------------------------------------------------------------------------
# integer samples and the cascade

def integer_samples(mask: Mask) -> np.ndarray:
    """(phi(0), ..., phi(N)): right 1-eigenvector of T with sum 1.

    A non-simple eigenvalue 1 is disambiguated by phi(N) = 0 (the
    right-continuous convention at the support edge); failing that, the
    eigenvector candidates are attached to the error.
    """
    scale = build_scale_matrices(mask)
    size = mask.n + 1
    if scale.exact_full is not None:
        rows = scale.exact_rows()
        shifted = [
            [rows[i][j] - (1 if i == j else 0) for j in range(size)] for i in range(size)
        ]
        basis = xq.nullspace(shifted)
        candidates = np.array(
            [[complex(float(c)) for c in vec] for vec in basis], dtype=complex
        )
    else:
        shifted = scale.full - np.eye(size, dtype=complex)
        candidates = nm.nullspace(shifted)
    if candidates.shape[0] == 0:
        raise EvaluationError(
            "the scale matrix has no eigenvalue 1: integer samples of phi all vanish",
            candidates=candidates,
        )
    if candidates.shape[0] == 1:
        u = candidates[0]
        total = complex(u.sum())
        if abs(total) <= FIT_RTOL * float(np.abs(u).max()):
            raise EvaluationError(
                "the eigenvector for eigenvalue 1 has zero sum and cannot be "
                "normalized to sum 1",
                candidates=candidates,
            )
        return u / total
    # non-simple eigenvalue 1: impose sum = 1 and phi(N) = 0
    a = np.vstack([candidates.sum(axis=1), candidates[:, -1]]).T  # rows: (sum_i, last_i)
    gamma, *_ = np.linalg.lstsq(a.T, np.array([1.0, 0.0], dtype=complex), rcond=None)
    fit = a.T @ gamma - np.array([1.0, 0.0])
    if float(np.abs(fit).max()) > FIT_RTOL:
        raise EvaluationError(
            "no eigenvector for the non-simple eigenvalue 1 satisfies sum = 1 "
            "with phi(N) = 0",
            candidates=candidates,
        )
    return candidates.T @ gamma


@dataclass(frozen=True)
class PhiValues:
    """Samples of phi on the dyadic grid k / 2^level over [0, N]."""

    mask: Mask
    level: int
    values: np.ndarray  # length N * 2^level + 1

    @property
    def step(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def grid(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.step

    @property
    def integer_values(self) -> np.ndarray:
        return self.values[:: 2**self.level].copy()

    def at_index(self, n) -> np.ndarray:
        """Values at grid indices n (zero outside the support)."""
        n = np.asarray(n)
        out = np.zeros(n.shape, dtype=complex)
        ok = (n >= 0) & (n < len(self.values))
        out[ok] = self.values[n[ok]]
        return out

    def value(self, x: float) -> complex:
        idx = round(float(x) * 2**self.level)
        if abs(idx - float(x) * 2**self.level) > 1e-9:
            raise EvaluationError(f"{x} is not a grid point at level {self.level}")
        return complex(self.at_index(np.array([idx]))[0])


def evaluate_phi(mask: Mask, level: int = DEFAULT_LEVEL) -> PhiValues:
    """Cascade evaluation of phi on [0, N] at resolution 2^-level."""
    level = _check_level(level)
    values = integer_samples(mask).astype(complex)
    for j in range(level):
        values = kernels.refine_level(values, mask.coefficients, 2**j)
    values.setflags(write=False)
    return PhiValues(mask=mask, level=level, values=values)


# ---------------------------------------------------------------------------
# homogeneous functions from left chain vectors

def translate_sum(phi: PhiValues, coeffs, lo: int, hi: int) -> np.ndarray:
    """Samples of sum_k coeffs[k + hi] phi(x + k) on the dyadic grid over [lo, hi].

    ``coeffs`` holds one value for each k = -hi..N-lo, the translates that
    meet [lo, hi]. Zero coefficients are skipped; every other k adds y times
    one contiguous slice of phi, in ascending k.
    """
    step = 2**phi.level
    out_len = (hi - lo) * step + 1
    n_phi = phi.values.shape[0]
    if len(coeffs) != phi.mask.n + hi - lo + 1:
        raise EvaluationError(
            f"translate_sum needs {phi.mask.n + hi - lo + 1} coefficients, got {len(coeffs)}"
        )
    out = np.zeros(out_len, dtype=complex)
    for i, y in enumerate(coeffs):
        if y == 0:
            continue
        shift = (lo - hi + i) * step  # out[j] reads phi[j + shift]: x + k, k = i - hi
        a, b = max(0, -shift), min(out_len, n_phi - shift)
        if a < b:
            out[a:b] += y * phi.values[a + shift : b + shift]
    return out


def extend_vector(v, spectral_or_scale, eigenvalue) -> SequenceWindow:
    """Extension of a generalized left eigenvector, bottom-up along its chain.

    The predecessors are recomputed as v (T - lam I)^j, so insertion-mode
    basis rows, whose predecessors are not rows of the basis, extend too.
    """
    if isinstance(spectral_or_scale, SpectralData):
        scale = spectral_or_scale.scale
    else:
        scale = spectral_or_scale
    return _extension(v, scale, eigenvalue)[1]


def _extension(v, scale, eigenvalue) -> tuple[int, SequenceWindow]:
    """(minimal order of v, extension of v) from one ``power_chain`` pass:
    each v (T - lam I)^j is extended with the window of the next as its
    predecessor, the last one alone."""
    v = np.asarray(v, dtype=complex)
    chain = power_chain(v, scale, eigenvalue)
    if abs(complex(eigenvalue)) <= ZERO_EIGENVALUE_TOL:
        if len(chain) > 1:
            raise EvaluationError(
                "extension of nilpotent chain vectors of order >= 2 is not supported "
                "(the eigen recurrence divides by the eigenvalue)"
            )
        return len(chain), _kernel_extension(v, scale)
    window = None
    for w in reversed(chain[1:]):
        window = eigen_extend(w, window, scale.mask, eigenvalue, scale=scale)
    return len(chain), eigen_extend(v, window, scale.mask, eigenvalue, scale=scale)


def _kernel_extension(v, scale) -> SequenceWindow:
    """Extension of an eigenvalue-0 left eigenvector through ker L.

    A two-sided Y with Y L = 0 restricts on [0, N] to a left kernel vector of
    T, so the extension of such a vector is the matching combination of the
    fundamental kernel sequences.
    """
    mask = scale.mask
    n = mask.n
    kernel = kernel_of_L(mask)
    if not kernel.windows:
        raise EvaluationError(
            "the scale matrix has eigenvalue 0 but the subdivision kernel is trivial; "
            "no two-sided extension exists"
        )
    f = np.array([w.values(0, n + 1) for w in kernel.windows])
    gamma, *_ = np.linalg.lstsq(f.T, v, rcond=None)
    fit = f.T @ gamma - v
    if float(np.abs(fit).max()) > FIT_RTOL * max(1.0, float(np.abs(v).max(initial=0.0))):
        raise EvaluationError(
            "eigenvalue-0 vector is not the restriction of any subdivision kernel sequence"
        )
    rule = CombinationRule(rules=tuple(kernel.rules), coefficients=tuple(complex(g) for g in gamma))
    return SequenceWindow(v, lo=0, extender=RuleExtender(rule), name="kernel-extension")


@dataclass(frozen=True)
class HomogeneousFunction:
    """One basis function h(x) = sum_k Y_k phi(x + k) on a dyadic grid."""

    row: int
    eigenvalue: complex
    order: int  # chain order r: v (T - lam I)^r = 0, r = 1 for an eigenvector
    vector: np.ndarray
    window: SequenceWindow
    level: int
    interval: tuple[int, int]
    values: np.ndarray

    @property
    def step(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def grid(self) -> np.ndarray:
        lo, hi = self.interval
        return lo + np.arange(len(self.values)) * self.step

    def at_index(self, n) -> np.ndarray:
        """Values at absolute dyadic indices n (x = n / 2^level)."""
        n = np.asarray(n)
        lo, hi = self.interval
        rel = n - lo * 2**self.level
        out = np.full(n.shape, np.nan + 0j, dtype=complex)
        ok = (rel >= 0) & (rel < len(self.values))
        out[ok] = self.values[rel[ok]]
        return out


@dataclass(frozen=True)
class HomogeneousBasis:
    """All basis rows of the spectral data, sampled as functions."""

    spectral: SpectralData
    phi: PhiValues
    functions: tuple[HomogeneousFunction, ...]
    level: int
    interval: tuple[int, int]

    def matrix(self) -> np.ndarray:
        """Row-per-function sample matrix."""
        return np.array([f.values for f in self.functions])


def build_homogeneous_basis(
    mask_or_spectral,
    spectral: SpectralData | None = None,
    level: int = DEFAULT_LEVEL,
    interval: tuple[int, int] = (-1, 1),
    *,
    phi: PhiValues | None = None,
) -> HomogeneousBasis:
    """Sample h_v for every basis row of the spectral data on [lo, hi].

    Accepts (mask, spectral) or just the spectral data. Intervals are integer
    endpoints with lo <= 0 <= hi (so dyadic halving stays inside).
    """
    if isinstance(mask_or_spectral, SpectralData):
        spectral = mask_or_spectral
        mask = spectral.scale.mask
    else:
        mask = mask_or_spectral
        if spectral is None:
            spectral = eigen_structure(build_scale_matrices(mask))
    level = _check_level(level)
    lo, hi = int(interval[0]), int(interval[1])
    if not (lo <= 0 <= hi and lo < hi):
        raise EvaluationError(f"interval must be integers with lo <= 0 <= hi, got {interval}")
    if phi is None or phi.level != level:
        phi = evaluate_phi(mask, level)
    functions = []
    for info in spectral.rows:
        v = spectral.basis[info.index]
        order, window = _extension(v, spectral.scale, info.eigenvalue)
        values = translate_sum(phi, window.values(-hi, mask.n - lo + 1), lo, hi)
        values.setflags(write=False)
        functions.append(
            HomogeneousFunction(
                row=info.index,
                eigenvalue=info.eigenvalue,
                order=order,
                vector=v.copy(),
                window=window,
                level=level,
                interval=(lo, hi),
                values=values,
            )
        )
    return HomogeneousBasis(
        spectral=spectral,
        phi=phi,
        functions=tuple(functions),
        level=level,
        interval=(lo, hi),
    )


def homogeneity_residual(
    h: HomogeneousFunction,
    eigenvalue: complex | None = None,
    order: int | None = None,
    test_points=None,
) -> float:
    """Max residual of sum_{k=0..r} C(r,k) (-lam)^(r-k) h(x / 2^k) over the grid.

    Test points default to every grid point whose index is divisible by 2^r
    (so each halved point is again on the grid); the interval contains 0 and
    is closed under halving, so all terms stay inside.
    """
    lam = complex(eigenvalue if eigenvalue is not None else h.eigenvalue)
    r = int(order if order is not None else h.order)
    step = 2**h.level
    lo, hi = h.interval
    if test_points is None:
        # the multiples of 2^r on the grid; halved k times, they are every
        # 2^(r-k)-th sample from first / 2^k on
        first = -((-lo * step) // 2**r) * 2**r
        count = (hi * step - first) // 2**r + 1

        def samples(k):
            start, stride = first // 2**k - lo * step, 2 ** (r - k)
            return h.values[start : start + (count - 1) * stride + 1 : stride]

    else:
        indices = []
        for x in test_points:
            idx = round(float(x) * step)
            if abs(idx - float(x) * step) > 1e-9 or idx % (2**r):
                raise EvaluationError(
                    f"test point {x} is not a level-{h.level} grid point divisible by 2^{r}"
                )
            indices.append(idx)
        indices = np.array(indices, dtype=int)
        count = indices.size

        def samples(k):
            return h.at_index(indices // (2**k))

    if count == 0:
        return 0.0
    acc = np.zeros(count, dtype=complex)
    for k in range(r + 1):
        acc += np.complex128(comb(r, k) * (-lam) ** (r - k)) * samples(k)
    if np.any(np.isnan(acc)):
        raise EvaluationError("homogeneity test points left the sampled interval")
    return float(np.abs(acc).max())


# ---------------------------------------------------------------------------
# reconstruction of phi from the homogeneous basis

@dataclass(frozen=True)
class ReconstructionResult:
    """phi on [0, 1] recovered from the h basis; the fit is exact in theory.

    On [0, 1) each h row is B[:, 0:N] applied to (phi(x), ..., phi(x+N-1)),
    so the pseudo-inverse of that column block recovers the phi translates;
    ``condition`` is its condition number, ``residual`` the max mismatch
    against the cascade values.
    """

    values: np.ndarray  # reconstructed phi samples on [0, 1]
    reference: np.ndarray  # cascade samples on the same grid
    residual: float
    condition: float
    level: int


def reconstruct_phi(basis: HomogeneousBasis, spectral: SpectralData | None = None, level: int | None = None) -> ReconstructionResult:
    if spectral is None:
        spectral = basis.spectral
    level = basis.level if level is None else _check_level(level)
    if level != basis.level:
        raise EvaluationError("reconstruction level must match the sampled basis level")
    n = spectral.n
    step = 2**level
    lo, hi = basis.interval
    if not (lo <= 0 and hi >= 1):
        raise EvaluationError("reconstruction needs the basis sampled on [0, 1]")
    # Columns 0..N-1 of the basis act on the phi translates for x in [0, 1).
    # The interval is right-open: at x = 1 the translate phi(x - 1) enters,
    # which the block does not model (visible when phi jumps at 1).
    block = spectral.basis[:, :n]
    pinv = np.linalg.pinv(block)
    condition = float(np.linalg.cond(block))
    offset = -lo * step
    h_mat = np.array([f.values[offset : offset + step] for f in basis.functions])
    translates = pinv @ h_mat  # row k approximates phi(x + k), k = 0..N-1
    reconstructed = translates[0]
    reference = basis.phi.values[:step]
    residual = float(np.abs(reconstructed - reference).max())
    return ReconstructionResult(
        values=reconstructed,
        reference=reference,
        residual=residual,
        condition=condition,
        level=level,
    )


# ---------------------------------------------------------------------------
# dependency verification for kernel sequences

@dataclass(frozen=True)
class DependencyReport:
    """Numerical check that sum_k Y_k phi(x + k) vanishes identically."""

    max_residual: float
    tolerance: float
    dependent: bool
    interval: tuple[int, int]
    level: int


def verify_dependency(
    mask: Mask,
    window: SequenceWindow,
    level: int = DEFAULT_LEVEL,
    interval: tuple[int, int] = (-4, 4),
    *,
    tolerance: float = 1e-8,
    phi: PhiValues | None = None,
) -> DependencyReport:
    """Sample g(x) = sum_k Y_k phi(x + k) on [lo, hi] and test g == 0.

    A kernel sequence of the bi-infinite subdivision operator must make g
    vanish identically; the residual is compared against ``tolerance`` scaled
    by the magnitudes of Y and phi.
    """
    level = _check_level(level)
    lo, hi = int(interval[0]), int(interval[1])
    if lo >= hi:
        raise EvaluationError(f"empty interval {interval}")
    if phi is None or phi.level != level:
        phi = evaluate_phi(mask, level)
    y_vals = window.values(-hi, mask.n - lo + 1)
    g = translate_sum(phi, y_vals, lo, hi)
    scale_ref = max(1.0, float(np.abs(y_vals).max(initial=0.0))) * max(
        1.0, float(np.abs(phi.values).max(initial=0.0))
    )
    max_residual = float(np.abs(g).max(initial=0.0))
    return DependencyReport(
        max_residual=max_residual,
        tolerance=tolerance * scale_ref,
        dependent=max_residual <= tolerance * scale_ref,
        interval=(lo, hi),
        level=level,
    )
