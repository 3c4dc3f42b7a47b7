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

The cascade runs in ``float64`` when no mask coefficient and no integer
sample has a nonzero imaginary part, as for every mask the command line
reads, and in ``complex128`` otherwise. ``translate_sum`` has one loop for
either: each product is complex, and the h rows are ``complex128``, rows
of one sample matrix per basis. ``build_homogeneous_basis`` gives its row
sums one complex copy of phi, made once per basis, so that no product
converts its slice again. The samples keep the bits of real arithmetic: a
complex product in which one factor has an imaginary part of exactly zero
rounds each part once, to the real product, and every sum starts at +0, so
the signs of zero wash out.

For a real mask the spectral layer builds the rows of conj(lambda) as the
conjugates of the rows of lambda (``RowInfo.conjugate_of``), and
``build_homogeneous_basis`` conjugates the rest too: such a row's window
is its pair's extension, conjugated (``SequenceWindow.conjugate``), and
its samples are the conjugate of its pair's samples, with no second
extension or translate sum. The bits are those of the translate sum over
the conjugated window: the recurrences are real-linear, and negating the
imaginary part of each coefficient negates each product b * phi exactly,
so it negates each rounded partial sum. The battery still checks every
row on its own values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

import numpy as np

from . import exact as xq
from . import kernels
from . import numeric as nm
from .diffeq import CombinationRule
from .errors import EvaluationError
from .extension import RuleExtender, SequenceWindow, eigen_extend, kernel_of_L
from .mask import Mask, ScaleMatrices, build_scale_matrices
from .spectral import SpectralData, power_chain

ZERO_EIGENVALUE_TOL = 1e-10
FIT_RTOL = 1e-8  # zero-sum test and least-squares fits of the extensions and samples

MAX_LEVEL = 24
DEFAULT_LEVEL = 12


def _check_level(level: int) -> int:
    if int(level) != level or not 0 <= level <= MAX_LEVEL:
        raise EvaluationError(f"level must be an integer between 0 and {MAX_LEVEL}, got {level}")
    return int(level)


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
    """Samples of phi on the dyadic grid k / 2^level over [0, N]; ``float64``
    for a real mask with real integer samples, ``complex128`` otherwise."""

    mask: Mask
    level: int
    values: np.ndarray  # length N * 2^level + 1

    @property
    def step(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def grid(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.step

    def at_index(self, n) -> np.ndarray:
        """Values at grid indices n (zero outside the support)."""
        n = np.asarray(n)
        out = np.zeros(n.shape, dtype=complex)
        ok = (n >= 0) & (n < len(self.values))
        out[ok] = self.values[n[ok]]
        return out


def evaluate_phi(mask: Mask, level: int = DEFAULT_LEVEL) -> PhiValues:
    """Cascade evaluation of phi on [0, N] at resolution 2^-level, in
    ``float64`` when no coefficient and no integer sample has a nonzero
    imaginary part."""
    level = _check_level(level)
    values = integer_samples(mask).astype(complex)
    coeffs = mask.coefficients
    if not (coeffs.imag.any() or values.imag.any()):
        values, coeffs = values.real.copy(), coeffs.real
    for j in range(level):
        values = kernels.refine_level(values, coeffs, 2**j)
    values.setflags(write=False)
    return PhiValues(mask=mask, level=level, values=values)


# ---------------------------------------------------------------------------
# homogeneous functions from left chain vectors

def translate_sum(phi: PhiValues, coeffs, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
    """Samples of sum_k coeffs[k + hi] phi(x + k) on the dyadic grid over [lo, hi].

    ``coeffs`` holds one value for each k = -hi..N-lo, the translates that
    meet [lo, hi]. Zero coefficients are skipped; every other k adds y times
    one contiguous slice of phi, in ascending k, into ``out``, a zeroed
    ``complex128`` row (a new one by default), which is returned. A real
    slice is made complex for each product; a caller with many sums over
    one real phi passes a complex copy of it instead.
    """
    step = 2**phi.level
    out_len = (hi - lo) * step + 1
    values = phi.values
    n_phi = values.shape[0]
    if len(coeffs) != phi.mask.n + hi - lo + 1:
        raise EvaluationError(
            f"translate_sum needs {phi.mask.n + hi - lo + 1} coefficients, got {len(coeffs)}"
        )
    if out is None:
        out = np.zeros(out_len, dtype=complex)
    for i, y in enumerate(np.asarray(coeffs, dtype=complex)):
        if y == 0:
            continue
        shift = (lo - hi + i) * step  # out[j] reads phi[j + shift]: x + k, k = i - hi
        a, b = max(0, -shift), min(out_len, n_phi - shift)
        if a >= b:
            continue
        out[a:b] += y * values[a + shift : b + shift]
    return out


def extend_vector(v, scale: ScaleMatrices, eigenvalue) -> SequenceWindow:
    """Extension of a generalized left eigenvector, bottom-up along its chain.

    The predecessors are recomputed as v (T - lam I)^j, so insertion-mode
    basis rows, whose predecessors are not rows of the basis, extend too.
    """
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
        window = eigen_extend(w, window, scale, eigenvalue)
    return len(chain), eigen_extend(v, window, scale, eigenvalue)


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
    """All basis rows of the spectral data, sampled as functions; each
    function's ``values`` is one row of the ``samples`` matrix."""

    spectral: SpectralData
    phi: PhiValues
    functions: tuple[HomogeneousFunction, ...]
    level: int
    interval: tuple[int, int]
    samples: np.ndarray  # (rows x grid points), complex128, read-only

    @property
    def grid(self) -> np.ndarray:
        """The grid points of the columns of ``samples``, each function's grid."""
        lo, hi = self.interval
        return lo + np.arange(self.samples.shape[1]) * 2.0 ** (-self.level)


def build_homogeneous_basis(
    spectral: SpectralData,
    level: int = DEFAULT_LEVEL,
    interval: tuple[int, int] = (-1, 1),
) -> HomogeneousBasis:
    """Sample phi and h_v for every basis row of the spectral data on [lo, hi].

    Intervals are integer endpoints with lo <= 0 <= hi (so dyadic halving
    stays inside). The sample matrix is allocated before the cascade runs,
    so a grid too large to hold is refused at once.
    """
    if not isinstance(spectral, SpectralData):
        raise TypeError(f"expected SpectralData (eigen_structure(scale)), got {type(spectral).__name__}")
    mask = spectral.scale.mask
    level = _check_level(level)
    lo, hi = int(interval[0]), int(interval[1])
    if (lo, hi) != (interval[0], interval[1]) or not (lo <= 0 <= hi and lo < hi):
        raise EvaluationError(f"interval must be integers with lo <= 0 <= hi, got {interval}")
    shape = (len(spectral.rows), (hi - lo) * 2**level + 1)
    try:
        samples = np.zeros(shape, dtype=complex)
    except ValueError as exc:
        # numpy refuses a shape or a byte size past its index range outright
        raise EvaluationError(
            f"{shape[0]} basis rows of {shape[1]} samples are more than an array can hold"
        ) from exc
    phi = evaluate_phi(mask, level)
    # the row sums read phi as complex, copied once for a real phi, so that
    # no product converts its slice
    sums_phi = replace(phi, values=phi.values.astype(complex, copy=False))
    # a row that conjugates another (only a real mask, with a real phi, has
    # them) is its pair's extension and samples, conjugated; pairs first
    orders, windows = {}, {}
    for info in sorted(spectral.rows, key=lambda info: info.conjugate_of is not None):
        r, pair = info.index, info.conjugate_of
        if pair is None:
            orders[r], windows[r] = _extension(spectral.basis[r], spectral.scale, info.eigenvalue)
            translate_sum(sums_phi, windows[r].values(-hi, mask.n - lo + 1), lo, hi, out=samples[r])
        else:
            orders[r], windows[r] = orders[pair], windows[pair].conjugate()
            np.conjugate(samples[pair], out=samples[r])
            # a sum never ends at -0, the conjugate of an exact +0 does
            samples[r].imag += 0.0
    samples.setflags(write=False)
    functions = tuple(
        HomogeneousFunction(
            row=info.index,
            eigenvalue=info.eigenvalue,
            order=orders[info.index],
            vector=spectral.basis[info.index].copy(),
            window=windows[info.index],
            level=level,
            interval=(lo, hi),
            values=samples[info.index],
        )
        for info in spectral.rows
    )
    return HomogeneousBasis(
        spectral=spectral,
        phi=phi,
        functions=functions,
        level=level,
        interval=(lo, hi),
        samples=samples,
    )


def homogeneity_residual(h: HomogeneousFunction) -> float:
    """Max residual of sum_{k=0..r} C(r,k) (-lam)^(r-k) h(x / 2^k) over the grid,
    with lam and r the eigenvalue and chain order of h.

    The test points are the grid points whose index is divisible by 2^r, so
    each halved point is again on the grid; the interval contains 0 and is
    closed under halving, so all terms stay inside. A NaN residual, from
    non-finite samples, raises instead of comparing as small.
    """
    lam = complex(h.eigenvalue)
    r = h.order
    step = 2**h.level
    lo, hi = h.interval
    # the multiples of 2^r on the grid, 0 among them; halved k times, they
    # are every 2^(r-k)-th sample from first / 2^k on
    first = -((-lo * step) // 2**r) * 2**r
    count = (hi * step - first) // 2**r + 1
    acc = np.zeros(count, dtype=complex)
    for k in range(r + 1):
        start, stride = first // 2**k - lo * step, 2 ** (r - k)
        samples = h.values[start : start + (count - 1) * stride + 1 : stride]
        acc += np.complex128(comb(r, k) * (-lam) ** (r - k)) * samples
    if np.any(np.isnan(acc)):
        raise EvaluationError(f"the homogeneity residual of row {h.row} is not a number")
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


def reconstruct_phi(basis: HomogeneousBasis) -> ReconstructionResult:
    spectral = basis.spectral
    level = basis.level
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
    h_mat = basis.samples[:, offset : offset + step]
    reconstructed = pinv[0] @ h_mat  # row k of pinv @ h_mat approximates phi(x + k)
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
    """Numerical check that sum_k Y_k phi(x + k) vanishes identically:
    the largest |g| on the grid and the scale that judges it."""

    max_residual: float
    scale: float  # max(1, max |Y|) max(1, max |phi|)
    interval: tuple[int, int]
    level: int


def verify_dependency(phi: PhiValues, window: SequenceWindow) -> DependencyReport:
    """Sample g(x) = sum_k Y_k phi(x + k) on [-4, 4] at the level of phi.

    A kernel sequence of the bi-infinite subdivision operator must make g
    vanish identically; ``max_residual / scale`` is the residual relative
    to the magnitudes of Y and phi.
    """
    lo, hi = -4, 4
    y_vals = window.values(-hi, phi.mask.n - lo + 1)
    g = translate_sum(phi, y_vals, lo, hi)
    scale = max(1.0, float(np.abs(y_vals).max(initial=0.0))) * max(
        1.0, float(np.abs(phi.values).max(initial=0.0))
    )
    return DependencyReport(
        max_residual=float(np.abs(g).max(initial=0.0)),
        scale=scale,
        interval=(lo, hi),
        level=phi.level,
    )
