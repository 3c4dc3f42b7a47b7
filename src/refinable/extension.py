"""Two-sided sequences: lazy windows, eigen-extension, and the kernel of L.

A mask defines the bi-infinite subdivision operator (Y L)_n = sum_i Y_i
c_{2i-n}. Finite eigenvector (or Jordan chain) data for the (N+1)x(N+1)
scale matrix extends uniquely to a two-sided sequence satisfying
Y L = lambda Y + Y_prev: entries beyond the initial window follow a
recurrence that only looks at already-known entries, in both directions.
Because the dependency is dyadic (entry n needs entries near n/2), the
extension grows polynomially, like n^(log2(1/|lambda|)), not geometrically.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import kernels
from .diffeq import DifferenceSystem, difference_system, solve_system
from .errors import ExtensionError, ExtensionOverflowError
from .mask import Mask, ScaleMatrices

PRECONDITION_RTOL = 1e-7


class RuleExtender:
    """Extends from any object with ``values(lo, hi)``: a closed-form rule,
    or the conjugate of another window."""

    def __init__(self, rule):
        self.rule = rule

    def fill(self, buf, buf_lo, lo, hi):
        buf[lo - buf_lo : hi - buf_lo] = self.rule.values(lo, hi)


class EigenExtender:
    """Extends by the recurrence Y L = lambda Y + Y_prev.

    For n outside [0, N] the relation (Y L)_n = lambda Y_n + Y_prev_n
    involves Y only at indices i in [ceil(n/2), floor((n+N)/2)], all of which
    lie strictly between n and the initial window, so each new entry is
    determined by known ones: ascending for n >= N+1, descending for n <= -1.
    """

    def __init__(self, mask: Mask, eigenvalue: complex, prev: "SequenceWindow | None"):
        self.mask = mask
        self.eigenvalue = complex(eigenvalue)
        self.prev = prev

    def fill(self, buf, buf_lo, lo, hi):
        """Fill [lo, hi), one side of the window: above it when lo > 0."""
        prev_vals = np.zeros(hi - lo, dtype=complex) if self.prev is None else self.prev.values(lo, hi)
        forward = lo > 0
        extend = kernels.extend_forward if forward else kernels.extend_backward
        stop = extend(
            buf, buf_lo, lo, hi, self.mask.coefficients, self.eigenvalue, prev_vals, lo,
            kernels.OVERFLOW_LIMIT,
        )
        if stop != (hi if forward else lo - 1):
            raise ExtensionOverflowError(
                f"extension exceeded {kernels.OVERFLOW_LIMIT:g} at index {stop}", index=stop
            )


class _Conjugate:
    """The values of a window, conjugated."""

    def __init__(self, source: "SequenceWindow"):
        self.source = source

    def values(self, lo: int, hi: int) -> np.ndarray:
        out = self.source.values(lo, hi)
        return np.conjugate(out, out=out)


class SequenceWindow:
    """A two-sided complex sequence, materialized on [lo, hi).

    ``ensure`` grows the window in place through the attached extender, the
    side above the window first; reads outside the window trigger growth.
    Growth holds an internal lock, so concurrent reads are safe; extenders
    may recursively grow the windows they read (their ``prev`` window, or
    the source of a conjugate), and these form an acyclic graph, so lock
    order is fixed.
    """

    def __init__(self, values, lo=0, *, extender, name=None):
        buf = np.array(values, dtype=complex)
        if buf.ndim != 1 or buf.size == 0:
            raise ExtensionError("a sequence window needs a nonempty 1-d value block")
        self._buf = buf
        self._lo = int(lo)
        self._extender = extender
        self._lock = threading.RLock()
        self.name = name

    @property
    def lo(self) -> int:
        return self._lo

    @property
    def hi(self) -> int:
        return self._lo + len(self._buf)

    def ensure(self, lo: int, hi: int) -> None:
        """Materialize at least [lo, hi)."""
        if lo >= hi:
            return
        with self._lock:
            old_lo, old_hi = self._lo, self.hi
            new_lo, new_hi = min(lo, old_lo), max(hi, old_hi)
            if (new_lo, new_hi) == (old_lo, old_hi):
                return
            buf = np.zeros(new_hi - new_lo, dtype=complex)
            buf[old_lo - new_lo : old_hi - new_lo] = self._buf
            if new_hi > old_hi:
                self._extender.fill(buf, new_lo, old_hi, new_hi)
            if new_lo < old_lo:
                self._extender.fill(buf, new_lo, new_lo, old_lo)
            self._buf = buf
            self._lo = new_lo

    def values(self, lo: int, hi: int) -> np.ndarray:
        if lo >= hi:
            return np.zeros(0, dtype=complex)
        self.ensure(lo, hi)
        return self._buf[lo - self._lo : hi - self._lo].copy()

    def conjugate(self) -> "SequenceWindow":
        """The complex conjugate of this sequence, grown by reading this one.

        For a real mask, the extension of conj(v) for conj(lambda) is the
        conjugate of the extension of v, bit for bit: the recurrences are
        real-linear.
        """
        with self._lock:
            lo, block = self._lo, np.conjugate(self._buf)
        return SequenceWindow(block, lo, extender=RuleExtender(_Conjugate(self)), name=self.name)

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<SequenceWindow{tag} [{self.lo}, {self.hi})>"


# ---------------------------------------------------------------------------
# eigen-extension

def eigen_extend(
    v, chain_prev: SequenceWindow | None, scale: ScaleMatrices, eigenvalue: complex
) -> SequenceWindow:
    """Extend scale-matrix chain data v to a two-sided Y with Y L = lam Y + Y_prev.

    ``v`` is a left chain vector of the scale matrix T of ``scale``, whose
    mask the recurrence runs on: v (T - lam I) must equal the restriction
    of ``chain_prev`` to [0, N] (the zero sequence for an eigenvector). On
    that window the recurrence *is* the matrix identity, so the
    precondition is exactly what makes the extension exist; it is then
    unique because every outside entry is forced. The precondition holds to
    ``PRECONDITION_RTOL`` relative to the largest entry of v and prev.
    """
    lam = complex(eigenvalue)
    if lam == 0:
        raise ExtensionError("zero eigenvalues do not extend (recurrence divides by lambda)")
    n = scale.n
    v = np.asarray(v, dtype=complex)
    if v.shape != (n + 1,):
        raise ExtensionError(f"chain data must have length N+1 = {n + 1}, got {v.shape}")
    prev_block = np.zeros(n + 1, dtype=complex) if chain_prev is None else chain_prev.values(0, n + 1)
    residual = v @ scale.shifted(lam) - prev_block
    tol = PRECONDITION_RTOL * max(
        1.0,
        float(np.abs(v).max(initial=0.0)),
        float(np.abs(prev_block).max(initial=0.0)),
    )
    worst = float(np.abs(residual).max(initial=0.0))
    if worst > tol:
        raise ExtensionError(
            f"chain data does not satisfy v (T - lambda I) = prev (residual {worst:.3g})"
        )
    return SequenceWindow(
        v, lo=0, extender=EigenExtender(scale.mask, lam, chain_prev), name="eigen-extension"
    )


# ---------------------------------------------------------------------------
# kernel of the bi-infinite subdivision matrix

@dataclass(frozen=True)
class SubdivisionKernel:
    """Basis of { Y : Y L = 0 }, one window per fundamental sequence."""

    windows: tuple[SequenceWindow, ...]
    rules: tuple
    gcd_degree: int

    @property
    def dimension(self) -> int:
        return len(self.windows)


def subdivision_system(mask: Mask) -> DifferenceSystem:
    """The equations of Y L = 0.

    Even rows give sum_t Y_{m+t} c_{2t} = 0 and odd rows sum_t Y_{m+t}
    c_{2t+1} = 0, so the solutions are the common solutions of two difference
    equations: the fundamental sequences of the gcd of the even and odd mask
    polynomials. An identically zero polynomial constrains nothing and is
    dropped.
    """
    c = mask.exact if mask.is_rational else mask.coefficients
    return difference_system([p for p in (c[0::2], c[1::2]) if any(x != 0 for x in p)])


def kernel_of_L(mask: Mask) -> SubdivisionKernel:
    """Basis of { Y : Y L = 0 }: one window on [0, N] per fundamental
    sequence of the gcd of ``subdivision_system``."""
    system = subdivision_system(mask)
    rules = solve_system(system)
    windows = tuple(
        SequenceWindow(rule.values(0, mask.n + 1), lo=0, extender=RuleExtender(rule), name="kernel")
        for rule in rules
    )
    return SubdivisionKernel(windows=windows, rules=rules, gcd_degree=system.gcd_degree)
