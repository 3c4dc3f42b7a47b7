"""Mask parsing and validation, and the scale matrices.

A mask is the finite coefficient list c_0..c_N of a two-scale refinement
equation phi(x) = sum_k c_k phi(2x - k); c_0 and c_N must be nonzero so the
support of phi is exactly [0, N]. The scale matrix T = (c_{2i-j}) and its
head/tail/core submatrices drive everything downstream.
"""

from __future__ import annotations

import json
import numbers
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import MaskError
from . import exact as xq


class MaskSumWarning(UserWarning):
    """Coefficients do not sum to 2 (the usual integrable normalization)."""


@dataclass(frozen=True)
class Mask:
    """Validated refinement coefficients c_0..c_N.

    ``exact`` holds Fractions when every coefficient was given exactly
    (integers or 'p/q' strings); floats never count as exact input.
    """

    coefficients: np.ndarray
    exact: tuple[Fraction, ...] | None = None
    name: str | None = None

    @property
    def n(self) -> int:
        """Support degree N; supp phi = [0, N]."""
        return len(self.coefficients) - 1

    @property
    def is_rational(self) -> bool:
        return self.exact is not None

    def c(self, k: int) -> complex:
        """Coefficient c_k with the convention c_k = 0 outside 0..N."""
        if 0 <= k <= self.n:
            return complex(self.coefficients[k])
        return 0.0 + 0.0j

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<Mask{label} N={self.n} rational={self.is_rational}>"


def mask_from_coefficients(values, name=None) -> Mask:
    """Build a validated mask from numbers, Fractions, or 'p/q' strings.

    Rational numbers, numpy integers among them, are exact; other real and
    complex numbers, numpy floats among them, are floats. Booleans are
    refused.
    """
    values = list(values)
    if len(values) < 2:
        raise MaskError("mask needs at least two coefficients (N >= 1)")
    floats = np.zeros(len(values), dtype=complex)
    exacts: list[Fraction] | None = []
    for i, v in enumerate(values):
        if isinstance(v, (bool, np.bool_)):
            raise MaskError(f"coefficient {i} is a boolean, not a number")
        if isinstance(v, (numbers.Rational, str)):
            if not isinstance(v, str):
                # a numpy integer would keep its fixed width inside a Fraction
                v = Fraction(int(v.numerator), int(v.denominator))
            try:
                f = Fraction(v)
            except (ValueError, ZeroDivisionError) as e:
                raise MaskError(f"coefficient {i}: malformed rational string {v!r}") from e
            try:
                floats[i] = float(f)
            except OverflowError as e:
                raise MaskError(f"coefficient {i} is too large for floating point") from e
            if f and not floats[i]:
                # the float copy would be another mask than the exact one
                raise MaskError(f"coefficient {i} is too small for floating point")
            if exacts is not None:
                exacts.append(f)
        elif isinstance(v, numbers.Complex):
            if not np.isfinite(v):
                raise MaskError(f"coefficient {i} is not finite")
            floats[i] = v
            exacts = None
        else:
            raise MaskError(f"coefficient {i} has unsupported type {type(v).__name__}")
    if floats[0] == 0:
        raise MaskError("c_0 must be nonzero (support assumption)")
    if floats[-1] == 0:
        raise MaskError("c_N must be nonzero (support assumption)")
    if exacts is not None:
        total = sum(exacts)
        off, shown = total != 2, str(total)
    else:
        total = floats.sum()
        off = abs(total - 2.0) > 1e-12
        shown = f"{total if total.imag else total.real:.6g}"  # a real sum reads as a real number
    if off:
        warnings.warn(
            f"mask coefficients sum to {shown}, not 2; continuing (scale is a free choice)",
            MaskSumWarning,
            stacklevel=2,
        )
    floats.setflags(write=False)
    return Mask(
        coefficients=floats,
        exact=tuple(exacts) if exacts is not None else None,
        name=name,
    )


# the JSON type of each value that json.loads returns besides objects and arrays
_JSON_TYPES = {str: "a string", int: "a number", float: "a number", bool: "a boolean", type(None): "null"}


def parse_mask(text: str) -> Mask:
    """Parse a mask document: {"name": str?, "coefficients": [num | "p/q", ...]},
    or the bare coefficient array.

    Plain JSON numbers are IEEE doubles (integers stay exact); 'p/q' strings
    parse as exact rationals.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected the JSON text as a str, got {type(text).__name__}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise MaskError(f"not valid JSON: {e}") from e
    if isinstance(doc, list):
        return mask_from_coefficients(doc)
    if not isinstance(doc, dict):
        raise MaskError(f"mask document must be a JSON object or array, not {_JSON_TYPES[type(doc)]}")
    if "coefficients" not in doc:
        raise MaskError("mask document is missing the 'coefficients' array")
    coeffs = doc["coefficients"]
    if not isinstance(coeffs, list) or not coeffs:
        raise MaskError("'coefficients' must be a non-empty array")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise MaskError("'name' must be a string when present")
    return mask_from_coefficients(coeffs, name=name)


@dataclass(frozen=True)
class ScaleMatrices:
    """The scale matrix T[i][j] = c_{2i-j} and its principal submatrices.

    ``head`` uses indices 0..N-1, ``tail`` 1..N, ``core`` 1..N-1 (0x0 when
    N = 1). First row of T is (c_0, 0, ..), last row (.., 0, c_N), so the
    spectrum of T is {c_0, c_N} plus the spectrum of the core.

    ``integer_rows`` is (rows, d) with T == rows / d, the rows tuples of
    ints and d the lcm of the mask's denominators, or None for a float
    mask; every exact stage reads this one copy.
    """

    mask: Mask
    full: np.ndarray
    head: np.ndarray
    tail: np.ndarray
    core: np.ndarray
    integer_rows: tuple[tuple[tuple[int, ...], ...], int] | None

    @property
    def n(self) -> int:
        return self.mask.n

    def shifted(self, lam: complex) -> np.ndarray:
        """T - lam*I."""
        return self.full - lam * np.eye(self.n + 1, dtype=complex)


def build_scale_matrices(mask: Mask) -> ScaleMatrices:
    n = mask.n
    i = np.arange(n + 1)
    k = 2 * i[:, None] - i  # T[i][j] = c_{2i-j}
    k[(k < 0) | (k > n)] = n + 1  # c_k = 0 there: the index of an appended zero
    full = np.append(mask.coefficients, 0)[k]
    full.setflags(write=False)
    integer_rows = None
    if mask.is_rational:
        (c,), den = xq.integer_rows([mask.exact])
        c.append(0)
        integer_rows = tuple(tuple(map(c.__getitem__, row)) for row in k.tolist()), den
    return ScaleMatrices(
        mask=mask,
        full=full,
        head=full[:n, :n],
        tail=full[1:, 1:],
        core=full[1:n, 1:n],
        integer_rows=integer_rows,
    )
