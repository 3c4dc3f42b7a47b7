"""Shared corpus: four worked masks plus seeded random masks.

Random masks normalize the even- and odd-indexed coefficient sums to 1
separately, which guarantees eigenvalue 1 of the scale matrix (column
sums are 1) and hence a well-defined refinable function.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from math import comb
from pathlib import Path

import numpy as np
import pytest

import refinable as rf
from refinable import report

SEED = 20260814

SQRT3 = np.sqrt(3.0)

D4_COEFFS = [(1 + SQRT3) / 4, (3 + SQRT3) / 4, (3 - SQRT3) / 4, (1 - SQRT3) / 4]

CORPUS_SPECS = {
    "bspline3": ["1/4", "3/4", "3/4", "1/4"],
    "d4": D4_COEFFS,
    "jordan13": ["1/3", "2/3", "2/3", "1/3"],
    "half": ["1/2", "1/2", "1/2", "1/2"],
    "haar": [1, 1],
}


# the directory the test process imported `refinable` from; subprocesses put
# it first on PYTHONPATH so they run the same copy, even from an installed
# script that would otherwise import its own
SOURCE_ROOT = Path(rf.__file__).resolve().parents[1]


def subprocess_env(**overrides):
    path = os.pathsep.join(
        p for p in (str(SOURCE_ROOT), os.environ.get("PYTHONPATH")) if p
    )
    return dict(os.environ, PYTHONPATH=path, **overrides)


def make_mask(name: str) -> rf.Mask:
    return rf.mask_from_coefficients(CORPUS_SPECS[name], name=name)


def make_scale(name: str) -> rf.ScaleMatrices:
    return rf.build_scale_matrices(make_mask(name))


def scale_matrix_oracle(c, zero=0) -> list[list]:
    """T = (c_{2i-j}) for the coefficient list ``c``, ``zero`` outside
    0..N, as nested lists: the scale matrix laid out apart from the
    package."""
    n = len(c) - 1
    return [[c[2 * i - j] if 0 <= 2 * i - j <= n else zero for j in range(n + 1)] for i in range(n + 1)]


def exact_scale_matrix(mask: rf.Mask) -> list[list[Fraction]]:
    """The Fraction scale matrix of a rational mask, from ``mask.exact``."""
    return scale_matrix_oracle(mask.exact, Fraction(0))


def _draw_coefficients(rng: np.random.Generator, n: int, imag: bool = False) -> np.ndarray:
    while True:
        c = rng.normal(size=n + 1)
        if imag:
            c = c + 1j * rng.normal(size=n + 1)
        even, odd = c[0::2].sum(), c[1::2].sum()
        if min(abs(even), abs(odd)) < 0.2:
            continue
        c[0::2] /= even
        c[1::2] /= odd
        if min(abs(c[0]), abs(c[n])) < 0.05 or np.abs(c).max() > 20:
            continue
        return c


def random_masks(count: int = 50) -> list[rf.Mask]:
    rng = np.random.default_rng(SEED)
    masks = []
    for i in range(count):
        n = 1 + i % 9
        coeffs = _draw_coefficients(rng, n)
        masks.append(rf.mask_from_coefficients(list(coeffs), name=f"rnd{i:02d}_n{n}"))
    return masks


def dense_subdivision(alpha, alpha_lo, coeffs, out_lo, out_len) -> np.ndarray:
    """(Y L)_j = sum_i Y_i c_{2i - j} on [out_lo, out_lo + out_len), summed
    over an explicitly materialized band of the bi-infinite operator."""
    nmask = len(coeffs) - 1
    out = np.zeros(out_len, dtype=complex)
    for jj in range(out_len):
        j = out_lo + jj
        for i in range(alpha_lo, alpha_lo + len(alpha)):
            k = 2 * i - j
            if 0 <= k <= nmask:
                out[jj] += alpha[i - alpha_lo] * coeffs[k]
    return out


def dump_csv_by_row(xs, values) -> str:
    """The per-row writer the table formatter replaced; a byte oracle."""
    lines = [report.CSV_HEADER]
    values = np.asarray(values, dtype=complex)
    for x, z in zip(xs, values):
        lines.append(
            f"{report.format_float(float(x))},{report.format_float(z.real)},{report.format_float(z.imag)}"
        )
    return "\n".join(lines) + "\n"


def bits(a) -> np.ndarray:
    """The bit patterns of complex samples, for bitwise comparisons."""
    return np.ascontiguousarray(a, dtype=complex).view(np.int64)


GRID_MASK_NAMES = ("grid_bspline12", "grid_real12", "grid_complex12")


@lru_cache(maxsize=None)
def grid_masks() -> dict[str, rf.Mask]:
    """N = 12 masks for the bitwise grid-layer oracles at level 14.

    Real coefficients with real eigenvalues (the B-spline of order 12 in
    floats), real coefficients with complex eigenvalues, and complex
    coefficients. At level 14 the long operands exceed 16384 values
    (256 KiB), the size from which numpy reuses a temporary array in place.
    """
    rng = np.random.default_rng(SEED + 12)
    coefficients = (
        [comb(12, k) / 2**11 for k in range(13)],
        [float(c) for c in _draw_coefficients(rng, 12)],
        [complex(c) for c in _draw_coefficients(rng, 12, imag=True)],
    )
    return {
        name: rf.mask_from_coefficients(c, name=name)
        for name, c in zip(GRID_MASK_NAMES, coefficients)
    }


@pytest.fixture(scope="session")
def corpus() -> dict[str, rf.Mask]:
    return {name: make_mask(name) for name in CORPUS_SPECS}


@pytest.fixture(scope="session")
def all_masks(corpus) -> list[rf.Mask]:
    return list(corpus.values()) + random_masks()


@pytest.fixture(scope="session")
def pipeline():
    """Memoized (scale, spectral, phi, basis) per mask/level/interval."""
    cache: dict = {}

    def get(mask: rf.Mask, level: int = 8, interval: tuple[int, int] = (-1, 1)):
        key = (mask.name, level, interval)
        if key not in cache:
            scale = rf.build_scale_matrices(mask)
            spectral = rf.eigen_structure(scale)
            basis = rf.build_homogeneous_basis(spectral, level=level, interval=interval)
            cache[key] = (scale, spectral, basis.phi, basis)
        return cache[key]

    return get
