"""Exact spectral results and exact accuracy coefficients, held to a record.

``data/exact_golden.json`` lists masks and, for each, a SHA-256 digest of
its exact result: the exact basis and Jordan matrix, each group's exact
eigenvalue, algebraic multiplicity and chain lengths, the role of each
row, and the exact accuracy coefficients. The masks are the B-splines of
orders 1 to 24, ``jordan13`` (an insertion layout) and seeded random
rational masks with N from 2 to 10 and denominators from 2 to 16 whose
spectrum is rational; more than 20 of them have a Jordan chain longer
than 1. RREF, kernels, products and normalised chains are unique, so any
correct exact arithmetic reproduces every digest.

Regenerate the record with ``PYTHONPATH=src python tests/test_exact_golden.py`` only when
the exact results are meant to change.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

import refinable as rf

DATA = Path(__file__).resolve().parent / "data" / "exact_golden.json"

DRAW_SEED = 20261020
DRAWS = 2000


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def exact_text(coefficients) -> str:
    """A canonical text of the exact results of one rational mask."""
    scale = rf.build_scale_matrices(rf.mask_from_coefficients(coefficients))
    spectral = rf.eigen_structure(scale, exact=True)
    acc = rf.accuracy(scale, exact=True)
    doc = {
        "basis": [[_q(x) for x in row] for row in spectral.exact_basis],
        "jordan": [[_q(x) for x in row] for row in spectral.exact_jordan],
        "groups": [[_q(g.exact_eigenvalue), g.algebraic, list(g.chain_lengths)] for g in spectral.groups],
        "rows": [
            [info.index, repr(info.eigenvalue), info.kind, info.chain, info.position, info.prev_row]
            for info in spectral.rows
        ],
        "canonical": spectral.jordan_canonical,
        "accuracy": [[_q(x) for x in a] for a in acc.exact_coefficients],
    }
    return json.dumps(doc, separators=(",", ":"))


def digest(coefficients) -> str:
    return hashlib.sha256(exact_text(coefficients).encode()).hexdigest()


def _bspline(order: int) -> list[str]:
    return [str(Fraction(comb(order, k), 2 ** (order - 1))) for k in range(order + 1)]


def _draw(rng: np.random.Generator) -> list[str]:
    """Multiples of 1/den in [-1, 2), even and odd sums 1, c_0 and c_N nonzero."""
    n, den = int(rng.integers(2, 11)), int(rng.integers(2, 17))
    while True:
        c = [Fraction(int(x), den) for x in rng.integers(-den, 2 * den, n + 1)]
        for parity in (0, 1):
            idx = list(range(parity, n + 1, 2))
            fix = idx[int(rng.integers(len(idx)))]
            c[fix] += 1 - sum(c[i] for i in idx)
        if c[0] != 0 and c[n] != 0:
            return [str(x) for x in c]


def _record() -> list[dict]:
    masks = [(f"bspline{m}", _bspline(m)) for m in range(1, 25)]
    masks.append(("jordan13", ["1/3", "2/3", "2/3", "1/3"]))
    rng = np.random.default_rng(DRAW_SEED)
    masks += [(f"draw{i}", _draw(rng)) for i in range(DRAWS)]
    record = []
    for name, c in masks:
        try:
            spectral = rf.eigen_structure(rf.build_scale_matrices(rf.mask_from_coefficients(c)), exact=True)
        except rf.SpectralError:
            continue
        long_chain = max(max(g.chain_lengths) for g in spectral.groups) > 1
        record.append({"name": name, "coefficients": c, "long_chain": long_chain, "digest": digest(c)})
    return record


RECORD = json.loads(DATA.read_text()) if DATA.exists() else []


def test_record_covers_the_layouts_and_long_chains():
    names = {entry["name"] for entry in RECORD}
    assert {f"bspline{m}" for m in range(1, 25)} | {"jordan13"} <= names
    long_chains = sum(entry["long_chain"] for entry in RECORD if entry["name"].startswith("draw"))
    assert long_chains >= 20


@pytest.mark.parametrize("entry", RECORD, ids=[entry["name"] for entry in RECORD])
def test_exact_results_match_the_record(entry):
    assert digest(entry["coefficients"]) == entry["digest"]


if __name__ == "__main__":
    record = _record()
    DATA.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{len(record)} masks, {sum(e['long_chain'] for e in record)} with a chain longer than 1", file=sys.stderr)
