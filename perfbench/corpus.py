"""Mask pools and seeded job lists for the three benchmark workloads.

Every pool is generated from fixed seeds, so ``reference.json`` covers
every mask a job can use.  A job list takes one job from each stratum of
the pool (``strata.json``) and the workload seed picks which one, then
shuffles the order.  A fixed mask, such as a B-spline or a worked mask,
is a stratum of its own.  The random masks of a family (``Job.family``)
are sorted by their outcome when the reference was recorded (exit code,
and for ``spectrum`` whether the result was exact) and then by their cost,
and cut into strata of ``CANDIDATES`` masks of adjacent cost.  Every seed
therefore gets the same number of battery failures and exact-path
fallbacks, and nearly the same spread of job costs, while the masks
themselves change with the seed.  Drawing masks freely instead moves the
count of failing ``verify`` jobs by about a quarter, and the 90th
percentile of ``spectrum`` job times by a third, from seed to seed.

Why each workload exists:

* ``spectrum`` runs ``refinable spectrum MASK --out DIR`` in auto mode.  It
  exercises the exact Fraction path (``exact``, ``spectral``) and skips the
  cascade, the translate synthesis and the CSV writer.  The B-spline masks
  have rational spectra; most random rational masks have irrational
  spectra, so auto mode runs the exact attempt and then falls back to
  float.  Two masks with denominator 16 and N of 9 and 10 keep trial
  division in ``exact.rational_roots`` busy for about a minute, far past
  the per-job deadline (``HARD_DRAWS``); they stay in the workload so
  that the hang shows as failed jobs instead of being left out.
* ``basis`` runs ``refinable basis MASK --level 8 --interval A B --out
  DIR`` on random float masks.  Its time goes to the ``report`` CSV writer
  with a little float ``spectral`` and ``evaluate`` work; it never reaches
  the exact path.
* ``verify`` runs ``refinable verify MASK --level 14`` on random float
  masks and the worked masks.  Deep levels on a narrow interval put its
  time into the translate synthesis, the cascade kernel and the battery
  checks; ``jordan13`` drives the Jordan-chain extensions and ``half`` the
  ``diffeq`` / ``kernel_of_L`` dependency witness.  About one random mask
  in eight fails the ``homogeneity`` or ``accuracy-reproduction`` check
  through the battery's tolerance scaling; they are kept as they are.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np

STRATA = Path(__file__).resolve().parent / "strata.json"

POOL_SEED = 20261017
CANDIDATES = 2

# Copies of masks/*.json, so that the inputs stay fixed with the reference.
WORKED = {
    "bspline3": ["1/4", "3/4", "3/4", "1/4"],
    "d4": [0.6830127018922193, 1.1830127018922193, 0.3169872981077807, -0.1830127018922193],
    "jordan13": ["1/3", "2/3", "2/3", "1/3"],
    "half": ["1/2", "1/2", "1/2", "1/2"],
}

BSPLINE_ORDERS = range(2, 12)
SPECTRUM_RATIONAL_N = range(2, 9)
SPECTRUM_DENOMINATORS = (2, 4, 8)
SPECTRUM_RATIONAL_PER_GROUP = 2
SPECTRUM_FLOAT_N = range(2, 17)
SPECTRUM_FLOAT_PER_GROUP = 3
# N -> index of the draw used; numerators span [-3, 6) so that the constant
# term of the integer characteristic polynomial reaches about 1e17.  One
# `refinable spectrum` job without the deadline, at the commit the
# reference was recorded on (2-CPU x86-64 container, Python 3.11), took
# 52.3 s and 49.4 s for N = 9, and 60.2 s and 58.5 s for N = 10.
HARD_DRAWS = {9: 4, 10: 2}
HARD_DENOMINATOR = 16
HARD_SPREAD = 3

BASIS_LEVEL = 8
BASIS_N = range(2, 14)
BASIS_INTERVALS = ((-1, 1), (-2, 2), (-4, 4))
BASIS_PER_GROUP = 3

VERIFY_LEVEL = 14
VERIFY_N = range(1, 13)
VERIFY_PER_GROUP = 8

WORKLOADS = ("spectrum", "basis", "verify")


@dataclass(frozen=True)
class Job:
    """One CLI call: ``key`` names its reference; ``argv`` has placeholders.

    ``family`` is None for a fixed mask and names the generator otherwise.
    """

    key: str
    mask: dict
    argv: tuple[str, ...]
    family: str | None = None

    def cli_args(self, out: str) -> list[str]:
        text = json.dumps(self.mask, separators=(",", ":"))
        return [{"{out}": out, "{mask}": text}.get(a, a) for a in self.argv]


def bspline(order: int) -> list[str]:
    """Mask of the B-spline of the given order: binom(m, k) / 2^(m-1)."""
    return [str(Fraction(comb(order, k), 2 ** (order - 1))) for k in range(order + 1)]


def float_coefficients(rng: np.random.Generator, n: int) -> list[float]:
    """The test-suite recipe: even and odd sums normalized to 1 separately."""
    while True:
        c = rng.normal(size=n + 1)
        even, odd = c[0::2].sum(), c[1::2].sum()
        if min(abs(even), abs(odd)) < 0.2:
            continue
        c[0::2] /= even
        c[1::2] /= odd
        if min(abs(c[0]), abs(c[n])) < 0.05 or np.abs(c).max() > 20:
            continue
        return [float(x) for x in c]


def rational_coefficients(rng: np.random.Generator, n: int, denominator: int, spread: int = 1) -> list[str]:
    """Multiples of 1/denominator in [-spread, 2 spread), even and odd sums 1."""
    while True:
        k = rng.integers(-spread * denominator, 2 * spread * denominator, n + 1)
        c = [Fraction(int(x), denominator) for x in k]
        for parity in (0, 1):
            idx = list(range(parity, n + 1, 2))
            fix = idx[int(rng.integers(len(idx)))]
            c[fix] += 1 - sum(c[i] for i in idx)
        if c[0] != 0 and c[n] != 0:
            return [str(x) for x in c]


def _fixed(key: str, coefficients, argv) -> list[Job]:
    name = key.rsplit("/", 1)[1]
    return [Job(key, {"name": name, "coefficients": list(coefficients)}, argv)]


def _drawn(key: str, count: int, draw, argv) -> list[Job]:
    name = key.rsplit("/", 1)[1]
    family = key.split("_", 1)[0]
    return [
        Job(f"{key}/{i}", {"name": name, "coefficients": draw()}, argv, family)
        for i in range(count * CANDIDATES)
    ]


def spectrum_pool() -> list[Job]:
    rng = np.random.default_rng([POOL_SEED, 1])
    argv = ("spectrum", "{mask}", "--out", "{out}")
    jobs = [j for m in BSPLINE_ORDERS for j in _fixed(f"spectrum/bspline{m}", bspline(m), argv)]
    jobs += [j for name, c in WORKED.items() for j in _fixed(f"spectrum/{name}", c, argv)]
    for n in SPECTRUM_RATIONAL_N:
        for den in SPECTRUM_DENOMINATORS:
            draw = lambda: rational_coefficients(rng, n, den)  # noqa: E731
            jobs += _drawn(f"spectrum/rat_n{n}_d{den}", SPECTRUM_RATIONAL_PER_GROUP, draw, argv)
    for n in SPECTRUM_FLOAT_N:
        draw = lambda: float_coefficients(rng, n)  # noqa: E731
        jobs += _drawn(f"spectrum/flt_n{n}", SPECTRUM_FLOAT_PER_GROUP, draw, argv)
    for n, index in HARD_DRAWS.items():
        hard = np.random.default_rng([POOL_SEED, 4])
        for _ in range(index + 1):
            c = rational_coefficients(hard, n, HARD_DENOMINATOR, HARD_SPREAD)
        jobs += _fixed(f"spectrum/hard_n{n}", c, argv)
    return jobs


def basis_pool() -> list[Job]:
    rng = np.random.default_rng([POOL_SEED, 2])
    jobs = []
    for n in BASIS_N:
        for lo, hi in BASIS_INTERVALS:
            argv = ("basis", "{mask}", "--level", str(BASIS_LEVEL), "--interval", str(lo), str(hi), "--out", "{out}")
            draw = lambda: float_coefficients(rng, n)  # noqa: E731
            jobs += _drawn(f"basis/flt_n{n}_w{hi - lo}", BASIS_PER_GROUP, draw, argv)
    return jobs


def verify_pool() -> list[Job]:
    rng = np.random.default_rng([POOL_SEED, 3])
    argv = ("verify", "{mask}", "--level", str(VERIFY_LEVEL))
    jobs = [j for name, c in WORKED.items() for j in _fixed(f"verify/{name}", c, argv)]
    for n in VERIFY_N:
        draw = lambda: float_coefficients(rng, n)  # noqa: E731
        jobs += _drawn(f"verify/flt_n{n}", VERIFY_PER_GROUP, draw, argv)
    return jobs


POOLS = {"spectrum": spectrum_pool, "basis": basis_pool, "verify": verify_pool}


def pool(workload: str) -> list[Job]:
    return POOLS[workload]()


def jobs(workload: str, seed: int, strata: dict[str, str] | None = None) -> list[Job]:
    """The job list of one workload for one seed (see the module docstring)."""
    if strata is None:
        strata = json.loads(STRATA.read_text())
    members: dict[str, list[Job]] = {}
    for job in pool(workload):
        members.setdefault(strata.get(job.key, job.key), []).append(job)
    rng = random.Random(f"{workload}:{seed}")
    picked = [rng.choice(members[stratum]) for stratum in sorted(members)]
    rng.shuffle(picked)
    return picked
