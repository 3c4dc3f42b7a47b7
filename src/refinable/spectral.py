"""Left Jordan structure of the scale matrix, plus the spectral byproducts.

The scale matrix T = (c_{2i-j}) acts on sample vectors by v -> v T (row
vectors throughout). Its first and last rows are (c_0, 0, ...) and
(..., 0, c_N), so e_0 and e_N are always left eigenvectors, the spectrum of
T is {c_0, c_N} plus the spectrum of the core M, and powers of T - lam I
keep the corner structure.

``eigen_structure`` produces a full left Jordan basis, with two sample-value
conventions: the chain bottom for the eigenvalue c_0 is regauged to e_0
(first in its eigenvalue group) and the bottom for c_N to e_N (moved to the
global last row). When the forced structure of a Jordan block makes that
regauge impossible, e_0 and e_N are inserted as standalone eigenvector rows
instead and the basis stops being a strict Jordan basis
(``jordan_canonical = False``); conventions win over canonical form.

The chains, the corner regauge, both row layouts and the final checks are
written once (``_build``) over an arithmetic object. ``_FloatField`` works
in numpy: eigenvalues clustered at ``CLUSTER_RTOL``, SVD rank decisions,
and a condition-number and residual check; its failures raise ``_Retry``,
which ``eigen_structure`` reports as ClusteringError with no second try (a
coarser clustering can merge eigenvalues into a wrong structure that passes
the checks). ``_ExactField`` works with Fractions through ``exact``:
rational roots, RREF ranks, equality tests, and the exact identity basis T
== jordan basis; its failures raise SpectralError, on which auto mode falls
back to floats.

For a real scale matrix the float path builds each conjugate pair once.
Clusters with Im lambda above the clustering tolerance are the pairs; each
is matched with the one cluster of the same multiplicity within that
tolerance of conj(lambda), its partner, or the matrix is refused with a
ClusteringError that names it. The partner group takes conj(lambda) and
the conjugate of each of its pair's chain vectors, in the same order:
conj(v) (T - conj(lambda) I) = conj(v (T - lambda I)) for a real T, so
the conjugated chains are Jordan chains, normalized as their pair's are.
Real clusters, whose centers may carry an imaginary part below the
tolerance, and the pairs keep the clustering and chains they would have
alone; a partner row records its pair row in ``RowInfo.conjugate_of``.
Complex matrices, which only the Python API builds, are not paired.

``accuracy`` is one routine over Fractions or complex values: the sum rules
counted by synthetic division of the symbol, one triangular solve per
reproduced polynomial, and v T = 2^-s v as the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

import numpy as np

from . import exact as xq
from . import numeric as nm
from .diffeq import is_exact, root_triples
from .errors import ClusteringError, SpectralError
from .extension import subdivision_system
from .mask import ScaleMatrices

CLUSTER_RTOL = 1e-8
RESIDUAL_RTOL = 1e-7  # minimal_order's zero test; regauge and accuracy residuals
SUM_RULE_RTOL = 1e-8  # float remainder of each division of the symbol by (1 + z)
STAIRCASE_REL = 1e-10
CONDITION_LIMIT = 1e10

VERDICT_DEPENDENT = "translates DEPENDENT"
VERDICT_INDEPENDENT = "independence not contradicted"


def _check_scale(scale) -> None:
    if not isinstance(scale, ScaleMatrices):
        raise TypeError(f"expected ScaleMatrices (build_scale_matrices(mask)), got {type(scale).__name__}")


# ---------------------------------------------------------------------------
# result types

@dataclass(frozen=True)
class EigenvalueGroup:
    """One distinct eigenvalue (float path: one cluster) of the scale matrix."""

    eigenvalue: complex
    algebraic: int
    geometric: int
    chain_lengths: tuple[int, ...]
    spread: float = 0.0
    exact_eigenvalue: Fraction | None = None


@dataclass(frozen=True)
class RowInfo:
    """Role of one basis row: its eigenvalue and place in a chain.

    In a Jordan-canonical basis the rows of chain ``chain`` are its vectors
    v_1, ..., v_m, with v_1 (T - lam I) = 0 and v_{j+1} (T - lam I) = v_j,
    the row ``prev_row``.
    """

    index: int
    eigenvalue: complex
    kind: str  # 'chain' or 'convention' (inserted corner eigenvector)
    chain: int | None
    position: int  # 0 for a bottom (an eigenvector), j for v_{j+1}
    prev_row: int | None
    conjugate_of: int | None = None  # the row this one is the exact conjugate of


@dataclass(frozen=True)
class SpectralData:
    """Left eigen/Jordan data of a scale matrix, rows ordered by convention.

    Rows of ``basis`` are the left basis vectors; when ``jordan_canonical``
    holds, basis @ T = jordan @ basis with ``jordan`` lower Jordan (ones on
    the subdiagonal inside each chain, bottoms below tops). Groups are
    ordered by decreasing |eigenvalue| (angle breaks ties), the e_0
    convention row leads its group, and the e_N convention row is the global
    last row. ``residual`` is max |basis @ T - jordan @ basis|.
    ``exact_fallback`` is the reason the exact path gave up when auto mode
    fell back to floats for a rational mask, and None otherwise.
    """

    scale: ScaleMatrices
    groups: tuple[EigenvalueGroup, ...]
    rows: tuple[RowInfo, ...]
    basis: np.ndarray
    jordan: np.ndarray
    jordan_canonical: bool
    convention_first: bool
    convention_last: bool
    residual: float
    is_exact: bool = False
    exact_basis: tuple[tuple[Fraction, ...], ...] | None = None
    exact_jordan: tuple[tuple[Fraction, ...], ...] | None = None
    exact_fallback: str | None = None

    @property
    def n(self) -> int:
        return self.scale.n


class _Retry(Exception):
    """Internal: a float check failed; the clustering is not trusted."""


# ---------------------------------------------------------------------------
# shared helpers

def _group_key(lam: complex):
    return (-round(abs(lam), 12), round(float(np.angle(lam)), 12))


def _partition_from_weyr(weyr):
    """Chain lengths (descending) from Weyr counts w_k = #chains of length >= k."""
    lengths = []
    n_chains = weyr[0] if weyr else 0
    for j in range(n_chains):
        lengths.append(sum(1 for w in weyr if w > j))
    return lengths


# ---------------------------------------------------------------------------
# arithmetic: the only steps of the pipeline that differ between floats
# and Fractions. Vectors are numpy rows or Fraction lists; matrices are
# numpy arrays or lists of Fraction rows.

class _FloatField:
    """numpy arithmetic: SVD rank decisions, tolerances and residual checks."""

    exact = False
    failure = _Retry
    one = 1.0

    def __init__(self, scale: ScaleMatrices):
        self.t = scale.full
        self.size = scale.n + 1
        self.tol = 0.0  # the clustering tolerance, set by ``eigenvalues``

    def eigenvalues(self):
        values = np.linalg.eigvals(self.t)
        self.tol = nm.cluster_tolerance(values, CLUSTER_RTOL)
        return nm.clusters(values, CLUSTER_RTOL)

    def conjugate_pairs(self, clusters):
        """{partner: pair} over the indices of ``clusters`` for a real
        matrix: each cluster with Im lam above the clustering tolerance is
        the pair of the one cluster of the same multiplicity within that
        tolerance of conj(lam). A complex matrix has no pairs."""
        if self.t.imag.any():
            return {}
        pairs = {}
        for i, (lam, algebraic, _) in enumerate(clusters):
            if lam.imag <= self.tol:
                continue
            found = [
                j
                for j, (mu, count, _) in enumerate(clusters)
                if count == algebraic and abs(mu - lam.conjugate()) <= self.tol
            ]
            if len(found) != 1 or found[0] in pairs:
                raise _Retry(f"complex cluster {lam:.6g} has no conjugate partner")
            pairs[found[0]] = i
        for j, (mu, _, _) in enumerate(clusters):
            if mu.imag < -self.tol and j not in pairs:
                raise _Retry(f"complex cluster {mu:.6g} has no conjugate partner")
        return pairs

    def label(self, lam):
        return lam, None

    def is_corner(self, lam, spread, index):
        tol = max(spread * 4.0, CLUSTER_RTOL * max(1.0, abs(lam)))
        return abs(lam - complex(self.t[index, index])) <= tol

    def identity(self):
        return np.eye(self.size, dtype=complex)

    def zeros(self):
        return np.zeros((self.size, self.size), dtype=complex)

    def shift(self, lam):
        return self.t - lam * np.eye(self.size, dtype=complex)

    def mat_mul(self, a, b):
        return a @ b

    def vec_mat(self, v, a):
        return v @ a

    def left_kernel(self, power, k, spread):
        # the cluster spread, raised to the power, floors the cutoff
        svd = nm.svd_rank(power.T, STAIRCASE_REL, (4.0 * spread) ** k)
        if svd.cutoff > 0.5 * svd.smax:
            raise _Retry(f"staircase cutoff swamped power {k} of the shifted matrix")
        return svd.vh[svd.rank :].conj()

    def new_tops(self, base_rows, cands, count):
        """The count directions of cands farthest from the span of base_rows."""
        resid = np.array(cands, dtype=complex)
        if base_rows:
            base = nm.orthonormal_rows(np.array(base_rows))
            resid -= (resid @ base.conj().T) @ base
        _, svals, vt = np.linalg.svd(resid)
        if len(svals) < count or svals[count - 1] < 1e-8:
            raise _Retry(f"could not separate {count} new chain tops")
        return list(vt[:count])

    def normalize(self, vectors):
        """Scale a chain so that its bottom has unit norm and a real positive
        largest entry."""
        bottom = vectors[0]
        norm = float(np.linalg.norm(bottom))
        if norm == 0.0:
            raise SpectralError("degenerate zero chain bottom")
        idx = int(np.argmax(np.abs(bottom)))
        phase = bottom[idx] / abs(bottom[idx])
        factor = 1.0 / (norm * phase)
        return [v * factor for v in vectors]

    def regauge_coefficients(self, bottoms, target):
        """Least-squares alpha with sum alpha_i bottoms_i = target and the
        indices of its significant entries, or None when the fit fails."""
        bottoms = np.array(bottoms)
        alpha, *_ = np.linalg.lstsq(bottoms.T, target, rcond=None)
        fit = bottoms.T @ alpha - target
        if float(np.abs(fit).max()) > RESIDUAL_RTOL:
            return None
        floor = 1e-8 * max(1.0, np.abs(alpha).max())
        return alpha, [i for i in range(len(alpha)) if abs(alpha[i]) > floor]

    def combine(self, coeffs, vectors):
        out = np.zeros(self.size, dtype=complex)
        for a, v in zip(coeffs, vectors):
            out += a * v
        return out

    def complete(self, preset, cands, count):
        """Indices of cands kept greedily while the rank over preset grows."""
        basis = nm.orthonormal_rows(np.array(preset)) if preset else None
        rank = 0 if basis is None else basis.shape[0]
        kept = []
        for i, vec in enumerate(cands):
            if len(kept) == count:
                break
            trial = vec[None, :] if basis is None else np.vstack([basis, vec[None, :]])
            q = nm.orthonormal_rows(trial)
            if q.shape[0] > rank:
                basis, rank = q, q.shape[0]
                kept.append(i)
        return kept

    def certify(self, basis, jordan):
        """(jordan, residual) after the condition and residual checks; an
        insertion layout passes jordan=None and gets basis T basis^-1."""
        cond = np.linalg.cond(basis)
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise _Retry(f"basis condition number {cond:.3g} too large")
        if jordan is None:
            jordan = basis @ self.t @ np.linalg.inv(basis)
        residual = float(np.abs(basis @ self.t - jordan @ basis).max())
        if residual > 1e-6 * max(1.0, float(np.abs(self.t).max())):
            raise _Retry(f"jordan residual {residual:.3g} too large")
        return jordan, residual

    def to_complex(self, matrix):
        return matrix


class _ExactField:
    """Fraction arithmetic through ``exact``: RREF ranks, equality tests and
    the exact identity basis T == jordan basis.

    The helpers are looked up on the ``exact`` module at call time, so that
    wrappers installed there see every call.
    """

    exact = True
    failure = SpectralError
    one = xq.ONE

    def __init__(self, scale: ScaleMatrices):
        if scale.exact_full is None:
            raise SpectralError("exact spectral mode needs a rational mask")
        self.t = scale.exact_rows()
        self.size = scale.n + 1

    def eigenvalues(self):
        roots, leftovers = xq.rational_roots(xq.charpoly(self.t))
        if leftovers:
            degrees = [xq.poly_degree(f) for f, _ in leftovers]
            raise SpectralError(
                "exact spectral mode needs a fully rational spectrum; "
                f"factors of degrees {degrees} with no rational root remain"
            )
        return [(lam, algebraic, 0.0) for lam, algebraic in roots]

    def label(self, lam):
        return complex(float(lam)), lam

    def is_corner(self, lam, spread, index):
        return lam == self.t[index][index]

    def conjugate_pairs(self, clusters):
        return {}  # a rational spectrum is real

    def identity(self):
        return xq.identity(self.size)

    def zeros(self):
        return xq.zeros(self.size, self.size)

    def shift(self, lam):
        return [[x - (lam if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(self.t)]

    def mat_mul(self, a, b):
        return xq.mat_mul(a, b)

    def vec_mat(self, v, a):
        return xq.vec_mat(v, a)

    def left_kernel(self, power, k, spread):
        return xq.left_nullspace(power)

    def new_tops(self, base_rows, cands, count):
        return [cands[i] for i in self.complete(base_rows, cands, count)]

    def normalize(self, vectors):
        """Scale a chain so that the first nonzero entry of its bottom is 1."""
        lead = next((c for c in vectors[0] if c != 0), None)
        if lead is None:
            raise SpectralError("degenerate zero chain bottom")
        inv = xq.ONE / lead
        return [[c * inv for c in v] for v in vectors]

    def regauge_coefficients(self, bottoms, target):
        alpha = xq.solve(xq.transpose(bottoms), target)
        if alpha is None:
            return None
        return alpha, [i for i, a in enumerate(alpha) if a != 0]

    def combine(self, coeffs, vectors):
        out = [xq.ZERO] * self.size
        for a, v in zip(coeffs, vectors):
            out = [x + a * y for x, y in zip(out, v)]
        return out

    def complete(self, preset, cands, count):
        base = list(preset)
        current = xq.rank(base) if base else 0
        kept = []
        for i, vec in enumerate(cands):
            if len(kept) == count:
                break
            trial = base + [vec]
            r = xq.rank(trial)
            if r > current:
                base, current = trial, r
                kept.append(i)
        return kept

    def certify(self, basis, jordan):
        if jordan is None:
            jordan = xq.mat_mul(xq.mat_mul(basis, self.t), xq.inverse(basis))
        if xq.mat_mul(basis, self.t) != xq.mat_mul(jordan, basis):
            raise SpectralError("exact Jordan identity failed (internal error)")
        return jordan, 0.0

    def to_complex(self, matrix):
        return np.array([[complex(float(c)) for c in row] for row in matrix])


# ---------------------------------------------------------------------------
# the pipeline, written once over either arithmetic

class _Chain:
    __slots__ = ("vectors", "convention")

    def __init__(self, vectors, convention=None):
        self.vectors = vectors  # bottom v_1 first
        self.convention = convention

    @property
    def length(self):
        return len(self.vectors)

    @property
    def bottom(self):
        return self.vectors[0]


def _chains_for_group(field, lam, algebraic, spread):
    """Top-down left Jordan chains for one eigenvalue (float: one cluster)."""
    shift = field.shift(lam)
    pows = [field.identity()]
    kernels = [[]]  # left kernel of each power; the nullity is its length
    while len(kernels) <= algebraic:
        pows.append(field.mat_mul(pows[-1], shift) if len(pows) > 1 else shift)
        kernel = field.left_kernel(pows[-1], len(pows) - 1, spread)
        if len(kernel) == len(kernels[-1]):
            break
        kernels.append(kernel)
        if len(kernel) >= algebraic:
            break
    if len(kernels[-1]) != algebraic:
        raise field.failure(
            f"generalized eigenspace of {lam} has dimension {len(kernels[-1])} != {algebraic}"
        )
    weyr = [len(kernels[k]) - len(kernels[k - 1]) for k in range(1, len(kernels))]
    deepest = len(weyr)
    chains = []
    for h in range(deepest, 0, -1):
        new_tops = weyr[h - 1] - (weyr[h] if h < deepest else 0)
        if new_tops == 0:
            continue
        base = list(kernels[h - 1])
        base += [chain.vectors[h - 1] for chain in chains]  # level h of longer chains
        tops = field.new_tops(base, kernels[h], new_tops)
        if len(tops) != new_tops:
            raise field.failure(f"could not build {new_tops} chain tops for eigenvalue {lam}")
        for top in tops:
            vectors = [field.vec_mat(top, pows[h - j]) for j in range(1, h + 1)]  # v_1 .. v_h
            chains.append(_Chain(field.normalize(vectors)))
    chains.sort(key=lambda c: -c.length)
    if [c.length for c in chains] != _partition_from_weyr(weyr):
        raise field.failure(f"chain partition mismatch for eigenvalue {lam}")
    return chains, weyr


def _regauge(field, chains, target, tag):
    """Replace one chain so that ``target`` becomes a chain bottom.

    Any vector in the eigenspace is a combination of the bottoms; replacing a
    minimal-length contributing chain with the matching combination of whole
    chains keeps the Jordan partition and makes the new bottom exactly the
    target. Returns False when every minimal contributing chain is protected
    (already carries the other corner convention).
    """
    fit = field.regauge_coefficients([c.bottom for c in chains], target)
    if fit is None:
        return False
    alpha, significant = fit
    if not significant:
        return False
    m = min(chains[i].length for i in significant)
    victim = next(
        (i for i in significant if chains[i].length == m and chains[i].convention is None),
        None,
    )
    if victim is None:
        return False
    coeffs = [alpha[i] for i in significant]
    vectors = [
        field.combine(coeffs, [chains[i].vectors[k] for i in significant]) for k in range(m)
    ]
    vectors[0] = target  # snap away the float lstsq noise; exact sums already equal it
    chains[victim] = _Chain(vectors, tag)
    return True


def _group(field, corners, lam, algebraic, spread):
    """(lam, chains, conventions, canonical) and the EigenvalueGroup of one
    cluster: its chains, with each corner unit vector it owns regauged to
    a chain bottom where the Jordan structure allows."""
    chains, weyr = _chains_for_group(field, lam, algebraic, spread)
    conventions = [tag for tag, i in corners.items() if field.is_corner(lam, spread, i)]
    canonical = True
    for tag in conventions:
        if not _regauge(field, chains, field.identity()[corners[tag]], tag):
            canonical = False
    eigenvalue, exact_eigenvalue = field.label(lam)
    group = EigenvalueGroup(
        eigenvalue=eigenvalue,
        algebraic=algebraic,
        geometric=weyr[0],
        chain_lengths=tuple(sorted((c.length for c in chains), reverse=True)),
        spread=spread,
        exact_eigenvalue=exact_eigenvalue,
    )
    return (lam, chains, conventions, canonical), group


def _conjugate_group(built):
    """The group of conj(lam) from that of lam, for a real matrix: every
    chain vector conjugated, in the same order."""
    (lam, chains, conventions, canonical), group = built
    chains = [_Chain([v.conjugate() for v in c.vectors], c.convention) for c in chains]
    return (lam.conjugate(), chains, conventions, canonical), replace(group, eigenvalue=group.eigenvalue.conjugate())


def _conjugate_rows(rows, basis, pairs, groups):
    """Mark the rows of each partner group that are exactly the conjugates
    of their pair group's rows, matched in row order."""
    rows_of = {}
    for info in rows:
        rows_of.setdefault(info.eigenvalue, []).append(info.index)
    conjugate_of = {}
    for partner, pair in pairs.items():
        for r, q in zip(rows_of[groups[partner].eigenvalue], rows_of[groups[pair].eigenvalue]):
            if np.array_equal(basis[r], basis[q].conjugate()):
                conjugate_of[r] = q
    return [replace(info, conjugate_of=conjugate_of.get(info.index)) for info in rows]


def _build(scale: ScaleMatrices, field) -> SpectralData:
    corners = {"e0": 0, "eN": field.size - 1}
    clusters = sorted(field.eigenvalues(), key=lambda g: _group_key(field.label(g[0])[0]))
    # the chains of each pair are built once; its partner group conjugates them
    pairs = field.conjugate_pairs(clusters)
    built = {i: _group(field, corners, *cluster) for i, cluster in enumerate(clusters) if i not in pairs}
    built.update((i, _conjugate_group(built[pair])) for i, pair in pairs.items())
    group_chains = [built[i][0] for i in range(len(clusters))]
    groups = [built[i][1] for i in range(len(clusters))]
    jordan_canonical = all(entry[3] for entry in group_chains)
    if jordan_canonical:
        basis, rows, jordan = _layout_canonical(field, group_chains)
    else:
        basis, rows = _layout_insertion(field, group_chains)
        jordan = None
    jordan, residual = field.certify(basis, jordan)
    if pairs:
        rows = _conjugate_rows(rows, basis, pairs, groups)
    exact_basis = exact_jordan = None
    if field.exact:
        exact_basis = tuple(tuple(row) for row in basis)
        exact_jordan = tuple(tuple(row) for row in jordan)
    # Each convention is now a chain bottom (e_N's on the last row) or an
    # inserted row (e_0 first in its group, e_N last); a layout that put
    # either twice fails the certification above.
    return SpectralData(
        scale=scale,
        groups=tuple(groups),
        rows=tuple(rows),
        basis=field.to_complex(basis),
        jordan=field.to_complex(jordan),
        jordan_canonical=jordan_canonical,
        convention_first=any("e0" in entry[2] for entry in group_chains),
        convention_last=any("eN" in entry[2] for entry in group_chains),
        residual=residual,
        is_exact=field.exact,
        exact_basis=exact_basis,
        exact_jordan=exact_jordan,
    )


def _ordered_chains(chains):
    """Within a group: e0 chain first, eN chain last, others longest first."""
    def key(item):
        idx, chain = item
        if chain.convention == "e0":
            return (0, 0, idx)
        if chain.convention == "eN":
            return (2, 0, idx)
        return (1, -chain.length, idx)

    return [chain for _, chain in sorted(enumerate(chains), key=key)]


def _canonical_order(group_chains):
    """(lam, chain, reversed?) emission order: eN chain last, bottom at the end.

    Chains are emitted bottom-to-top, except the e_N convention chain, whose
    block is pulled to the global tail and emitted top-to-bottom so that the
    e_N vector itself lands on the very last row.
    """
    ordered = []
    tail_chain = None
    for lam, chains, conventions, _ in group_chains:
        for chain in _ordered_chains(chains):
            if chain.convention == "eN":
                tail_chain = (lam, chain, True)
            else:
                ordered.append((lam, chain, False))
    if tail_chain is not None:
        ordered.append(tail_chain)
    return ordered


def _layout_canonical(field, group_chains):
    basis = field.zeros()
    jordan = field.zeros()
    rows = []
    r = 0
    for number, (lam, chain, flipped) in enumerate(_canonical_order(group_chains)):
        eigenvalue = field.label(lam)[0]
        positions = list(range(chain.length))
        if flipped:
            positions.reverse()
        row_of = {}
        for pos in positions:
            basis[r] = chain.vectors[pos]
            row_of[pos] = r
            r += 1
        for pos in positions:
            index = row_of[pos]
            prev_row = row_of[pos - 1] if pos else None
            rows.append(
                RowInfo(
                    index=index,
                    eigenvalue=eigenvalue,
                    kind="chain",
                    chain=number,
                    position=pos,
                    prev_row=prev_row,
                )
            )
            jordan[index][index] = lam
            if prev_row is not None:
                jordan[index][prev_row] = field.one
    rows.sort(key=lambda info: info.index)
    return basis, rows, jordan


def _layout_insertion(field, group_chains):
    """Basis with e_0 / e_N literally inserted; chain rows complete greedily.

    Each eigenvalue group keeps exactly its algebraic multiplicity of rows:
    the inserted corner eigenvectors plus a maximal independent subset of the
    group's chain vectors. The e_N row is pulled to the global last position.
    """
    e0, en = field.identity()[0], field.identity()[-1]
    vectors = []
    rows_meta = []  # (lam, kind, position)
    tail = None
    for lam, chains, conventions, _ in group_chains:
        algebraic = sum(c.length for c in chains)
        preset = [e for tag, e in (("e0", e0), ("eN", en)) if tag in conventions]
        candidates = [(pos, vec) for chain in _ordered_chains(chains) for pos, vec in enumerate(chain.vectors)]
        kept = field.complete(preset, [vec for _, vec in candidates], algebraic - len(preset))
        if len(preset) + len(kept) != algebraic:
            raise field.failure("insertion completion found too few independent rows")
        if "e0" in conventions:
            vectors.append(e0)
            rows_meta.append((lam, "convention", 0))
        for i in kept:
            pos, vec = candidates[i]
            vectors.append(vec)
            rows_meta.append((lam, "chain", pos))
        if "eN" in conventions:
            tail = lam
    if tail is not None:
        vectors.append(en)
        rows_meta.append((tail, "convention", 0))
    if len(vectors) != field.size:
        raise field.failure(f"insertion layout produced {len(vectors)} rows for dimension {field.size}")
    basis = field.zeros()
    rows = []
    for r, (lam, kind, pos) in enumerate(rows_meta):
        basis[r] = vectors[r]
        rows.append(
            RowInfo(
                index=r,
                eigenvalue=field.label(lam)[0],
                kind=kind,
                chain=None,
                position=pos,
                prev_row=None,
            )
        )
    return basis, rows


# ---------------------------------------------------------------------------
# entry point

def eigen_structure(scale: ScaleMatrices, *, exact: bool | None = None) -> SpectralData:
    """Left Jordan basis of the scale matrix with corner-row conventions.

    ``exact=True`` demands Fraction arithmetic (rational mask with fully
    rational spectrum, zero residual); ``exact=None`` tries exact for
    rational masks and falls back to floats when the exact path gives up,
    for instance when the spectrum has irrational eigenvalues. The float
    result then carries the reason in ``exact_fallback``. The float path
    makes one attempt, at clustering tolerance ``CLUSTER_RTOL``; when one
    of its checks fails it raises ClusteringError, whose ``values`` are the
    eigenvalues.
    """
    _check_scale(scale)
    fallback = None
    if exact or (exact is None and scale.mask.is_rational):
        try:
            return _build(scale, _ExactField(scale))
        except SpectralError as e:
            if exact:
                raise
            fallback = str(e)
    try:
        spectral = _build(scale, _FloatField(scale))
    except _Retry as e:
        raise ClusteringError(
            f"eigenvalue clustering at rtol {CLUSTER_RTOL:g} failed: {e}",
            values=np.linalg.eigvals(scale.full),
        ) from e
    return replace(spectral, exact_fallback=fallback) if fallback else spectral


def minimal_order(v, scale: ScaleMatrices, eigenvalue) -> int:
    """Smallest r with v (T - lam I)^r = 0 (to ``RESIDUAL_RTOL``); 0 for v = 0.

    Raises SpectralError when v is not a generalized left eigenvector for the
    eigenvalue (no r up to the matrix dimension works).
    """
    return len(power_chain(v, scale, eigenvalue))


def power_chain(v, scale: ScaleMatrices, eigenvalue) -> list[np.ndarray]:
    """[v, v S, ..., v S^(r-1)] with S = T - lam I and r = ``minimal_order``."""
    _check_scale(scale)
    size = scale.n + 1
    w = np.asarray(v, dtype=complex)
    if w.shape != (size,):
        raise SpectralError(f"vector must have length {size}")
    tol = RESIDUAL_RTOL * max(1.0, float(np.abs(w).max(initial=0.0)))
    shift = scale.shifted(complex(eigenvalue))
    chain = []
    for _ in range(size + 1):
        if float(np.abs(w).max(initial=0.0)) <= tol:
            return chain
        chain.append(w)
        w = w @ shift
    raise SpectralError(
        f"vector is not a generalized left eigenvector for eigenvalue {eigenvalue}"
    )


# ---------------------------------------------------------------------------
# spectra of the submatrices

def spectrum_of(matrix):
    """Eigenvalues with multiplicities, sorted by (-|lam|, angle).

    Returns (eigenvalue, multiplicity, exact eigenvalue or None) triples.
    When every entry is an int or a Fraction the rational part of the
    spectrum is exact and only irrational factors fall back to float roots;
    otherwise the float eigenvalues are clustered at ``CLUSTER_RTOL``.
    """
    if all(is_exact(x) for row in matrix for x in row):
        if len(matrix) == 0:
            return []
        out = root_triples(xq.charpoly(matrix))
    else:
        a = np.asarray(matrix, dtype=complex)
        out = [(lam, mult, None) for lam, mult, _ in nm.clusters(np.linalg.eigvals(a), CLUSTER_RTOL)]
    out.sort(key=lambda e: _group_key(e[0]))
    return out


# ---------------------------------------------------------------------------
# polynomial accuracy

@dataclass(frozen=True)
class AccuracyResult:
    """Largest n such that degrees 0..n-1 are reproducible from translates.

    For each s < n, ``coefficients[s]`` are the ascending coefficients of the
    degree-s polynomial p_s whose samples (p_s(0), ..., p_s(N)) form a left
    2^-s eigenvector of T; the leading coefficient is normalized to (-1)^s,
    which makes sum_k p_s(k) phi(x + k) = x^s.
    """

    order: int
    coefficients: tuple[np.ndarray, ...]
    vectors: tuple[np.ndarray, ...]
    residuals: tuple[float, ...]
    exact_coefficients: tuple[tuple[Fraction, ...], ...] | None = None


def accuracy(scale: ScaleMatrices, *, exact: bool | None = None) -> AccuracyResult:
    """Polynomial reproduction order of the mask's refinable function.

    One routine for Fractions and complex values; a quantity is zero when it
    is 0 exactly, or in floats when within a tolerance of what it sums.
    - Order: the number k of factors (1 + z) of the symbol c(z), each one
      synthetic division, once sum c = 2 (else 0). The float remainder is
      held against ``SUM_RULE_RTOL`` times the running sum of |terms|.
    - Coefficients: T acts on polynomials of degree s < k by the upper
      triangular A[q][p] = 2^-p C(p, q) mu_{p-q}, mu_r = 1/2 sum_l c_l l^r,
      so p_s with leading coefficient (-1)^s is one back-substitution.
    - Certificate: v T = 2^-s v for v_k = p_s(k), in floats entrywise within
      ``RESIDUAL_RTOL`` (|V||a|)|T| + 2^-s |V||a|; the order stops at the
      first degree that fails it.
    """
    _check_scale(scale)
    if exact is None:
        exact = scale.mask.is_rational
    if exact:
        field, c, one = _ExactField(scale), list(scale.mask.exact), xq.ONE
        division_rtol = residual_rtol = 0
    else:
        field, c, one = _FloatField(scale), [complex(x) for x in scale.mask.coefficients], 1.0
        division_rtol, residual_rtol = SUM_RULE_RTOL, RESIDUAL_RTOL
    half = one / 2
    k = _sum_rules(c, division_rtol)
    mu = [half * sum(x * l**r for l, x in enumerate(c)) for r in range(k)]
    pow2 = [half**p for p in range(k)]
    # A[q][p] for p > q: the action of T on the monomial x^p, coefficient of x^q
    action = [[pow2[p] * comb(p, q) * mu[p - q] if p > q else 0 for p in range(k)] for q in range(k)]
    samples, t_mag = range(scale.n + 1), np.abs(scale.full)
    polys, vectors, residuals = [], [], []
    for s in range(k):
        a = [0] * s + [one * (-1) ** s]
        for q in range(s - 1, -1, -1):
            a[q] = -sum(action[q][p] * a[p] for p in range(q + 1, s + 1)) / (pow2[q] - pow2[s])
        v = [xq.poly_eval(a, x) for x in samples]
        residual = [abs(x - pow2[s] * y) for x, y in zip(field.vec_mat(v, field.t), v)]
        a_mag = [float(abs(x)) for x in a]
        v_mag = np.array([xq.poly_eval(a_mag, x) for x in samples])  # |V||a|
        bound = residual_rtol * (v_mag @ t_mag + 2.0**-s * v_mag)
        if any(r > b for r, b in zip(residual, bound)):
            break
        polys.append(a)
        vectors.append(np.array([complex(x) for x in v]))
        residuals.append(float(max(residual)))
    return AccuracyResult(
        order=len(polys),
        coefficients=tuple(np.array([complex(x) for x in a]) for a in polys),
        vectors=tuple(vectors),
        residuals=tuple(residuals),
        exact_coefficients=tuple(tuple(a) for a in polys) if exact else None,
    )


def _sum_rules(c, rtol) -> int:
    """Number of factors (1 + z) of c(z) = sum_l c_l z^l when sum c = 2, else 0."""
    if abs(sum(c) - 2) > rtol * sum(abs(x) for x in c):
        return 0
    degree = len(c) - 1
    for k in range(degree):
        # synthetic division by (1 + z), highest coefficient first
        b, size, quotient = c[-1], abs(c[-1]), []
        for x in reversed(c[:-1]):
            quotient.append(b)
            b = x - b
            size += abs(x) + abs(b)
        if abs(b) > rtol * size:
            return k
        c = quotient[::-1]
    return degree


# ---------------------------------------------------------------------------
# independence of integer translates

@dataclass(frozen=True)
class IndependenceResult:
    """Core-invertibility vs even/odd-gcd view of translate independence.

    ``kernel_dimension`` is dim ker M, measured on the core; ``gcd_degree``
    and the monic ``gcd`` come from the even/odd difference system of
    ``extension.subdivision_system``. The two views agree in theory (dim ker
    M equals the gcd degree); float roundoff can split them, which is
    reported as a diagnostic, not an error.
    """

    core_invertible: bool
    gcd_degree: int
    kernel_dimension: int
    gcd: np.ndarray
    verdict: str
    consistent: bool
    diagnostic: str | None = None


def independence_test(scale: ScaleMatrices) -> IndependenceResult:
    """Check whether the integer translates of phi can be locally dependent."""
    _check_scale(scale)
    if scale.n < 2:
        kernel_dimension = 0  # empty core
    elif scale.mask.is_rational:
        core_rows = scale.exact_core_rows()
        kernel_dimension = len(core_rows) - xq.rank(core_rows)
    else:
        kernel_dimension = len(scale.core) - nm.svd_rank(scale.core, vectors=False).rank
    system = subdivision_system(scale.mask)
    gcd_degree = system.gcd_degree
    consistent = kernel_dimension == gcd_degree
    diagnostic = None
    if not consistent:
        diagnostic = (
            f"dim ker(core) {kernel_dimension} differs from the gcd degree {gcd_degree}; "
            "borderline roundoff, prefer the exact path"
        )
    return IndependenceResult(
        core_invertible=kernel_dimension == 0,
        gcd_degree=gcd_degree,
        kernel_dimension=kernel_dimension,
        gcd=system.gcd,
        verdict=VERDICT_DEPENDENT if gcd_degree > 0 else VERDICT_INDEPENDENT,
        consistent=consistent,
        diagnostic=diagnostic,
    )
