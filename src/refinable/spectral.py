"""Left Jordan structure of the scale matrix, plus the spectral byproducts.

The scale matrix T = (c_{2i-j}) acts on sample vectors by v -> v T (row
vectors throughout). Its first and last rows are (c_0, 0, ...) and
(..., 0, c_N), so e_0 and e_N are always left eigenvectors, the spectrum of
T is {c_0, c_N} plus the spectrum of the core M, and powers of T - lam I
keep the corner structure — which is what makes the kernel transfer between
T and M possible.

``eigen_structure`` produces a full left Jordan basis, with two sample-value
conventions: the chain bottom for the eigenvalue c_0 is regauged to e_0
(first in its eigenvalue group) and the bottom for c_N to e_N (moved to the
global last row). When the forced structure of a Jordan block makes that
regauge impossible, e_0 and e_N are inserted as standalone eigenvector rows
instead and the basis stops being a strict Jordan basis
(``jordan_canonical = False``); conventions win over canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import exact as xq
from . import numeric as nm
from .diffeq import poly_gcd
from .errors import ClusteringError, SpectralError
from .mask import Mask, MaskPolynomials, ScaleMatrices, build_scale_matrices, mask_polynomials

CLUSTER_RTOL = 1e-8
ESCALATION = 100.0
STAIRCASE_REL = 1e-10
CONDITION_LIMIT = 1e10

VERDICT_DEPENDENT = "translates DEPENDENT"
VERDICT_INDEPENDENT = "independence not contradicted"


def _scale_of(source) -> ScaleMatrices:
    if isinstance(source, ScaleMatrices):
        return source
    if isinstance(source, SpectralData):
        return source.scale
    if isinstance(source, Mask):
        return build_scale_matrices(source)
    raise TypeError(f"expected a Mask, ScaleMatrices, or SpectralData, got {type(source)!r}")


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
class ChainInfo:
    """A left Jordan chain v_1, ..., v_m: v_1 shifted = 0, v_j shifted = v_{j-1}."""

    eigenvalue: complex
    length: int
    rows: tuple[int, ...]  # global row indices, bottom v_1 first
    convention: str | None = None  # 'e0' / 'eN' when the bottom is a corner unit vector
    exact_eigenvalue: Fraction | None = None


@dataclass(frozen=True)
class RowInfo:
    """Role of one basis row: its eigenvalue and place in a chain."""

    index: int
    eigenvalue: complex
    kind: str  # 'chain' or 'convention' (inserted corner eigenvector)
    chain: int | None
    position: int  # 0 for a bottom (an eigenvector), j for v_{j+1}
    prev_row: int | None
    exact_eigenvalue: Fraction | None = None


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
    chains: tuple[ChainInfo, ...]
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

    def row_vector(self, index: int) -> np.ndarray:
        return self.basis[index].copy()

    def group_of_row(self, index: int) -> EigenvalueGroup:
        lam = self.rows[index].eigenvalue
        for g in self.groups:
            if g.eigenvalue == lam:
                return g
        raise SpectralError(f"row {index} has no matching eigenvalue group")


class _Retry(Exception):
    """Internal: the float pipeline wants a coarser eigenvalue clustering."""


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


def _conventions_for(lam, spread, scale, rtol):
    """Which corner conventions ('e0'/'eN') live in this eigenvalue group."""
    c0 = complex(scale.full[0, 0])
    cn = complex(scale.full[scale.n, scale.n])
    tol = max(spread * 4.0, rtol * max(1.0, abs(lam)))
    out = []
    if abs(lam - c0) <= tol:
        out.append("e0")
    if abs(lam - cn) <= tol:
        out.append("eN")
    return out


# ---------------------------------------------------------------------------
# float pipeline

class _FloatChain:
    __slots__ = ("vectors", "convention")

    def __init__(self, vectors):
        self.vectors = vectors  # list bottom..top
        self.convention = None

    @property
    def length(self):
        return len(self.vectors)

    @property
    def bottom(self):
        return self.vectors[0]


def _normalize_chain_float(vectors):
    bottom = vectors[0]
    norm = float(np.linalg.norm(bottom))
    if norm == 0.0:
        raise SpectralError("degenerate zero chain bottom")
    idx = int(np.argmax(np.abs(bottom)))
    phase = bottom[idx] / abs(bottom[idx])
    factor = 1.0 / (norm * phase)
    return [v * factor for v in vectors]


def _float_chains_for_group(t, lam, algebraic, spread):
    """Top-down left Jordan chains for one eigenvalue cluster."""
    size = t.shape[0]
    shift = t - lam * np.eye(size, dtype=complex)
    pows = [np.eye(size, dtype=complex)]
    dims = [0]
    while len(dims) <= algebraic:
        pows.append(pows[-1] @ shift)
        k = len(pows) - 1
        cutoff = max(nm.default_cutoff(pows[k], STAIRCASE_REL), (4.0 * spread) ** k)
        smax = float(np.linalg.norm(pows[k], 2))
        if cutoff > 0.5 * max(smax, 1e-300):
            raise _Retry(f"staircase cutoff swamped the matrix for eigenvalue {lam}")
        nullity = size - nm.numerical_rank(pows[k], cutoff)
        dims.append(int(nullity))
        if dims[-1] == dims[-2]:
            dims.pop()
            break
        if dims[-1] > algebraic:
            raise _Retry(f"nullity exceeded algebraic multiplicity for eigenvalue {lam}")
        if dims[-1] == algebraic:
            break
    if dims[-1] != algebraic:
        raise _Retry(
            f"generalized eigenspace of {lam} reached dimension {dims[-1]} < {algebraic}"
        )
    weyr = [dims[k] - dims[k - 1] for k in range(1, len(dims))]
    lengths = _partition_from_weyr(weyr)
    deepest = len(weyr)
    kernels = {}
    for h in range(1, deepest + 1):
        cutoff = max(nm.default_cutoff(pows[h], STAIRCASE_REL), (4.0 * spread) ** h)
        kernels[h] = nm.left_nullspace(pows[h], cutoff)
        if kernels[h].shape[0] != dims[h]:
            raise _Retry(f"kernel dimension unstable for eigenvalue {lam}")
    chains = []
    for h in range(deepest, 0, -1):
        new_tops = weyr[h - 1] - (weyr[h] if h < deepest else 0)
        if new_tops == 0:
            continue
        base_rows = []
        if h > 1:
            base_rows.extend(kernels[h - 1])
        for chain in chains:  # vectors at level h of strictly longer chains
            base_rows.append(chain.vectors[h - 1])
        base = nm.orthonormal_rows(np.array(base_rows)) if base_rows else np.zeros((0, size))
        cands = kernels[h]
        resid = cands.astype(complex).copy()
        if base.shape[0]:
            resid -= (resid @ base.conj().T) @ base
        _, svals, vt = np.linalg.svd(resid)
        if new_tops > 0 and (len(svals) < new_tops or svals[new_tops - 1] < 1e-8):
            raise _Retry(f"could not separate {new_tops} new chain tops for eigenvalue {lam}")
        for r in range(new_tops):
            top = vt[r]
            vectors = [top @ pows[h - j] for j in range(1, h + 1)]  # v_1 .. v_h
            chains.append(_FloatChain(_normalize_chain_float(vectors)))
    chains.sort(key=lambda c: -c.length)
    if sorted((c.length for c in chains), reverse=True) != lengths:
        raise _Retry(f"chain partition mismatch for eigenvalue {lam}")
    return chains, weyr


def _regauge_float(chains, target, tag, rtol):
    """Replace one chain so that ``target`` becomes a chain bottom.

    Any vector in the eigenspace is a combination of the bottoms; replacing a
    minimal-length contributing chain with the matching combination of whole
    chains keeps the Jordan partition and makes the new bottom exactly the
    target. Returns False when every minimal contributing chain is protected
    (already carries the other corner convention).
    """
    bottoms = np.array([c.bottom for c in chains])
    alpha, res, *_ = np.linalg.lstsq(bottoms.T, target, rcond=None)
    fit = bottoms.T @ alpha - target
    if float(np.abs(fit).max()) > max(rtol, 1e-7):
        return False
    significant = [i for i in range(len(chains)) if abs(alpha[i]) > 1e-8 * max(1.0, np.abs(alpha).max())]
    if not significant:
        return False
    m = min(chains[i].length for i in significant)
    victim = None
    for i in significant:
        if chains[i].length == m and chains[i].convention is None:
            victim = i
            break
    if victim is None:
        return False
    new_vectors = []
    for k in range(m):
        vec = np.zeros_like(target, dtype=complex)
        for i in significant:
            vec += alpha[i] * chains[i].vectors[k]
        new_vectors.append(vec)
    new_vectors[0] = target.astype(complex).copy()  # snap away the lstsq noise
    replacement = _FloatChain(new_vectors)
    replacement.convention = tag
    chains[victim] = replacement
    return True


def _unit_float(size, index):
    e = np.zeros(size, dtype=complex)
    e[index] = 1.0
    return e


def _independent_subset_float(preset, candidates, total):
    """Greedy rank completion: keep candidates while rank grows, up to total rows."""
    rows = [np.asarray(p, dtype=complex) for p in preset]
    basis = nm.orthonormal_rows(np.array(rows)) if rows else None
    rank = 0 if basis is None else basis.shape[0]
    kept = []
    for ident, vec in candidates:
        if len(preset) + len(kept) == total:
            break
        trial = vec[None, :] if basis is None else np.vstack([basis, vec[None, :]])
        q = nm.orthonormal_rows(trial)
        if q.shape[0] > rank:
            basis, rank = q, q.shape[0]
            kept.append(ident)
    if len(preset) + len(kept) != total:
        raise _Retry("insertion completion found too few independent rows")
    return kept


def _build_float(scale: ScaleMatrices, rtol: float):
    t = scale.full
    size = scale.n + 1
    evals = np.linalg.eigvals(t)
    tol = rtol * max(1.0, float(np.abs(evals).max(initial=0.0)))
    cluster_idx = nm.cluster_scalars(evals, tol)
    clusters = []
    for idxs in cluster_idx:
        members = evals[idxs]
        center = complex(members.mean())
        spread = float(np.abs(members - center).max(initial=0.0))
        clusters.append((center, len(idxs), spread))
    clusters.sort(key=lambda c: _group_key(c[0]))
    group_chains = []
    groups = []
    for lam, algebraic, spread in clusters:
        chains, weyr = _float_chains_for_group(t, lam, algebraic, spread)
        conventions = _conventions_for(lam, spread, scale, rtol)
        canonical = True
        for tag in conventions:
            target = np.zeros(size, dtype=complex)
            target[0 if tag == "e0" else size - 1] = 1.0
            if not _regauge_float(chains, target, tag, rtol):
                canonical = False
        groups.append(
            EigenvalueGroup(
                eigenvalue=lam,
                algebraic=algebraic,
                geometric=weyr[0],
                chain_lengths=tuple(sorted((c.length for c in chains), reverse=True)),
                spread=spread,
            )
        )
        group_chains.append((lam, chains, conventions, canonical))
    jordan_canonical = all(entry[3] for entry in group_chains)
    if jordan_canonical:
        basis, rows, chains_info, jordan = _layout_canonical_float(group_chains, size)
    else:
        basis, rows, chains_info, jordan = _layout_insertion_float(group_chains, size)
    cond = np.linalg.cond(basis)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise _Retry(f"basis condition number {cond:.3g} too large")
    if jordan is None:  # insertion mode: similarity transform instead of Jordan form
        jordan = basis @ t @ np.linalg.inv(basis)
    residual = float(np.abs(basis @ t - jordan @ basis).max())
    if residual > 1e-6 * max(1.0, float(np.abs(t).max())):
        raise _Retry(f"jordan residual {residual:.3g} too large")
    convention_first = any(c.convention == "e0" for c in chains_info) or any(
        r.kind == "convention" and float(np.abs(basis[r.index] - _unit_float(size, 0)).max()) == 0.0
        for r in rows
    )
    convention_last = any(
        c.convention == "eN" and c.rows[0] == size - 1 for c in chains_info
    ) or any(r.kind == "convention" and r.index == size - 1 for r in rows)
    return SpectralData(
        scale=scale,
        groups=tuple(groups),
        chains=tuple(chains_info),
        rows=tuple(rows),
        basis=basis,
        jordan=jordan,
        jordan_canonical=jordan_canonical,
        convention_first=convention_first,
        convention_last=convention_last,
        residual=residual,
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


def _layout_canonical_float(group_chains, size):
    basis = np.zeros((size, size), dtype=complex)
    rows = []
    chains_info = []
    r = 0
    for lam, chain, flipped in _canonical_order(group_chains):
        length = chain.length
        positions = list(range(length))
        if flipped:
            positions.reverse()
        row_of = {}
        for pos in positions:
            basis[r] = chain.vectors[pos]
            row_of[pos] = r
            r += 1
        for pos in positions:
            rows.append(
                RowInfo(
                    index=row_of[pos],
                    eigenvalue=lam,
                    kind="chain",
                    chain=len(chains_info),
                    position=pos,
                    prev_row=row_of[pos - 1] if pos else None,
                )
            )
        rows.sort(key=lambda info: info.index)
        chains_info.append(
            ChainInfo(
                eigenvalue=lam,
                length=length,
                rows=tuple(row_of[p] for p in range(length)),
                convention=chain.convention,
            )
        )
    jordan = np.zeros((size, size), dtype=complex)
    for info in rows:
        jordan[info.index, info.index] = info.eigenvalue
        if info.prev_row is not None:
            jordan[info.index, info.prev_row] = 1.0
    return basis, rows, chains_info, jordan


def _layout_insertion_float(group_chains, size):
    """Basis with e_0 / e_N literally inserted; chain rows complete greedily.

    Each eigenvalue group keeps exactly its algebraic multiplicity of rows:
    the inserted corner eigenvectors plus a maximal independent subset of the
    group's chain vectors. The e_N row is pulled to the global last position.
    """
    basis_rows = []
    rows_meta = []  # (lam, kind, position)
    tail = None
    for lam, chains, conventions, _ in group_chains:
        algebraic = sum(c.length for c in chains)
        preset = []
        if "e0" in conventions:
            preset.append(_unit_float(size, 0))
        if "eN" in conventions:
            preset.append(_unit_float(size, size - 1))
        candidates = []
        for chain in _ordered_chains(chains):
            for pos, vec in enumerate(chain.vectors):
                candidates.append((pos, vec))
        kept = _independent_subset_float(
            preset, [((pos, i), vec) for i, (pos, vec) in enumerate(candidates)], algebraic
        )
        if "e0" in conventions:
            basis_rows.append(_unit_float(size, 0))
            rows_meta.append((lam, "convention", 0))
        for pos, i in kept:
            basis_rows.append(candidates[i][1])
            rows_meta.append((lam, "chain", pos))
        if "eN" in conventions:
            tail = (lam, _unit_float(size, size - 1))
    if tail is not None:
        basis_rows.append(tail[1])
        rows_meta.append((tail[0], "convention", 0))
    if len(basis_rows) != size:
        raise _Retry(f"insertion layout produced {len(basis_rows)} rows for dimension {size}")
    basis = np.array(basis_rows, dtype=complex)
    rows = [
        RowInfo(index=r, eigenvalue=lam, kind=kind, chain=None, position=pos, prev_row=None)
        for r, (lam, kind, pos) in enumerate(rows_meta)
    ]
    return basis, rows, [], None


# ---------------------------------------------------------------------------
# exact pipeline

class _ExactChain:
    __slots__ = ("vectors", "convention")

    def __init__(self, vectors):
        self.vectors = vectors
        self.convention = None

    @property
    def length(self):
        return len(self.vectors)

    @property
    def bottom(self):
        return self.vectors[0]


def _normalize_chain_exact(vectors):
    bottom = vectors[0]
    lead = next((c for c in bottom if c != 0), None)
    if lead is None:
        raise SpectralError("degenerate zero chain bottom")
    inv = Fraction(1) / lead
    return [[c * inv for c in v] for v in vectors]


def _exact_chains_for_group(t_rows, lam: Fraction, algebraic: int):
    size = len(t_rows)
    shift = [[t_rows[i][j] - (lam if i == j else 0) for j in range(size)] for i in range(size)]
    pows = [xq.identity(size)]
    dims = [0]
    while len(dims) <= algebraic:
        pows.append(xq.mat_mul(pows[-1], shift))
        nullity = size - xq.rank(pows[-1])
        dims.append(nullity)
        if dims[-1] == dims[-2]:
            dims.pop()
            break
        if dims[-1] >= algebraic:
            break
    if dims[-1] != algebraic:
        raise SpectralError(
            f"generalized eigenspace of {lam} has dimension {dims[-1]} != {algebraic}"
        )
    weyr = [dims[k] - dims[k - 1] for k in range(1, len(dims))]
    deepest = len(weyr)
    kernels = {h: xq.left_nullspace(pows[h]) for h in range(1, deepest + 1)}
    chains = []
    for h in range(deepest, 0, -1):
        new_tops = weyr[h - 1] - (weyr[h] if h < deepest else 0)
        if new_tops == 0:
            continue
        base = []
        if h > 1:
            base.extend(kernels[h - 1])
        for chain in chains:
            base.append(chain.vectors[h - 1])
        current = xq.rank(base) if base else 0
        picked = 0
        for cand in kernels[h]:
            if picked == new_tops:
                break
            trial = base + [cand]
            r = xq.rank(trial)
            if r > current:
                base = trial
                current = r
                picked += 1
                vectors = [xq.vec_mat(cand, pows[h - j]) for j in range(1, h + 1)]
                chains.append(_ExactChain(_normalize_chain_exact(vectors)))
        if picked != new_tops:
            raise SpectralError(f"could not build {new_tops} chain tops for eigenvalue {lam}")
    chains.sort(key=lambda c: -c.length)
    return chains, weyr


def _regauge_exact(chains, target, tag):
    bottoms = [c.bottom for c in chains]
    cols = [[bottoms[i][j] for i in range(len(bottoms))] for j in range(len(target))]
    alpha = xq.solve(cols, list(target))
    if alpha is None:
        return False
    significant = [i for i, a in enumerate(alpha) if a != 0]
    if not significant:
        return False
    m = min(chains[i].length for i in significant)
    victim = next(
        (i for i in significant if chains[i].length == m and chains[i].convention is None),
        None,
    )
    if victim is None:
        return False
    new_vectors = []
    for k in range(m):
        vec = [Fraction(0)] * len(target)
        for i in significant:
            vec = [a + alpha[i] * b for a, b in zip(vec, chains[i].vectors[k])]
        new_vectors.append(vec)
    replacement = _ExactChain(new_vectors)
    replacement.convention = tag
    chains[victim] = replacement
    return True


def _build_exact(scale: ScaleMatrices) -> SpectralData:
    if scale.exact_full is None:
        raise SpectralError("exact spectral mode needs a rational mask")
    t_rows = scale.exact_rows()
    size = scale.n + 1
    cp = xq.charpoly(t_rows)
    roots, leftovers = xq.rational_roots(cp)
    if leftovers:
        raise SpectralError(
            "exact spectral mode needs a fully rational spectrum; "
            f"irreducible factor degrees {[xq.poly_degree(f) for f, _ in leftovers]} remain"
        )
    roots.sort(key=lambda rm: _group_key(complex(float(rm[0]))))
    groups = []
    group_chains = []
    for lam, algebraic in roots:
        chains, weyr = _exact_chains_for_group(t_rows, lam, algebraic)
        conventions = []
        if lam == scale.mask.exact[0]:
            conventions.append("e0")
        if lam == scale.mask.exact[scale.n]:
            conventions.append("eN")
        canonical = True
        for tag in conventions:
            target = [Fraction(0)] * size
            target[0 if tag == "e0" else size - 1] = Fraction(1)
            if not _regauge_exact(chains, target, tag):
                canonical = False
        groups.append(
            EigenvalueGroup(
                eigenvalue=complex(float(lam)),
                algebraic=algebraic,
                geometric=weyr[0],
                chain_lengths=tuple(sorted((c.length for c in chains), reverse=True)),
                spread=0.0,
                exact_eigenvalue=lam,
            )
        )
        group_chains.append((lam, chains, conventions, canonical))
    jordan_canonical = all(entry[3] for entry in group_chains)
    if jordan_canonical:
        basis_rows, rows, chains_info, jordan_rows = _layout_canonical_exact(group_chains, size)
    else:
        basis_rows, rows, chains_info, jordan_rows = _layout_insertion_exact(
            group_chains, size, t_rows
        )
    # exact verification: basis @ T == jordan @ basis
    lhs = xq.mat_mul(basis_rows, t_rows)
    rhs = xq.mat_mul(jordan_rows, basis_rows)
    if lhs != rhs:
        raise SpectralError("exact Jordan identity failed (internal error)")
    basis = np.array([[complex(float(c)) for c in row] for row in basis_rows])
    jordan = np.array([[complex(float(c)) for c in row] for row in jordan_rows])
    convention_first = any(c.convention == "e0" for c in chains_info) or any(
        r.kind == "convention" and basis_rows[r.index] == _unit_exact(size, 0) for r in rows
    )
    convention_last = any(
        c.convention == "eN" and c.rows[0] == size - 1 for c in chains_info
    ) or any(r.kind == "convention" and r.index == size - 1 for r in rows)
    return SpectralData(
        scale=scale,
        groups=tuple(groups),
        chains=tuple(chains_info),
        rows=tuple(rows),
        basis=basis,
        jordan=jordan,
        jordan_canonical=jordan_canonical,
        convention_first=convention_first,
        convention_last=convention_last,
        residual=0.0,
        is_exact=True,
        exact_basis=tuple(tuple(row) for row in basis_rows),
        exact_jordan=tuple(tuple(row) for row in jordan_rows),
    )


def _layout_canonical_exact(group_chains, size):
    basis_rows = [None] * size
    rows = []
    chains_info = []
    r = 0
    for lam, chain, flipped in _canonical_order(group_chains):
        length = chain.length
        positions = list(range(length))
        if flipped:
            positions.reverse()
        row_of = {}
        for pos in positions:
            basis_rows[r] = list(chain.vectors[pos])
            row_of[pos] = r
            r += 1
        for pos in positions:
            rows.append(
                RowInfo(
                    index=row_of[pos],
                    eigenvalue=complex(float(lam)),
                    kind="chain",
                    chain=len(chains_info),
                    position=pos,
                    prev_row=row_of[pos - 1] if pos else None,
                    exact_eigenvalue=lam,
                )
            )
        rows.sort(key=lambda info: info.index)
        chains_info.append(
            ChainInfo(
                eigenvalue=complex(float(lam)),
                length=length,
                rows=tuple(row_of[p] for p in range(length)),
                convention=chain.convention,
                exact_eigenvalue=lam,
            )
        )
    jordan_rows = xq.zeros(size, size)
    for info in rows:
        jordan_rows[info.index][info.index] = info.exact_eigenvalue
        if info.prev_row is not None:
            jordan_rows[info.index][info.prev_row] = Fraction(1)
    return basis_rows, rows, chains_info, jordan_rows


def _unit_exact(size, index):
    e = [Fraction(0)] * size
    e[index] = Fraction(1)
    return e


def _layout_insertion_exact(group_chains, size, t_rows):
    basis_rows = []
    rows_meta = []  # (lam, kind, position)
    tail = None
    for lam, chains, conventions, _ in group_chains:
        algebraic = sum(c.length for c in chains)
        preset = []
        if "e0" in conventions:
            preset.append(_unit_exact(size, 0))
        if "eN" in conventions:
            preset.append(_unit_exact(size, size - 1))
        base = list(preset)
        current = xq.rank(base) if base else 0
        kept = []
        for chain in _ordered_chains(chains):
            for pos, vec in enumerate(chain.vectors):
                if len(preset) + len(kept) == algebraic:
                    break
                trial = base + [list(vec)]
                r = xq.rank(trial)
                if r > current:
                    base, current = trial, r
                    kept.append((pos, list(vec)))
        if len(preset) + len(kept) != algebraic:
            raise SpectralError("exact insertion completion found too few independent rows")
        if "e0" in conventions:
            basis_rows.append(_unit_exact(size, 0))
            rows_meta.append((lam, "convention", 0))
        for pos, vec in kept:
            basis_rows.append(vec)
            rows_meta.append((lam, "chain", pos))
        if "eN" in conventions:
            tail = (lam, _unit_exact(size, size - 1))
    if tail is not None:
        basis_rows.append(tail[1])
        rows_meta.append((tail[0], "convention", 0))
    if len(basis_rows) != size:
        raise SpectralError("exact insertion layout is rank deficient (internal error)")
    rows = []
    for r, (lam, kind, pos) in enumerate(rows_meta):
        rows.append(
            RowInfo(
                index=r,
                eigenvalue=complex(float(lam)),
                kind=kind,
                chain=None,
                position=pos,
                prev_row=None,
                exact_eigenvalue=lam,
            )
        )
    inv = xq.inverse(basis_rows)
    jordan_rows = xq.mat_mul(xq.mat_mul(basis_rows, t_rows), inv)
    return basis_rows, rows, [], jordan_rows


# ---------------------------------------------------------------------------
# entry point

def eigen_structure(source, *, exact: bool | None = None, rtol: float = CLUSTER_RTOL) -> SpectralData:
    """Left Jordan basis of the scale matrix with corner-row conventions.

    ``exact=True`` demands Fraction arithmetic (rational mask with fully
    rational spectrum, zero residual); ``exact=None`` tries exact for
    rational masks and falls back to floats when the exact path gives up,
    for instance when the spectrum has irrational eigenvalues. The float
    result then carries the reason in ``exact_fallback``. The float path
    retries once with a 100x coarser eigenvalue clustering before giving up
    with ClusteringError.
    """
    scale = _scale_of(source)
    if exact is None:
        if scale.mask.is_rational:
            try:
                return _build_exact(scale)
            except SpectralError as e:
                return replace(_build_float_escalating(scale, rtol), exact_fallback=str(e))
        exact = False
    if exact:
        return _build_exact(scale)
    return _build_float_escalating(scale, rtol)


def _build_float_escalating(scale: ScaleMatrices, rtol: float) -> SpectralData:
    try:
        return _build_float(scale, rtol)
    except _Retry:
        try:
            return _build_float(scale, rtol * ESCALATION)
        except _Retry as e:
            raise ClusteringError(
                f"eigenvalue clustering failed even at rtol {rtol * ESCALATION:g}: {e}",
                values=np.linalg.eigvals(scale.full),
            ) from e


def minimal_order(v, source, eigenvalue, *, rtol: float = 1e-8) -> int:
    """Smallest r with v (T - lam I)^r = 0; 0 for the zero vector.

    Raises SpectralError when v is not a generalized left eigenvector for the
    eigenvalue (no r up to the matrix dimension works).
    """
    scale = _scale_of(source)
    t = scale.full
    size = scale.n + 1
    w = np.asarray(v, dtype=complex)
    if w.shape != (size,):
        raise SpectralError(f"vector must have length {size}")
    scale_ref = max(1.0, float(np.abs(w).max(initial=0.0)))
    shift = t - complex(eigenvalue) * np.eye(size, dtype=complex)
    for r in range(size + 1):
        if float(np.abs(w).max(initial=0.0)) <= rtol * scale_ref:
            return r
        w = w @ shift
    raise SpectralError(
        f"vector is not a generalized left eigenvector for eigenvalue {eigenvalue}"
    )


# ---------------------------------------------------------------------------
# spectra of the submatrices

def spectrum_of(matrix, exact_rows=None, *, rtol: float = 1e-8):
    """Eigenvalues with multiplicities, sorted by (-|lam|, angle).

    Returns (eigenvalue, multiplicity, exact eigenvalue or None) triples.
    With exact rational rows the rational part of the spectrum is exact and
    only irrational factors fall back to float roots.
    """
    out = []
    if exact_rows is not None:
        if len(exact_rows) == 0:
            return []
        cp = xq.charpoly(exact_rows)
        roots, leftovers = xq.rational_roots(cp)
        for lam, mult in roots:
            out.append((complex(float(lam)), mult, lam))
        for factor, mult in leftovers:
            arr = np.array([float(c) for c in factor], dtype=complex)
            for lam, m in nm.roots_with_multiplicity(arr):
                out.append((lam, m * mult, None))
    else:
        a = np.atleast_2d(np.asarray(matrix, dtype=complex))
        if a.size == 0:
            return []
        evals = np.linalg.eigvals(a)
        tol = rtol * max(1.0, float(np.abs(evals).max(initial=0.0)))
        for idxs in nm.cluster_scalars(evals, tol):
            members = evals[idxs]
            out.append((complex(members.mean()), len(idxs), None))
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

    @property
    def degrees(self):
        return tuple(range(self.order))


def accuracy(source, *, exact: bool | None = None, rtol: float = 1e-8) -> AccuracyResult:
    """Polynomial reproduction order of the mask's refinable function."""
    scale = _scale_of(source)
    if exact is None:
        exact = scale.mask.is_rational
    if exact and scale.exact_full is None:
        raise SpectralError("exact accuracy needs a rational mask")
    size = scale.n + 1
    t = scale.full
    coeff_list = []
    vec_list = []
    res_list = []
    exact_list = [] if exact else None
    if exact:
        t_rows = scale.exact_rows()
        # moments[i][p] = sum_k T[k][i] k^p, shared by every degree s
        powers = [[k**p for p in range(size)] for k in range(size)]
        moments = [
            [sum(t_rows[k][i] * powers[k][p] for k in range(size)) for p in range(size)]
            for i in range(size)
        ]
    for s in range(size):
        ks = np.arange(size)
        vander = np.array([[float(k) ** p for p in range(s + 1)] for k in ks])
        lam = 2.0 ** (-s)
        found = None
        if exact:
            lam_exact = Fraction(1, 2**s)
            m_exact = [
                [moments[i][p] - lam_exact * powers[i][p] for p in range(s + 1)]
                for i in range(size)
            ]
            basis = xq.nullspace(m_exact)
            pick = next((b for b in basis if b[s] != 0), None)
            if pick is not None:
                factor = Fraction((-1) ** s) / pick[s]
                found = [c * factor for c in pick]
                v_exact = [sum(c * powers[k][p] for p, c in enumerate(found)) for k in range(size)]
                if xq.vec_mat(v_exact, t_rows) != [lam_exact * x for x in v_exact]:
                    found = None
        else:
            m_s = (t - lam * np.eye(size)).T @ vander  # (N+1) x (s+1)
            # Cutoff must be absolute in the scale of the factors: when the
            # product is numerically zero (the success case), a cutoff
            # relative to its own largest singular value sees only noise.
            floor = (
                1e-10
                * max(1.0, float(np.abs(t - lam * np.eye(size)).max()))
                * max(1.0, float(vander.max()))
            )
            q = nm.nullspace(m_s, max(nm.default_cutoff(m_s), floor))
            if q.shape[0]:
                proj = np.zeros(s + 1, dtype=complex)
                for row in q:
                    proj += np.conj(row[s]) * row
                if abs(proj[s]) > 1e-10:
                    found = list(proj * ((-1.0) ** s / proj[s]))
        if found is None:
            break
        a = np.array([complex(c) for c in found])
        v = vander @ a
        res = float(np.abs(v @ t - lam * v).max())
        # An exact solution is certified above; its float residual is only
        # reported, since k^p makes it grow with N and s.
        if not exact and res > max(rtol, 1e-7) * max(1.0, float(np.abs(v).max())):
            break
        coeff_list.append(a)
        vec_list.append(v)
        res_list.append(res)
        if exact_list is not None:
            exact_list.append(tuple(found))
    return AccuracyResult(
        order=len(coeff_list),
        coefficients=tuple(coeff_list),
        vectors=tuple(vec_list),
        residuals=tuple(res_list),
        exact_coefficients=tuple(exact_list) if exact_list is not None else None,
    )


# ---------------------------------------------------------------------------
# independence of integer translates

@dataclass(frozen=True)
class IndependenceResult:
    """Core-invertibility vs even/odd-gcd view of translate independence.

    The two views agree in theory (dim ker M equals the gcd degree); float
    roundoff can split them, which is reported as a diagnostic, not an error.
    """

    core_invertible: bool
    gcd_degree: int
    kernel_dimension: int
    gcd: np.ndarray
    verdict: str
    consistent: bool
    diagnostic: str | None = None


def independence_test(source, polynomials: MaskPolynomials | None = None, *, rtol: float = 1e-8) -> IndependenceResult:
    """Check whether the integer translates of phi can be locally dependent."""
    scale = _scale_of(source)
    if polynomials is None:
        polynomials = mask_polynomials(scale.mask)
    if polynomials.exact_even is not None and polynomials.exact_odd is not None:
        even = list(polynomials.exact_even)
        odd = list(polynomials.exact_odd)
        if all(c == 0 for c in odd):
            g = xq.poly_monic(even)
        elif all(c == 0 for c in even):
            g = xq.poly_monic(odd)
        else:
            g = xq.poly_gcd(even, odd)
        gcd_arr = np.array([float(c) for c in g], dtype=complex)
        gcd_degree = xq.poly_degree(g)
    else:
        even = polynomials.even
        odd = polynomials.odd
        if not np.any(odd):
            gcd_arr = nm.poly_monic(nm.poly_trim(even, 0.0))
        elif not np.any(even):
            gcd_arr = nm.poly_monic(nm.poly_trim(odd, 0.0))
        else:
            gcd_arr = nm.float_poly_gcd(even, odd)
        gcd_degree = len(gcd_arr) - 1
    core_rows = scale.exact_core_rows() if scale.mask.is_rational else None
    if scale.n < 2:
        core_invertible = True  # empty core
    elif core_rows is not None:
        core_invertible = xq.det(core_rows) != 0
    else:
        core = scale.core
        cutoff = nm.default_cutoff(core, 1e-10)
        core_invertible = nm.numerical_rank(core, cutoff) == core.shape[0]
    verdict = VERDICT_DEPENDENT if gcd_degree > 0 else VERDICT_INDEPENDENT
    consistent = core_invertible == (gcd_degree == 0)
    diagnostic = None
    if not consistent:
        diagnostic = (
            f"core invertibility ({core_invertible}) disagrees with gcd degree "
            f"({gcd_degree}); expected dim ker(core) == gcd degree — "
            "borderline roundoff, prefer the exact path"
        )
    return IndependenceResult(
        core_invertible=core_invertible,
        gcd_degree=gcd_degree,
        kernel_dimension=gcd_degree,
        gcd=gcd_arr,
        verdict=verdict,
        consistent=consistent,
        diagnostic=diagnostic,
    )


# ---------------------------------------------------------------------------
# kernel transfer between the full matrix and the core

def kernel_transfer(v0, source, eigenvalue, order: int, *, rtol: float = 1e-8) -> np.ndarray:
    """Middle slice of a generalized left kernel vector of the full matrix.

    For lam != 0 the middle block of (T - lam I)^r is exactly (M - lam I)^r
    (the corner rows of T - lam I have a single entry), so restriction to
    indices 1..N-1 maps ker (T - lam I)^r into ker (M - lam I)^r — and is
    injective there whenever lam is not a corner coefficient.
    """
    scale = _scale_of(source)
    lam = complex(eigenvalue)
    if lam == 0:
        raise SpectralError("kernel transfer requires a nonzero eigenvalue")
    size = scale.n + 1
    v0 = np.asarray(v0, dtype=complex)
    if v0.shape != (size,):
        raise SpectralError(f"vector must have length {size}")
    shift = scale.shifted(lam)
    power = np.linalg.matrix_power(shift, order)
    resid = float(np.abs(v0 @ power).max(initial=0.0))
    if resid > rtol * max(1.0, float(np.abs(v0).max(initial=0.0))):
        raise SpectralError(
            f"vector is not in ker (T - lam I)^{order} (residual {resid:.3g})"
        )
    middle = v0[1 : size - 1].copy()
    vmax = float(np.abs(v0).max(initial=0.0))
    c0 = complex(scale.full[0, 0])
    cn = complex(scale.full[size - 1, size - 1])
    away_from_corners = min(abs(lam - c0), abs(lam - cn)) > rtol * max(1.0, abs(lam))
    if vmax > 0 and away_from_corners and float(np.abs(middle).max(initial=0.0)) <= rtol * vmax:
        raise SpectralError(
            "transfer unexpectedly vanished: away from the corner eigenvalues the "
            "middle restriction of a nonzero kernel vector cannot be zero"
        )
    return middle


def kernel_lift(v_core, source, eigenvalue, order: int, *, rtol: float = 1e-8) -> np.ndarray:
    """Lift a generalized left kernel vector of the core back to the full matrix.

    The corner entries are forced by columns 0 and N of (T - lam I)^r:
    v_0 = -(v_core . G_0) / (c_0 - lam)^r and likewise at the other corner,
    where G_0 / G_N are the middle rows of those columns. Corner eigenvalues
    are refused: there the corner factor vanishes and the lift need not exist.
    """
    scale = _scale_of(source)
    lam = complex(eigenvalue)
    size = scale.n + 1
    c0 = complex(scale.full[0, 0])
    cn = complex(scale.full[size - 1, size - 1])
    if lam == 0:
        raise SpectralError("kernel lift requires a nonzero eigenvalue")
    if abs(lam - c0) <= rtol * max(1.0, abs(lam)) or abs(lam - cn) <= rtol * max(1.0, abs(lam)):
        raise SpectralError("kernel lift is undefined at the corner eigenvalues c_0 and c_N")
    v_core = np.asarray(v_core, dtype=complex)
    if v_core.shape != (size - 2,):
        raise SpectralError(f"core vector must have length {size - 2}")
    shift = scale.shifted(lam)
    power = np.linalg.matrix_power(shift, order)
    core_shift = scale.core - lam * np.eye(size - 2, dtype=complex)
    core_power = np.linalg.matrix_power(core_shift, order)
    resid = float(np.abs(v_core @ core_power).max(initial=0.0))
    if resid > rtol * max(1.0, float(np.abs(v_core).max(initial=0.0))):
        raise SpectralError(
            f"vector is not in ker (M - lam I)^{order} (residual {resid:.3g})"
        )
    g0 = power[1 : size - 1, 0]
    gn = power[1 : size - 1, size - 1]
    v = np.zeros(size, dtype=complex)
    v[1 : size - 1] = v_core
    v[0] = -(v_core @ g0) / (c0 - lam) ** order
    v[size - 1] = -(v_core @ gn) / (cn - lam) ** order
    check = float(np.abs(v @ power).max())
    if check > max(rtol, 1e-7) * max(1.0, float(np.abs(v).max())):
        raise SpectralError(f"lift failed to land in ker (T - lam I)^{order} (residual {check:.3g})")
    return v
