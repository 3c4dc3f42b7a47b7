"""Floating-point helpers: the one-SVD rank rule, clustering, poly gcd."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import refinable.numeric as nm

RNG = np.random.default_rng(424242)


def two_factorization_cutoff(a, rel=1e-10, floor=0.0):
    """The cutoff as a separate factorization gives it: rel * ||a||_2."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    smax = np.linalg.norm(a, 2) if a.size else 1.0
    return max(rel * max(smax, 1e-300), floor)


def two_factorization_rank(a, cutoff):
    a = np.asarray(a, dtype=complex)
    return int(np.sum(np.linalg.svd(a, compute_uv=False) > cutoff))


def two_factorization_nullspace(a, cutoff):
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return np.eye(a.shape[1], dtype=complex)
    _, s, vt = np.linalg.svd(a)
    return vt[int(np.sum(s > cutoff)) :].conj()


def oracle_matrices():
    """Seeded low-rank, complex, rectangular, zero and empty matrices."""
    rng = np.random.default_rng(20260)
    out = []
    for rows, cols, r in ((6, 5, 2), (5, 6, 3), (7, 3, 1), (4, 4, 4), (3, 8, 2)):
        left = rng.normal(size=(rows, r)) + 1j * rng.normal(size=(rows, r))
        out.append(left @ rng.normal(size=(r, cols)))
        out.append(rng.normal(size=(rows, r)) @ rng.normal(size=(r, cols)))
    out += [np.zeros((4, 3)), np.zeros((3, 5), dtype=complex), np.zeros((0, 3))]
    return out


class TestOneSvdRankRule:
    """The one-SVD decisions against a cutoff from a separate norm."""

    @pytest.mark.parametrize("rel, floor", [(1e-10, 0.0), (1e-8, 0.0), (1e-10, 1e-3)])
    def test_rank_and_kernel_match_two_factorizations(self, rel, floor):
        for a in oracle_matrices():
            cutoff = two_factorization_cutoff(a, rel, floor)
            svd = nm.svd_rank(a, rel, floor)
            assert svd.rank == two_factorization_rank(a, cutoff)
            assert nm.svd_rank(a, rel, floor, vectors=False).rank == svd.rank
            if a.size:
                assert svd.cutoff == pytest.approx(cutoff, rel=1e-12)
            # the same kernel: equal orthogonal projectors
            q, want = svd.vh[svd.rank :].conj(), two_factorization_nullspace(a, cutoff)
            assert q.shape == want.shape
            np.testing.assert_allclose(q.conj().T @ q, want.conj().T @ want, atol=1e-12)
            if (rel, floor) == (1e-10, 0.0):  # the cutoff of nullspace
                np.testing.assert_array_equal(nm.nullspace(a), q)

    def test_floor_above_relative_cutoff_decides(self):
        # singular values 1, 1e-3, 1e-6: a floor of 1e-4 cuts the last one,
        # a floor of 1e-2 the last two
        u, _ = np.linalg.qr(RNG.normal(size=(5, 3)))
        v, _ = np.linalg.qr(RNG.normal(size=(4, 3)))
        a = u @ np.diag([1.0, 1e-3, 1e-6]) @ v.T
        for floor, rank in ((0.0, 3), (1e-4, 2), (1e-2, 1)):
            cutoff = two_factorization_cutoff(a, 1e-10, floor)
            assert two_factorization_rank(a, cutoff) == rank
            svd = nm.svd_rank(a, 1e-10, floor)
            assert svd.rank == rank
            assert svd.cutoff == max(1e-10 * svd.smax, floor)
            assert svd.vh[svd.rank :].shape == (4 - rank, 4)


class TestRankAndNullspace:
    def test_rank_of_constructed_low_rank_matrix(self):
        for r in range(1, 4):
            a = RNG.normal(size=(6, r)) @ RNG.normal(size=(r, 5))
            assert nm.svd_rank(a).rank == r

    def test_nullspace_annihilates_and_is_orthonormal(self):
        a = RNG.normal(size=(3, 6)) + 1j * RNG.normal(size=(3, 6))
        q = nm.nullspace(a)
        assert q.shape == (3, 6)
        assert np.abs(a @ q.T).max() < 1e-10
        np.testing.assert_allclose(q @ q.conj().T, np.eye(3), atol=1e-12)

    def test_left_nullspace(self):
        # the left kernel is the kernel of the transpose, as in the staircase
        a = RNG.normal(size=(5, 3))
        q = nm.nullspace(a.T)
        assert q.shape == (2, 5)
        assert np.abs(q @ a).max() < 1e-10

    def test_orthonormal_rows_span(self):
        # Rows of the result must span the row space *without conjugation*.
        rows = np.array([[1.0 + 2.0j, 0.5, 0.0], [0.0, 1.0j, 1.0]])
        q = nm.orthonormal_rows(rows)
        assert q.shape[0] == 2
        # every original row is reproduced by projection onto q
        for row in rows:
            proj = (row @ q.conj().T) @ q
            np.testing.assert_allclose(proj, row, atol=1e-12)


class TestClustering:
    def test_groups_nearby_values(self):
        values = np.array([1.0, 1.0 + 1e-12, 0.5, 0.5 - 1e-12, -0.25])
        groups = nm.cluster_scalars(values, 1e-9)
        assert sorted(sorted(g) for g in groups) == [[0, 1], [2, 3], [4]]

    def test_chains_merge_transitively(self):
        values = np.array([0.0, 1e-10, 2e-10, 1.0])
        groups = nm.cluster_scalars(values, 1.5e-10)
        assert sorted(sorted(g) for g in groups) == [[0, 1, 2], [3]]

    def test_clusters_give_center_multiplicity_and_spread(self):
        values = np.array([2.0, 2.0 + 2e-9, 0.5, 2.0 - 2e-9])
        got = sorted(nm.clusters(values, 1e-8), key=lambda c: -c[1])
        assert [m for _, m, _ in got] == [3, 1]
        center, _, spread = got[0]
        assert center == pytest.approx(2.0, abs=1e-15)
        assert spread == pytest.approx(2e-9, rel=1e-6)
        assert got[1] == (0.5 + 0j, 1, 0.0)


def clusters_by_mean(values, rtol):
    """``clusters`` as it was before singletons skipped ``mean``: every
    center a ``mean``, every spread a reduction; an oracle, down to the
    signs of zeros."""
    values = np.asarray(values, dtype=complex)
    out = []
    for idxs in nm.cluster_scalars(values, nm.cluster_tolerance(values, rtol)):
        members = values[idxs]
        center = complex(members.mean())
        out.append((center, len(idxs), float(np.abs(members - center).max(initial=0.0))))
    return out


PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-300, -5e-324]),
    st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def cluster_values(draw):
    """Values with +-0.0 parts, exact duplicates, chains of steps near the
    tolerance, and conjugate pairs."""
    rtol = draw(st.sampled_from([1e-12, 1e-8, 1e-3]))
    values = []
    for _ in range(draw(st.integers(0, 7))):
        z = complex(draw(PARTS), draw(PARTS))
        values.append(z)
        extra = draw(st.sampled_from(["none", "duplicate", "conjugate", "chain"]))
        if extra == "duplicate":
            values.append(z)
        elif extra == "conjugate":
            values.append(z.conjugate())
        elif extra == "chain":
            # steps of about the tolerance, the largest magnitude being about 8
            step = rtol * 8.0 * draw(st.sampled_from([0.5, 0.9999999, 1.0, 1.0000001, 2.0]))
            direction = draw(st.sampled_from([1, -1, 1j, -1j, (1 + 1j) / 2**0.5]))
            for k in range(1, draw(st.integers(2, 4))):
                values.append(z + k * step * direction)
    order = draw(st.permutations(range(len(values))))
    return [values[i] for i in order], rtol


class TestClustersOracle:
    @given(cluster_values())
    def test_matches_the_mean_based_clustering(self, case):
        values, rtol = case
        # repr shows the sign of a zero
        assert repr(nm.clusters(values, rtol)) == repr(clusters_by_mean(values, rtol))

    def test_singleton_center_keeps_the_signs_mean_gives(self):
        for z in (complex(-0.0, 0.0), complex(-0.0, -0.0), complex(0.0, -0.0), complex(-1.5, -0.0)):
            ((center, mult, spread),) = nm.clusters([z], 1e-8)
            assert repr(center) == repr(complex(np.array([z]).mean()))
            assert (mult, spread) == (1, 0.0)


class TestFloatPolyGcd:
    def test_common_factor_recovered(self):
        # (x-1)(x-2) and (x-1)(x+4) share x-1
        a = np.polynomial.polynomial.polyfromroots([1.0, 2.0])
        b = np.polynomial.polynomial.polyfromroots([1.0, -4.0])
        g = nm.float_poly_gcd(a, b)
        assert len(g) == 2
        root = -g[0] / g[1]
        assert abs(root - 1.0) < 1e-8

    def test_coprime_gives_constant(self):
        a = np.polynomial.polynomial.polyfromroots([1.0, 2.0])
        b = np.polynomial.polynomial.polyfromroots([-1.0, -2.0])
        g = nm.float_poly_gcd(a, b)
        assert len(g) == 1

    def test_multiple_common_root(self):
        a = np.polynomial.polynomial.polyfromroots([3.0, 3.0, 1.0])
        b = np.polynomial.polynomial.polyfromroots([3.0, 3.0, -2.0])
        g = nm.float_poly_gcd(a, b)
        assert len(g) == 3
        roots = np.sort(np.roots(g[::-1]))
        np.testing.assert_allclose(roots, [3.0, 3.0], atol=1e-5)


class TestRootsWithMultiplicity:
    def test_simple_and_double_roots(self):
        # roots cluster with the eigenvalue routine, at the root tolerance
        p = np.polynomial.polynomial.polyfromroots([2.0, 2.0, -1.0])
        triples = nm.clusters(nm.poly_roots(p), 1e-7)
        as_dict = {complex(np.round(r, 6)): m for r, m, _ in triples}
        assert as_dict == {(2 + 0j): 2, (-1 + 0j): 1}
