"""Jordan structure of the scale matrix, accuracy, independence, and
kernel transfer between the full matrix and its interior block.

The central oracle is the defining identity B T = J B together with the
chain bookkeeping: every chain row must satisfy v_j (T - lam I) = v_{j-1}
exactly (bottom rows annihilate), independently of how the rows were
constructed.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest

import refinable as rf
from refinable.errors import SpectralError
from refinable.spectral import VERDICT_DEPENDENT, VERDICT_INDEPENDENT

from conftest import make_mask, make_scale


def chain_residual(spectral: rf.SpectralData, scale: rf.ScaleMatrices) -> float:
    """max residual of v_j (T - lam I) = v_{j-1} over all chain rows."""
    worst = 0.0
    for info in spectral.rows:
        if info.chain is None:
            continue
        v = spectral.basis[info.index]
        shifted = v @ scale.shifted(info.eigenvalue)
        want = spectral.basis[info.prev_row] if info.prev_row is not None else np.zeros_like(v)
        worst = max(worst, float(np.abs(shifted - want).max()))
    return worst


def bspline(order: int) -> rf.Mask:
    coeffs = [Fraction(comb(order, k), 2 ** (order - 1)) for k in range(order + 1)]
    return rf.mask_from_coefficients(coeffs, name=f"bspline{order}")


# (exact eigenvalue, algebraic multiplicity, chain lengths) of each group of
# eigen_structure(bspline(order), exact=True), recorded with the Fraction
# elimination that the integer elimination of `exact` replaced
BSPLINE_EXACT_GROUPS = {
    1: [("1", 2, (1, 1))],
    2: [("1", 1, (1,)), ("1/2", 2, (1, 1))],
    3: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 2, (1, 1))],
    4: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 1, (1,)), ("1/8", 2, (1, 1))],
    5: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 1, (1,)), ("1/8", 1, (1,)), ("1/16", 2, (1, 1))],
    6: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 1, (1,)), ("1/8", 1, (1,)), ("1/16", 1, (1,)),
        ("1/32", 2, (1, 1))],
    7: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 1, (1,)), ("1/8", 1, (1,)), ("1/16", 1, (1,)),
        ("1/32", 1, (1,)), ("1/64", 2, (1, 1))],
    8: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 1, (1,)), ("1/8", 1, (1,)), ("1/16", 1, (1,)),
        ("1/32", 1, (1,)), ("1/64", 1, (1,)), ("1/128", 2, (1, 1))],
    9: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 1, (1,)), ("1/8", 1, (1,)), ("1/16", 1, (1,)),
        ("1/32", 1, (1,)), ("1/64", 1, (1,)), ("1/128", 1, (1,)), ("1/256", 2, (1, 1))],
    10: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 1, (1,)), ("1/8", 1, (1,)), ("1/16", 1, (1,)),
        ("1/32", 1, (1,)), ("1/64", 1, (1,)), ("1/128", 1, (1,)), ("1/256", 1, (1,)),
        ("1/512", 2, (1, 1))],
    11: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 1, (1,)), ("1/8", 1, (1,)), ("1/16", 1, (1,)),
        ("1/32", 1, (1,)), ("1/64", 1, (1,)), ("1/128", 1, (1,)), ("1/256", 1, (1,)),
        ("1/512", 1, (1,)), ("1/1024", 2, (1, 1))],
    12: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 1, (1,)), ("1/8", 1, (1,)), ("1/16", 1, (1,)),
        ("1/32", 1, (1,)), ("1/64", 1, (1,)), ("1/128", 1, (1,)), ("1/256", 1, (1,)),
        ("1/512", 1, (1,)), ("1/1024", 1, (1,)), ("1/2048", 2, (1, 1))],
    13: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 1, (1,)), ("1/8", 1, (1,)), ("1/16", 1, (1,)),
        ("1/32", 1, (1,)), ("1/64", 1, (1,)), ("1/128", 1, (1,)), ("1/256", 1, (1,)),
        ("1/512", 1, (1,)), ("1/1024", 1, (1,)), ("1/2048", 1, (1,)), ("1/4096", 2, (1, 1))],
    14: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 1, (1,)), ("1/8", 1, (1,)), ("1/16", 1, (1,)),
        ("1/32", 1, (1,)), ("1/64", 1, (1,)), ("1/128", 1, (1,)), ("1/256", 1, (1,)),
        ("1/512", 1, (1,)), ("1/1024", 1, (1,)), ("1/2048", 1, (1,)), ("1/4096", 1, (1,)),
        ("1/8192", 2, (1, 1))],
    15: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 1, (1,)), ("1/8", 1, (1,)), ("1/16", 1, (1,)),
        ("1/32", 1, (1,)), ("1/64", 1, (1,)), ("1/128", 1, (1,)), ("1/256", 1, (1,)),
        ("1/512", 1, (1,)), ("1/1024", 1, (1,)), ("1/2048", 1, (1,)), ("1/4096", 1, (1,)),
        ("1/8192", 1, (1,)), ("1/16384", 2, (1, 1))],
    16: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 1, (1,)), ("1/8", 1, (1,)), ("1/16", 1, (1,)),
        ("1/32", 1, (1,)), ("1/64", 1, (1,)), ("1/128", 1, (1,)), ("1/256", 1, (1,)),
        ("1/512", 1, (1,)), ("1/1024", 1, (1,)), ("1/2048", 1, (1,)), ("1/4096", 1, (1,)),
        ("1/8192", 1, (1,)), ("1/16384", 1, (1,)), ("1/32768", 2, (1, 1))],
    17: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 1, (1,)), ("1/8", 1, (1,)), ("1/16", 1, (1,)),
        ("1/32", 1, (1,)), ("1/64", 1, (1,)), ("1/128", 1, (1,)), ("1/256", 1, (1,)),
        ("1/512", 1, (1,)), ("1/1024", 1, (1,)), ("1/2048", 1, (1,)), ("1/4096", 1, (1,)),
        ("1/8192", 1, (1,)), ("1/16384", 1, (1,)), ("1/32768", 1, (1,)), ("1/65536", 2, (1, 1))],
    18: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 1, (1,)), ("1/8", 1, (1,)), ("1/16", 1, (1,)),
        ("1/32", 1, (1,)), ("1/64", 1, (1,)), ("1/128", 1, (1,)), ("1/256", 1, (1,)),
        ("1/512", 1, (1,)), ("1/1024", 1, (1,)), ("1/2048", 1, (1,)), ("1/4096", 1, (1,)),
        ("1/8192", 1, (1,)), ("1/16384", 1, (1,)), ("1/32768", 1, (1,)), ("1/65536", 1, (1,)),
        ("1/131072", 2, (1, 1))],
    19: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 1, (1,)), ("1/8", 1, (1,)), ("1/16", 1, (1,)),
        ("1/32", 1, (1,)), ("1/64", 1, (1,)), ("1/128", 1, (1,)), ("1/256", 1, (1,)),
        ("1/512", 1, (1,)), ("1/1024", 1, (1,)), ("1/2048", 1, (1,)), ("1/4096", 1, (1,)),
        ("1/8192", 1, (1,)), ("1/16384", 1, (1,)), ("1/32768", 1, (1,)), ("1/65536", 1, (1,)),
        ("1/131072", 1, (1,)), ("1/262144", 2, (1, 1))],
    20: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 1, (1,)), ("1/8", 1, (1,)), ("1/16", 1, (1,)),
        ("1/32", 1, (1,)), ("1/64", 1, (1,)), ("1/128", 1, (1,)), ("1/256", 1, (1,)),
        ("1/512", 1, (1,)), ("1/1024", 1, (1,)), ("1/2048", 1, (1,)), ("1/4096", 1, (1,)),
        ("1/8192", 1, (1,)), ("1/16384", 1, (1,)), ("1/32768", 1, (1,)), ("1/65536", 1, (1,)),
        ("1/131072", 1, (1,)), ("1/262144", 1, (1,)), ("1/524288", 2, (1, 1))],
    21: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 1, (1,)), ("1/8", 1, (1,)), ("1/16", 1, (1,)),
        ("1/32", 1, (1,)), ("1/64", 1, (1,)), ("1/128", 1, (1,)), ("1/256", 1, (1,)),
        ("1/512", 1, (1,)), ("1/1024", 1, (1,)), ("1/2048", 1, (1,)), ("1/4096", 1, (1,)),
        ("1/8192", 1, (1,)), ("1/16384", 1, (1,)), ("1/32768", 1, (1,)), ("1/65536", 1, (1,)),
        ("1/131072", 1, (1,)), ("1/262144", 1, (1,)), ("1/524288", 1, (1,)),
        ("1/1048576", 2, (1, 1))],
    22: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 1, (1,)), ("1/8", 1, (1,)), ("1/16", 1, (1,)),
        ("1/32", 1, (1,)), ("1/64", 1, (1,)), ("1/128", 1, (1,)), ("1/256", 1, (1,)),
        ("1/512", 1, (1,)), ("1/1024", 1, (1,)), ("1/2048", 1, (1,)), ("1/4096", 1, (1,)),
        ("1/8192", 1, (1,)), ("1/16384", 1, (1,)), ("1/32768", 1, (1,)), ("1/65536", 1, (1,)),
        ("1/131072", 1, (1,)), ("1/262144", 1, (1,)), ("1/524288", 1, (1,)),
        ("1/1048576", 1, (1,)), ("1/2097152", 2, (1, 1))],
    23: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 1, (1,)), ("1/8", 1, (1,)), ("1/16", 1, (1,)),
        ("1/32", 1, (1,)), ("1/64", 1, (1,)), ("1/128", 1, (1,)), ("1/256", 1, (1,)),
        ("1/512", 1, (1,)), ("1/1024", 1, (1,)), ("1/2048", 1, (1,)), ("1/4096", 1, (1,)),
        ("1/8192", 1, (1,)), ("1/16384", 1, (1,)), ("1/32768", 1, (1,)), ("1/65536", 1, (1,)),
        ("1/131072", 1, (1,)), ("1/262144", 1, (1,)), ("1/524288", 1, (1,)),
        ("1/1048576", 1, (1,)), ("1/2097152", 1, (1,)), ("1/4194304", 2, (1, 1))],
    24: [("1", 1, (1,)), ("1/2", 1, (1,)), ("1/4", 1, (1,)), ("1/8", 1, (1,)), ("1/16", 1, (1,)),
        ("1/32", 1, (1,)), ("1/64", 1, (1,)), ("1/128", 1, (1,)), ("1/256", 1, (1,)),
        ("1/512", 1, (1,)), ("1/1024", 1, (1,)), ("1/2048", 1, (1,)), ("1/4096", 1, (1,)),
        ("1/8192", 1, (1,)), ("1/16384", 1, (1,)), ("1/32768", 1, (1,)), ("1/65536", 1, (1,)),
        ("1/131072", 1, (1,)), ("1/262144", 1, (1,)), ("1/524288", 1, (1,)),
        ("1/1048576", 1, (1,)), ("1/2097152", 1, (1,)), ("1/4194304", 1, (1,)),
        ("1/8388608", 2, (1, 1))],
}


def short_rational_masks() -> list[rf.Mask]:
    """Seeded rational masks of length 2 and 3 with small numerators and
    denominators, built without the warning for coefficients not summing to 2."""
    rng = np.random.default_rng(7)
    masks = []
    for _ in range(25):
        n = int(rng.integers(1, 3))
        coeffs = [
            Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 7)))
            for _ in range(n + 1)
        ]
        if coeffs[0] == 0 or coeffs[-1] == 0:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", rf.MaskSumWarning)
            masks.append(rf.mask_from_coefficients(coeffs))
    return masks


class TestEigenStructure:
    def test_similarity_identity_on_whole_corpus(self, all_masks, pipeline):
        for mask in all_masks:
            scale, spectral, _, _ = pipeline(mask)
            lhs = spectral.basis @ scale.full
            rhs = spectral.jordan @ spectral.basis
            scale_ref = max(1.0, float(np.abs(scale.full).max()))
            assert np.abs(lhs - rhs).max() <= 1e-8 * scale_ref, mask.name

    def test_chain_bookkeeping_on_whole_corpus(self, all_masks, pipeline):
        for mask in all_masks:
            scale, spectral, _, _ = pipeline(mask)
            assert chain_residual(spectral, scale) <= 1e-7, mask.name

    def test_group_multiplicities_sum_to_dimension(self, all_masks, pipeline):
        for mask in all_masks:
            _, spectral, _, _ = pipeline(mask)
            assert sum(g.algebraic for g in spectral.groups) == mask.n + 1
            for g in spectral.groups:
                assert sum(g.chain_lengths) == g.algebraic
                assert len(g.chain_lengths) == g.geometric

    def test_groups_ordered_by_modulus_then_angle(self, all_masks, pipeline):
        for mask in all_masks:
            _, spectral, _, _ = pipeline(mask)
            keys = [
                (-round(abs(g.eigenvalue), 9), round(np.angle(g.eigenvalue), 9))
                for g in spectral.groups
            ]
            assert keys == sorted(keys), mask.name

    def test_convention_rows(self, all_masks, pipeline):
        # first row of the c_0 group is e_0; the global last row is e_N
        for mask in all_masks:
            _, spectral, _, _ = pipeline(mask)
            size = mask.n + 1
            if not (spectral.convention_first and spectral.convention_last):
                continue
            e0 = np.zeros(size)
            e0[0] = 1.0
            en = np.zeros(size)
            en[-1] = 1.0
            np.testing.assert_allclose(spectral.basis[size - 1], en, atol=1e-9)
            c0_rows = [
                r.index
                for r in spectral.rows
                if abs(r.eigenvalue - mask.c(0)) < 1e-8 * max(1, abs(mask.c(0)))
            ]
            np.testing.assert_allclose(spectral.basis[min(c0_rows)], e0, atol=1e-9)

    def test_basis_is_invertible(self, all_masks, pipeline):
        for mask in all_masks:
            _, spectral, _, _ = pipeline(mask)
            assert np.linalg.cond(spectral.basis) < 1e10, mask.name

    def test_row_info_is_complete_and_consistent(self, all_masks, pipeline):
        for mask in all_masks[:20]:
            _, spectral, _, _ = pipeline(mask)
            assert [r.index for r in spectral.rows] == list(range(mask.n + 1))
            for info in spectral.rows:
                if info.chain is None:
                    assert info.prev_row is None
                    continue
                # the bottom has no predecessor; above it, the predecessor is
                # the row one position down the same chain
                assert (info.prev_row is None) == (info.position == 0)
                if info.prev_row is not None:
                    prev = spectral.rows[info.prev_row]
                    assert (prev.chain, prev.position) == (info.chain, info.position - 1)
                    assert prev.eigenvalue == info.eigenvalue


class TestExactMode:
    def test_bspline3_exact_spectrum(self):
        spectral = rf.eigen_structure(make_scale("bspline3"), exact=True)
        assert spectral.is_exact
        assert spectral.residual == 0.0
        exact = sorted(
            (g.exact_eigenvalue for g in spectral.groups), reverse=True
        )
        assert exact == sorted(
            [Fraction(1), Fraction(1, 2), Fraction(1, 4)], reverse=True
        )

    def test_exact_similarity_is_exact(self):
        import refinable.exact as xq

        for name in ("bspline3", "jordan13", "half", "haar"):
            scale = make_scale(name)
            spectral = rf.eigen_structure(scale, exact=True)
            basis = [list(row) for row in spectral.exact_basis]
            jordan = [list(row) for row in spectral.exact_jordan]
            lhs = xq.mat_mul(basis, scale.exact_rows())
            rhs = xq.mat_mul(jordan, basis)
            assert lhs == rhs, name
            # the float rendition is the exact data rounded once
            assert np.abs(
                spectral.basis - np.array(basis, dtype=complex)
            ).max() < 1e-15

    @pytest.mark.filterwarnings("ignore::refinable.MaskSumWarning")
    def test_exact_mode_requires_rational_spectrum(self):
        # rational mask whose core has irrational eigenvalues
        mask = rf.mask_from_coefficients(["1/2", "1/4", "1", "3/4", "1/2"], name="irr")
        scale = rf.build_scale_matrices(mask)
        with pytest.raises(SpectralError):
            rf.eigen_structure(scale, exact=True)
        # auto mode falls back to float and records why
        spectral = rf.eigen_structure(scale)
        assert not spectral.is_exact
        assert "with no rational root" in spectral.exact_fallback

    def test_fallback_reason_names_the_factor_degrees(self):
        # a denominator-16 mask whose characteristic polynomial has a
        # constant term of about 5.7e17 and a degree-7 irrational factor
        mask = rf.mask_from_coefficients(
            ["65/16", "93/16", "7/16", "33/8", "-9/8", "-7/16", "-29/16", "-1/16", "-9/16", "-135/16"]
        )
        spectral = rf.eigen_structure(rf.build_scale_matrices(mask))
        assert not spectral.is_exact
        assert spectral.exact_fallback == (
            "exact spectral mode needs a fully rational spectrum; "
            "factors of degrees [7] with no rational root remain"
        )

    def test_no_fallback_reason_without_a_fallback(self):
        assert rf.eigen_structure(make_scale("bspline3")).exact_fallback is None
        assert rf.eigen_structure(make_scale("bspline3"), exact=False).exact_fallback is None
        assert rf.eigen_structure(make_scale("d4")).exact_fallback is None

    def test_bspline_orders_1_to_24_match_the_recorded_structure(self):
        for order in range(1, 25):
            spectral = rf.eigen_structure(rf.build_scale_matrices(bspline(order)), exact=True)
            assert spectral.is_exact and spectral.residual == 0.0, order
            groups = [(str(g.exact_eigenvalue), g.algebraic, g.chain_lengths) for g in spectral.groups]
            assert groups == BSPLINE_EXACT_GROUPS[order], order

    def test_exact_mode_rejects_float_mask(self):
        with pytest.raises(SpectralError):
            rf.eigen_structure(make_scale("d4"), exact=True)

    def test_random_short_rational_masks_have_zero_residual(self):
        for mask in short_rational_masks():
            spectral = rf.eigen_structure(rf.build_scale_matrices(mask), exact=True)
            assert spectral.is_exact and spectral.residual == 0.0

    def test_float_and_exact_paths_agree_on_the_structure(self, corpus):
        masks = [m for m in corpus.values() if m.is_rational]
        masks += [bspline(order) for order in range(1, 11)] + short_rational_masks()
        for mask in masks:
            scale = rf.build_scale_matrices(mask)
            exact = rf.eigen_structure(scale, exact=True)
            flt = rf.eigen_structure(scale, exact=False)
            for attr in ("jordan_canonical", "convention_first", "convention_last"):
                assert getattr(exact, attr) == getattr(flt, attr), (mask.name, attr)
            assert [(g.algebraic, g.geometric, g.chain_lengths) for g in exact.groups] == [
                (g.algebraic, g.geometric, g.chain_lengths) for g in flt.groups
            ], mask.name
            assert [(r.kind, r.chain, r.position, r.prev_row) for r in exact.rows] == [
                (r.kind, r.chain, r.position, r.prev_row) for r in flt.rows
            ], mask.name
            for a, b in zip(exact.groups, flt.groups):
                assert abs(a.eigenvalue - b.eigenvalue) <= 1e-8, mask.name
            for a, b in zip(exact.rows, flt.rows):
                assert abs(a.eigenvalue - b.eigenvalue) <= 1e-8, mask.name


@pytest.mark.parametrize("exact", [None, False])  # exact and float insertion layouts
class TestJordan13:
    def test_insertion_mode_with_true_chain_lengths(self, exact):
        spectral = rf.eigen_structure(make_scale("jordan13"), exact=exact)
        assert spectral.is_exact == (exact is None)
        assert not spectral.jordan_canonical
        group = next(g for g in spectral.groups if abs(g.eigenvalue - 1 / 3) < 1e-9)
        assert group.algebraic == 3
        assert sorted(group.chain_lengths, reverse=True) == [2, 1]
        kinds = [r.kind for r in spectral.rows]
        assert kinds.count("convention") == 2

    def test_two_chain_bottom_is_the_corner_difference(self, exact):
        # the length-2 chain bottom must lie in ker(T - I/3) ∩ im(T - I/3),
        # which is spanned by e_0 - e_3; recover it from the kept chain row
        scale = make_scale("jordan13")
        spectral = rf.eigen_structure(scale, exact=exact)
        lam = 1.0 / 3.0
        tops = [
            r
            for r in spectral.rows
            if r.kind == "chain"
            and abs(r.eigenvalue - lam) < 1e-9
            and rf.minimal_order(spectral.basis[r.index], scale, r.eigenvalue) == 2
        ]
        assert len(tops) == 1
        top = spectral.basis[tops[0].index]
        bottom = top @ scale.shifted(lam)
        np.testing.assert_allclose(
            bottom / bottom[0], [1.0, 0.0, 0.0, -1.0], atol=1e-9
        )
        np.testing.assert_allclose(
            bottom @ scale.shifted(lam), np.zeros(4), atol=1e-10
        )


class TestMinimalOrder:
    def test_orders_on_bspline3(self):
        mask = make_mask("bspline3")
        scale = rf.build_scale_matrices(mask)
        spectral = rf.eigen_structure(scale)
        for info in spectral.rows:
            v = spectral.basis[info.index]
            assert rf.minimal_order(v, scale, info.eigenvalue) == 1

    def test_order_two_for_chain_top(self):
        mask = make_mask("jordan13")
        scale = rf.build_scale_matrices(mask)
        spectral = rf.eigen_structure(scale)
        orders = {
            info.index: rf.minimal_order(
                spectral.basis[info.index], scale, info.eigenvalue
            )
            for info in spectral.rows
            if abs(info.eigenvalue - 1 / 3) < 1e-9
        }
        # algebraic multiplicity 3 with chain lengths (2, 1): exactly one
        # kept row needs one application of (T - lam I) to reach an eigenvector
        assert sorted(orders.values()) == [1, 1, 2]

    def test_rejects_non_generalized_vector(self):
        mask = make_mask("bspline3")
        scale = rf.build_scale_matrices(mask)
        with pytest.raises(SpectralError):
            rf.minimal_order(np.array([1.0, 1.0, 1.0, 1.0]), scale, 0.5)


class TestSpectrumOf:
    def test_multiplicities_of_constructed_matrix(self):
        a = np.diag([2.0, 2.0, -1.0]).astype(complex)
        a[0, 1] = 1.0
        pairs = rf.spectrum_of(a)
        as_dict = {complex(np.round(v, 9)): m for v, m, _ in pairs}
        assert as_dict == {(2 + 0j): 2, (-1 + 0j): 1}

    def test_exact_rows_give_exact_values(self):
        rows = [[Fraction(1, 2), 0], [1, Fraction(1, 2)]]
        pairs = rf.spectrum_of(rows)
        assert pairs[0][1] == 2
        assert pairs[0][2] == Fraction(1, 2)


class TestAccuracy:
    def test_bspline3_polynomials(self):
        acc = rf.accuracy(make_scale("bspline3"), exact=True)
        assert acc.order == 3
        assert acc.exact_coefficients[0] == (Fraction(1),)
        assert acc.exact_coefficients[1] == (Fraction(3, 2), Fraction(-1))
        assert acc.exact_coefficients[2] == (Fraction(2), Fraction(-3), Fraction(1))

    def test_leading_coefficient_is_signed_unit(self):
        acc = rf.accuracy(make_scale("bspline3"))
        for s, coeffs in enumerate(acc.coefficients):
            assert coeffs[-1] == pytest.approx((-1.0) ** s)

    def test_d4_order_two(self):
        acc = rf.accuracy(make_scale("d4"))
        assert acc.order == 2
        # first moment of the reproduction polynomial: (3 - sqrt(3)) / 2
        assert acc.coefficients[1][0].real == pytest.approx(
            (3 - np.sqrt(3)) / 2, rel=1e-10
        )

    def test_exact_bspline_accuracy_equals_the_order(self):
        # the float residual of an exact solution grows with k^p; it must
        # not veto a degree (orders 22-24 used to come out as 20, 21, 21)
        for order in range(1, 25):
            assert rf.accuracy(rf.build_scale_matrices(bspline(order)), exact=True).order == order

    def test_float_bspline_accuracy_equals_the_order(self):
        # (1 + z)^m divides the symbol; the float path that solved a
        # Vandermonde nullspace per degree gave 8, 8, 7, 7, 7, 6, ..., 5 for
        # orders 9-24
        for order in range(1, 25):
            assert rf.accuracy(rf.build_scale_matrices(bspline(order)), exact=False).order == order

    @pytest.mark.parametrize("order", [10, 16, 20])
    def test_perturbed_float_bspline_keeps_its_order(self, order):
        rng = np.random.default_rng(order)
        c = bspline(order).coefficients.real
        mask = rf.mask_from_coefficients(list(c * (1 + 1e-15 * rng.standard_normal(order + 1))))
        assert rf.accuracy(rf.build_scale_matrices(mask)).order == order

    @pytest.mark.filterwarnings("ignore::refinable.MaskSumWarning")
    @pytest.mark.parametrize("coeffs", [["1/2", "1/2"], ["1/8", "3/8", "3/8", "1/8"]])
    def test_sum_rules_without_sum_two_give_order_zero(self, coeffs):
        # (1 + z) divides the symbol, but the constants are reproduced only
        # when the mask sums to 2
        scale = rf.build_scale_matrices(rf.mask_from_coefficients(coeffs))
        for exact in (True, False):
            assert rf.accuracy(scale, exact=exact).order == 0

    def test_exact_and_float_agree_on_worked_masks(self):
        for name in ("bspline3", "half", "jordan13"):
            scale = make_scale(name)
            exact, flt = rf.accuracy(scale, exact=True), rf.accuracy(scale, exact=False)
            assert exact.order == flt.order
            for want, got in zip(exact.exact_coefficients, flt.coefficients):
                np.testing.assert_allclose(got, [float(x) for x in want], rtol=1e-14)

    def test_exact_accuracy_needs_a_rational_mask(self):
        with pytest.raises(SpectralError):
            rf.accuracy(make_scale("d4"), exact=True)

    def test_jordan13_and_half_order_one(self):
        assert rf.accuracy(make_scale("jordan13")).order == 1
        assert rf.accuracy(make_scale("half")).order == 1

    def test_eigen_residuals_verified(self, all_masks, pipeline):
        for mask in all_masks[:20]:
            scale, _, _, _ = pipeline(mask)
            acc = rf.accuracy(scale)
            for s, v in enumerate(acc.vectors):
                resid = np.abs(v @ scale.full - 2.0 ** (-s) * v).max()
                assert resid <= 1e-7 * max(1, np.abs(v).max())


class TestIndependence:
    def test_half_is_dependent_and_consistent(self):
        result = rf.independence_test(make_scale("half"))
        assert result.verdict == VERDICT_DEPENDENT
        assert result.gcd_degree == 1
        assert result.kernel_dimension == 1
        assert not result.core_invertible
        assert result.consistent
        assert result.diagnostic is None

    def test_bspline3_not_contradicted(self):
        result = rf.independence_test(make_scale("bspline3"))
        assert result.verdict == VERDICT_INDEPENDENT
        assert result.gcd_degree == 0
        assert result.core_invertible
        assert result.consistent

    def test_verdicts_never_claim_independence(self, all_masks):
        for mask in all_masks[:30]:
            verdict = rf.independence_test(rf.build_scale_matrices(mask)).verdict
            assert verdict in (VERDICT_DEPENDENT, VERDICT_INDEPENDENT)

    def test_haar_has_empty_core(self):
        result = rf.independence_test(make_scale("haar"))
        assert result.core_invertible  # vacuously: the core is 0 x 0
        assert result.gcd_degree == 0

    @pytest.mark.parametrize(
        "coeffs, degree, gcd",
        [
            ([1, 0, 1], 1, [1, 1]),
            ([1.0, 0.0, 1.0], 1, [1, 1]),
            (["1/2", 0, "1", "1/2"], 0, [1]),
            ([0.5, 0.0, 1.0, 0.5], 0, [1]),
            ([1, 0, 0, 0, 1], 2, [1, 0, 1]),
            (["1/2"] * 6, 2, [1, 1, 1]),
        ],
    )
    def test_gcd_and_kernel_of_L(self, coeffs, degree, gcd):
        # an identically zero odd part, rational and float input, and a
        # common factor of degree two
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", rf.MaskSumWarning)
            mask = rf.mask_from_coefficients(coeffs)
        result = rf.independence_test(rf.build_scale_matrices(mask))
        assert result.gcd_degree == degree
        assert result.gcd[-1] == 1  # monic
        np.testing.assert_allclose(result.gcd, gcd, atol=1e-12)
        assert result.kernel_dimension == degree
        assert result.consistent
        assert rf.kernel_of_L(mask).dimension == degree

    def test_kernel_dimension_is_measured_on_the_core(self):
        # even roots {-1/2, -2}, odd roots {-1/2, -2 + 1e-8}: the float gcd
        # keeps both roots at its Sylvester cutoff, while the core has only
        # one numerically singular direction at its cutoff
        poly = np.polynomial.polynomial
        coeffs = np.empty(6)
        coeffs[0::2] = poly.polyfromroots([-0.5, -2.0])
        coeffs[1::2] = poly.polyfromroots([-0.5, -2.0 + 1e-8])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", rf.MaskSumWarning)
            mask = rf.mask_from_coefficients(list(coeffs * 2 / coeffs.sum()))
        result = rf.independence_test(rf.build_scale_matrices(mask))
        assert result.gcd_degree == 2
        assert result.kernel_dimension == 1
        assert not result.core_invertible
        assert not result.consistent
        assert "dim ker(core) 1" in result.diagnostic


def jordan_structure(spectral):
    return [(g.algebraic, g.geometric, sorted(g.chain_lengths)) for g in spectral.groups]


class TestFloatSingleAttempt:
    def test_float_bspline_structure_matches_exact_or_raises(self):
        # at the default rtol the float path resolves orders 1-17 and
        # refuses 18-24; a coarser clustering would merge distinct
        # eigenvalues without an error, so a refusal is the right answer
        for order in range(1, 25):
            try:
                flt = rf.eigen_structure(rf.build_scale_matrices(bspline(order)), exact=False)
            except rf.ClusteringError:
                assert order >= 18, order
                continue
            ref = rf.eigen_structure(rf.build_scale_matrices(bspline(order)), exact=True)
            assert jordan_structure(flt) == jordan_structure(ref), order
            got = np.array([g.eigenvalue for g in flt.groups])
            want = np.array([g.eigenvalue for g in ref.groups])
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_jordan_pair_given_as_floats_matches_exact_or_raises(self):
        # 3/128 is a double eigenvalue with one chain of length 2; a
        # clustering 100x coarser than CLUSTER_RTOL splits it into two
        # chains of length 1 whose Jordan residual, 2.5e-8, passes the
        # float checks
        coeffs = ["-5/128", "-37/128", "-113/128", "-43/32", "-49/64", "49/64",
                  "119/64", "53/32", "103/128", "27/128", "3/128"]
        ref = rf.eigen_structure(rf.build_scale_matrices(rf.mask_from_coefficients(coeffs)), exact=True)
        pair = next(g for g in ref.groups if g.exact_eigenvalue == Fraction(3, 128))
        assert pair.chain_lengths == (2,)
        floats = rf.mask_from_coefficients([float(Fraction(c)) for c in coeffs])
        try:
            flt = rf.eigen_structure(rf.build_scale_matrices(floats), exact=False)
        except rf.ClusteringError:
            return
        assert jordan_structure(flt) == jordan_structure(ref)

    def test_refusal_carries_the_eigenvalues(self):
        with pytest.raises(rf.ClusteringError, match="rtol 1e-08") as info:
            rf.eigen_structure(rf.build_scale_matrices(bspline(18)), exact=False)
        assert len(info.value.values) == 19
        want = sorted(2.0**-s for s in range(18)) + [2.0**-17]
        np.testing.assert_allclose(sorted(v.real for v in info.value.values), sorted(want), atol=1e-3)

    def test_tight_cluster_resolves_on_the_first_attempt(self):
        # eigenvalues within ~1e-9 of each other: the single float attempt
        # builds a basis that passes its checks, merged or not
        eps = 1e-9
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", rf.MaskSumWarning)
            mask = rf.mask_from_coefficients([0.5 + eps, 1.0, 0.5, 1.0, 0.5 - eps])
        scale = rf.build_scale_matrices(mask)
        spectral = rf.eigen_structure(scale)
        lhs = spectral.basis @ scale.full
        rhs = spectral.jordan @ spectral.basis
        assert np.abs(lhs - rhs).max() <= 1e-6
