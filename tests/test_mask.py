"""Mask parsing, validation, and scale-matrix construction."""

from __future__ import annotations

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import refinable as rf
from refinable.errors import MaskError

from conftest import make_mask


class TestParsing:
    def test_rational_strings_become_exact(self):
        m = make_mask("bspline3")
        assert m.is_rational
        assert m.exact == (Fraction(1, 4), Fraction(3, 4), Fraction(3, 4), Fraction(1, 4))
        np.testing.assert_allclose(m.coefficients.real, [0.25, 0.75, 0.75, 0.25])

    def test_integers_stay_exact(self):
        m = rf.mask_from_coefficients([1, 1])
        assert m.is_rational
        assert m.exact == (Fraction(1), Fraction(1))

    def test_floats_are_not_rational(self):
        m = make_mask("d4")
        assert not m.is_rational
        assert m.exact is None

    def test_mixed_exact_and_float(self):
        m = rf.mask_from_coefficients([Fraction(1, 2), 1.5])
        assert not m.is_rational

    def test_parse_mask_document(self):
        doc = {"name": "b", "coefficients": ["1/4", "3/4", "3/4", "1/4"]}
        m = rf.parse_mask(doc)
        assert m.name == "b"
        assert m.n == 3
        m2 = rf.parse_mask(json.dumps(doc))
        assert m2.exact == m.exact

    def test_c_accessor_is_zero_outside_support(self):
        m = make_mask("bspline3")
        assert m.c(-1) == 0
        assert m.c(4) == 0
        assert m.c(0) == 0.25
        assert m.exact_c(-2) == 0
        assert m.exact_c(3) == Fraction(1, 4)

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            [1.0],
            [0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0],
            [float("nan"), 1.0],
            [float("inf"), 1.0],
            ["1/0", "1"],
            ["x", "1"],
            [True, 1],
            [1.0, complex(0.5, float("inf"))],
        ],
    )
    def test_rejects_bad_coefficients(self, bad):
        with pytest.raises(MaskError):
            rf.mask_from_coefficients(bad)

    @pytest.mark.parametrize(
        "doc",
        [
            42,
            [],
            {},
            {"coefficients": []},
            {"coefficients": "1,1"},
            {"coefficients": [1, 1], "name": 7},
            "not json",
        ],
    )
    def test_parse_mask_rejects_bad_documents(self, doc):
        with pytest.raises(MaskError):
            rf.parse_mask(doc)

    @pytest.mark.parametrize("huge", ["1e400", "-1e400", 10**400, Fraction(10**400, 3)])
    def test_rejects_exact_coefficient_beyond_float_range(self, huge):
        with pytest.raises(MaskError, match="coefficient 2"):
            rf.mask_from_coefficients(["1/2", "1", huge, "1/2"])

    def test_sum_warning(self):
        with pytest.warns(rf.MaskSumWarning):
            rf.mask_from_coefficients([0.4, 0.4])
        # sum exactly 2: no warning
        with np.testing.assert_no_warnings():
            rf.mask_from_coefficients([1.0, 1.0])

    @given(
        st.lists(
            st.fractions(
                min_value=Fraction(-8), max_value=Fraction(8), max_denominator=64
            ),
            min_size=2,
            max_size=8,
        )
    )
    def test_fraction_lists_round_trip(self, values):
        if values[0] == 0 or values[-1] == 0:
            with pytest.raises(MaskError):
                rf.mask_from_coefficients(values)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", rf.MaskSumWarning)
            m = rf.mask_from_coefficients(values)
        assert m.exact == tuple(values)
        assert m.n == len(values) - 1


class TestScaleMatrices:
    def test_entries_follow_the_two_scale_index_law(self, all_masks):
        for mask in all_masks[:20]:
            scale = rf.build_scale_matrices(mask)
            n = mask.n
            for i in range(n + 1):
                for j in range(n + 1):
                    assert scale.full[i, j] == mask.c(2 * i - j)

    def test_blocks_are_the_advertised_slices(self):
        scale = rf.build_scale_matrices(make_mask("bspline3"))
        np.testing.assert_array_equal(scale.head, scale.full[:-1, :-1])
        np.testing.assert_array_equal(scale.tail, scale.full[1:, 1:])
        np.testing.assert_array_equal(scale.core, scale.full[1:-1, 1:-1])

    def test_corner_rows_make_unit_vectors_left_eigenvectors(self, all_masks):
        # Row 0 is (c_0, 0, ...) and row N is (..., 0, c_N), so e_0 and e_N
        # are always left eigenvectors for the corner eigenvalues.
        for mask in all_masks[:20]:
            scale = rf.build_scale_matrices(mask)
            n = mask.n
            e0 = np.zeros(n + 1)
            e0[0] = 1.0
            en = np.zeros(n + 1)
            en[n] = 1.0
            np.testing.assert_allclose(e0 @ scale.full, mask.c(0) * e0, atol=1e-14)
            np.testing.assert_allclose(en @ scale.full, mask.c(n) * en, atol=1e-14)

    def test_exact_rows_match_floats(self):
        scale = rf.build_scale_matrices(make_mask("jordan13"))
        rows = scale.exact_rows()
        for i, row in enumerate(rows):
            for j, q in enumerate(row):
                assert abs(float(q) - scale.full[i, j].real) < 1e-15

    def test_exact_rows_raise_without_rational_mask(self):
        scale = rf.build_scale_matrices(make_mask("d4"))
        with pytest.raises(MaskError):
            scale.exact_rows()

    def test_shifted(self):
        scale = rf.build_scale_matrices(make_mask("bspline3"))
        np.testing.assert_array_equal(
            scale.shifted(0.5), scale.full - 0.5 * np.eye(4)
        )

    def test_charpoly_factors_through_the_corners(self, all_masks):
        # charpoly(T) = (x - c_0)(x - c_N) * charpoly(M), coefficient-wise.
        for mask in all_masks[:25]:
            if mask.n < 2:
                continue
            scale = rf.build_scale_matrices(mask)
            full_poly = np.poly(scale.full)  # descending
            core_poly = np.poly(scale.core)
            corners = np.array([1.0, -(mask.c(0) + mask.c(mask.n)), mask.c(0) * mask.c(mask.n)])
            product = np.polymul(np.atleast_1d(corners), np.atleast_1d(core_poly))
            np.testing.assert_allclose(full_poly, product, atol=1e-10 * max(1, np.abs(product).max()))


class TestMaskPolynomials:
    def test_even_odd_split(self):
        polys = rf.mask_polynomials(make_mask("bspline3"))
        np.testing.assert_allclose(polys.even.real, [0.25, 0.75])
        np.testing.assert_allclose(polys.odd.real, [0.75, 0.25])
        assert polys.exact_even == (Fraction(1, 4), Fraction(3, 4))
        assert polys.exact_odd == (Fraction(3, 4), Fraction(1, 4))

    def test_split_reassembles_the_mask(self, all_masks):
        for mask in all_masks[:20]:
            polys = rf.mask_polynomials(mask)
            rebuilt = np.zeros(mask.n + 1, dtype=complex)
            rebuilt[0::2] = polys.even
            rebuilt[1::2] = polys.odd
            np.testing.assert_array_equal(rebuilt, mask.coefficients)
