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

    @pytest.mark.parametrize(
        "values, rational",
        [
            (np.array([1, 1]), True),
            (np.array([1, 1], dtype=np.float32), False),
            (np.array([1, 1], dtype=np.complex64), False),
        ],
        ids=["int64", "float32", "complex64"],
    )
    def test_numpy_scalars(self, values, rational):
        m = rf.mask_from_coefficients(values)
        assert m.is_rational == rational
        np.testing.assert_array_equal(m.coefficients, [1, 1])
        if rational:
            # Python integers, which do not overflow in Fraction arithmetic
            assert [type(f.numerator) for f in m.exact] == [int, int]

    def test_mixed_exact_and_float(self):
        m = rf.mask_from_coefficients([Fraction(1, 2), 1.5])
        assert not m.is_rational

    def test_parse_mask_document(self):
        doc = {"name": "b", "coefficients": ["1/4", "3/4", "3/4", "1/4"]}
        m = rf.parse_mask(json.dumps(doc))
        assert m.name == "b"
        assert m.n == 3
        # the bare coefficient array is the same mask, unnamed
        m2 = rf.parse_mask(json.dumps(doc["coefficients"]))
        assert m2.exact == m.exact
        assert m2.name is None

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
            np.array([True, True]),
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
            rf.parse_mask(doc if isinstance(doc, str) else json.dumps(doc))

    @pytest.mark.parametrize(
        "text, kind",
        [("42", "a number"), ("1.5", "a number"), ('"1, 1"', "a string"), ("true", "a boolean"), ("null", "null")],
    )
    def test_parse_mask_names_the_json_type_it_refuses(self, text, kind):
        with pytest.raises(MaskError, match=f"^mask document must be a JSON object or array, not {kind}$"):
            rf.parse_mask(text)

    @pytest.mark.parametrize("huge", ["1e400", "-1e400", 10**400, Fraction(10**400, 3)])
    def test_rejects_exact_coefficient_beyond_float_range(self, huge):
        with pytest.raises(MaskError, match="coefficient 2"):
            rf.mask_from_coefficients(["1/2", "1", huge, "1/2"])

    @pytest.mark.parametrize("tiny", ["1e-400", "-1e-400", Fraction(1, 10**400)])
    @pytest.mark.parametrize("position", [0, 1])
    def test_rejects_exact_coefficient_that_rounds_to_zero(self, tiny, position):
        # its float copy would be 0.0: another mask than the exact one
        values = ["1/2", "1", "1", "1/2"]
        values[position] = tiny
        with pytest.raises(MaskError, match=f"coefficient {position} is too small"):
            rf.mask_from_coefficients(values)

    def test_keeps_exact_coefficient_in_the_subnormal_range(self):
        # the exact sum is 2 + 10^-310, not 2
        with pytest.warns(rf.MaskSumWarning):
            mask = rf.mask_from_coefficients(["1/2", Fraction(1, 10**310), "1", "1/2"])
        assert mask.coefficients[1] != 0
        assert mask.exact[1] == Fraction(1, 10**310)

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
