"""Deterministic serialization: stable float rendering, sorted keys,
escaping, and the CSV sample-table format; byte oracles for both writers,
and ``'%.17g'`` itself as the oracle of the numpy CSV column formatter and
of the matrix writer, whose partner rows are read off their pairs' slots.
"""

from __future__ import annotations

import collections
import contextlib
import enum
import json
import math
import tracemalloc
from fractions import Fraction
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import refinable as rf
from refinable import cli, report
from refinable.evaluate import MAX_LEVEL

from conftest import dump_csv_by_row


class TestFormatFloat:
    def test_round_trips_doubles(self):
        for x in (0.1, 1 / 3, 2**-52, 1e300, -4.625, 12345.6789e-12):
            assert float(report.format_float(x)) == x

    def test_negative_zero_is_normalized(self):
        assert report.format_float(-0.0) == "0"
        assert report.format_float(0.0) == "0"

    def test_integral_floats(self):
        assert report.format_float(2.0) == "2"
        assert report.format_float(-2.5) == "-2.5"


def dump_json_recursive(obj) -> str:
    """The recursive writer the templated one replaced, which renders each
    complex value as the dict {"im": ..., "re": ...}; a byte oracle."""
    out: list[str] = []
    _dump_recursive(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _dump_recursive(obj, out: list, indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(_escape_by_char(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(report.format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        _dump_recursive({"im": z.imag, "re": z.real}, out, indent)
    elif isinstance(obj, Fraction):
        out.append(_escape_by_char(report.fraction_str(obj)))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj.keys())
        for i, k in enumerate(keys):
            out.append(f"{pad}  {_escape_by_char(str(k))}: ")
            _dump_recursive(obj[k], out, indent + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(items):
            out.append(pad + "  ")
            _dump_recursive(item, out, indent + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r} deterministically")


def _escape_by_char(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


class TestDumpJson:
    def test_is_valid_json_with_sorted_keys(self):
        doc = {"b": [1, 2.5, None, True], "a": {"z": "s", "y": complex(1, -2)}}
        text = report.dump_json(doc)
        parsed = json.loads(text)
        assert parsed["a"]["y"] == {"re": 1.0, "im": -2.0}
        assert parsed["b"] == [1, 2.5, None, True]
        assert text.index('"a"') < text.index('"b"')
        assert text.index('"im"') < text.index('"re"')
        assert text.endswith("\n") and "\r" not in text

    def test_deterministic_across_key_insertion_order(self):
        a = report.dump_json({"x": 1, "y": 2})
        b = report.dump_json(dict([("y", 2), ("x", 1)]))
        assert a == b

    def test_fractions_render_as_strings(self):
        text = report.dump_json({"q": Fraction(3, 4), "n": Fraction(5, 1)})
        parsed = json.loads(text)
        assert parsed == {"q": "3/4", "n": "5"}
        assert report.fraction_str(None) is None

    def test_numpy_scalars_and_arrays(self):
        doc = {
            "i": np.int64(7),
            "f": np.float64(0.5),
            "z": np.complex128(2 + 3j),
            "v": np.array([1.0, -0.0]),
        }
        parsed = json.loads(report.dump_json(doc))
        assert parsed["i"] == 7
        assert parsed["f"] == 0.5
        assert parsed["z"] == {"re": 2.0, "im": 3.0}
        assert parsed["v"] == [1.0, 0.0]

    def test_string_escaping(self):
        ugly = 'quote " backslash \\ newline \n tab \t bell \x07'
        parsed = json.loads(report.dump_json({"s": ugly}))
        assert parsed["s"] == ugly

    def test_rejects_unserializable_types(self):
        with pytest.raises(TypeError):
            report.dump_json({"obj": object()})

    def test_empty_containers(self):
        assert json.loads(report.dump_json({})) == {}
        assert json.loads(report.dump_json([])) == []


def first_difference(a: str, b: str):
    """None when the texts are equal, else the first differing line pair
    (keeps pytest from diffing megabyte strings)."""
    if a == b:
        return None
    for pair in zip(a.split("\n"), b.split("\n")):
        if pair[0] != pair[1]:
            return pair
    return (len(a), len(b))


EDGE_FLOATS = [
    0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, math.inf, -math.inf, math.nan,
    -math.nan, 1 / 3, -2.5, 2.0**-52, 1e300, -1.7976931348623157e308, 12345.6789e-12,
]


class TestDumpCsv:
    def test_header_rows_and_line_endings(self):
        xs = [0.0, 0.5, 1.0]
        values = np.array([1.0, -0.0 + 0.25j, complex(1 / 3, -2)])
        text = report.dump_csv(xs, values)
        lines = text.split("\n")
        assert lines[0] == report.CSV_HEADER == "x,re,im"
        assert lines[1] == "0,1,0"
        assert lines[2] == "0.5,0,0.25"
        re_str, im_str = lines[3].split(",")[1:]
        assert float(re_str) == 1 / 3 and float(im_str) == -2.0
        assert text.endswith("\n") and "\r" not in text
        assert len(lines) == 5  # header + 3 rows + trailing blank

    def test_byte_identical_across_calls(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=32)
        values = rng.normal(size=32) + 1j * rng.normal(size=32)
        assert report.dump_csv(xs, values) == report.dump_csv(xs, values)

    def test_matches_the_row_writer_on_edge_values(self):
        xs = EDGE_FLOATS
        values = [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)] + [
            complex(a, b) for a, b in zip(EDGE_FLOATS[3:], reversed(EDGE_FLOATS[3:]))
        ]
        assert len(values) == len(xs)
        text = report.dump_csv(xs, values)
        assert text == dump_csv_by_row(xs, values)
        assert text.split("\n")[1:4] == ["0,0,0", "0,0,0", "1e-300,0,0"]

    def test_matches_the_row_writer_on_65537_rows(self):
        rng = np.random.default_rng(65537)
        xs = np.arange(65537) / 2**14 - 2.0
        values = rng.normal(size=65537) * 10.0 ** rng.integers(-300, 300, 65537)
        values = values + 1j * rng.normal(size=65537)
        values[::7] = -0.0
        assert first_difference(report.dump_csv(xs, values), dump_csv_by_row(xs, values)) is None

    def test_empty_input(self):
        assert report.dump_csv([], []) == dump_csv_by_row([], []) == "x,re,im\n"
        assert report.dump_csv(np.zeros(0), np.zeros(0, dtype=complex)) == "x,re,im\n"

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="one value per grid point"):
            report.dump_csv([0.0, 0.5], [1.0])
        with pytest.raises(ValueError, match="one value per grid point"):
            report.dump_csv([0.0], [1.0, 2.0])


EDGE_COMPLEX = [
    complex(a, b)
    for a in (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300)
    for b in (0.0, -0.0, math.inf, -math.inf, math.nan, -5e-324, -1e300)
]


def nested(value, depth: int):
    """value inside depth layers of lists and dicts, innermost a one-item list."""
    for level in range(depth):
        value = {"k": [value]} if level % 2 == 0 else [value, "x"]
    return value


class TestDumpJsonOracle:
    """The templated writer gives the bytes of the recursive one."""

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_complex_edge_values(self, depth):
        for doc in (EDGE_COMPLEX[5], EDGE_COMPLEX, {"z": EDGE_COMPLEX, "w": EDGE_COMPLEX[-1]}):
            doc = nested(doc, depth)
            assert report.dump_json(doc) == dump_json_recursive(doc)

    def test_complex_scalars_at_depths_zero_to_three(self):
        for z in EDGE_COMPLEX:
            for depth in range(4):
                doc = nested(z, depth)
                assert report.dump_json(doc) == dump_json_recursive(doc)

    def test_numpy_complex_lists_arrays_and_tuples(self):
        values = np.array(EDGE_COMPLEX)
        for doc in (
            [np.complex128(z) for z in EDGE_COMPLEX],
            values,
            np.array([1.5 - 2j, -0.0 + 0.25j, -0.0j], dtype=np.complex64),
            tuple(EDGE_COMPLEX),
            [values, values[:1], tuple(values[:3])],
            values.reshape(7, 7),
        ):
            assert report.dump_json(doc) == dump_json_recursive(doc)
            assert report.dump_json({"v": doc}) == dump_json_recursive({"v": doc})

    @pytest.mark.parametrize(
        "other", [0.5, -0.0, None, Fraction(-3, 4), 2, "s", [1j], np.float64(1.0)]
    )
    def test_mixed_lists_take_the_generic_path(self, other):
        for doc in ([1 + 2j, other], [other, -0.0j], [1j, other, -1j]):
            assert report.dump_json(doc) == dump_json_recursive(doc)
            assert report.dump_json({"a": [doc]}) == dump_json_recursive({"a": [doc]})

    def test_empty_lists(self):
        for doc in ([], (), np.zeros(0, dtype=complex), {"a": []}, [[], [1j]]):
            assert report.dump_json(doc) == dump_json_recursive(doc)

    @pytest.mark.parametrize(
        "text",
        ['"', "\\", "\n", "\t", "\r", "\b", "\f", "\x00", "\x1f", "\x7f", "é λ ∞", "\xa0",
         "", "plain", 'a "quoted" \\ path\n', "tab\there"],
    )
    def test_strings(self, text):
        doc = {text: [text, Fraction(1, 3)], "k": text}
        assert report.dump_json(doc) == dump_json_recursive(doc)
        assert json.loads(report.dump_json(doc))["k"] == text

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_complex_arrays_of_rank_two_and_three(self, depth):
        values = np.array(EDGE_COMPLEX)
        with np.errstate(over="ignore"):  # 1e300 is inf in complex64
            single = values[:48].reshape(4, 3, 4).astype(np.complex64)
        for array in (values.reshape(7, 7), values[:48].reshape(2, 4, 6), single, values[:6].reshape(1, 1, 6)):
            for doc in (array, {"m": array, "v": array[0]}, [array, 1j]):
                doc = nested(doc, depth)
                assert report.dump_json(doc) == dump_json_recursive(doc)

    def test_complex64_arrays(self):
        values = np.array([1.5 - 2j, -0.0 + 0.25j, -0.0j, 3e38 + 1e-45j, np.nan - np.inf * 1j], dtype=np.complex64)
        for doc in (values, values.reshape(5, 1), {"v": values[::-1]}, list(values)):
            assert report.dump_json(doc) == dump_json_recursive(doc)

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0), (0, 0), (2, 0, 3), (2, 3, 0), (1, 0)])
    def test_empty_shapes(self, shape):
        array = np.zeros(shape, dtype=complex)
        for doc in (array, {"a": array, "b": [array]}, nested(array, 3)):
            assert report.dump_json(doc) == dump_json_recursive(doc)

    def test_non_contiguous_views(self, corpus):
        spectral = rf.eigen_structure(rf.build_scale_matrices(corpus["d4"]))
        square = np.array(EDGE_COMPLEX).reshape(7, 7)
        views = (
            spectral.jordan.T,
            spectral.basis[:, ::2],
            spectral.basis[::-1, 1:],
            spectral.basis[:, 0],
            square[::-1, 1::3],
            square.T[2:5],
            np.broadcast_to(square[0], (3, 7)),
        )
        for view in views:
            assert not view.flags.c_contiguous or view.ndim == 1
            for doc in (view, {"v": view}):
                assert report.dump_json(doc) == dump_json_recursive(doc)

    def test_lists_of_complex_and_numpy_complex(self):
        for doc in (
            [1 + 2j, np.complex128(-0.0 - 1j), -0.0j],
            (np.complex128(3j), 2 + 0j, np.complex64(0.5 - 0.5j)),
            [[np.complex128(z), z] for z in EDGE_COMPLEX[:5]],
        ):
            assert report.dump_json(doc) == dump_json_recursive(doc)
            assert report.dump_json({"a": [doc]}) == dump_json_recursive({"a": [doc]})

    def test_keys_that_need_escaping(self):
        keys = ['"', "\\", "\n", "tab\there", "\x00", "\x1f", "é λ", 'a "b"']
        for depth in range(3):
            doc = nested({k: [k, 1j] for k in keys}, depth)
            assert report.dump_json(doc) == dump_json_recursive(doc)
            assert report.dump_json(doc) == dump_json_recursive(doc)  # from the cached prefixes
        # keys that are equal but read differently keep their own text
        for key in (1, True, 1.0, Fraction(1), np.int64(1), 0.0, -0.0, (1, 2), (1.0, 2)):
            assert report.dump_json({key: 0}) == dump_json_recursive({key: 0}), key

    def test_subclasses_and_other_numpy_scalars(self):
        class Kind(enum.IntEnum):
            ONE = 1

        Pair = collections.namedtuple("Pair", "a b")
        doc = {
            "str": np.str_("text"),
            "int": Kind.ONE,
            "ints": [np.int8(-3), np.uint64(2**64 - 1)],
            "floats": [np.float32(0.1), np.float16(-0.0), np.longdouble(1.5)],
            "complex": [np.complex64(1 - 2j), np.clongdouble(-0.0 + 1j), 2.0],
            "ordered": collections.OrderedDict([("b", 1), ("a", 2)]),
            "pair": Pair(1j, 2j),
            "quarter": type("Quarter", (Fraction,), {})(1, 4),
        }
        assert report.dump_json(doc) == dump_json_recursive(doc)
        for bad in (np.bool_(True), np.array(1j), object()):
            with pytest.raises(TypeError):
                report.dump_json({"x": bad})

    def test_template_caches_stay_bounded(self):
        for cache in (report._template, report._key_prefix):
            assert cache.cache_info().maxsize is not None
        for n in range(600):
            report.dump_json({f"key{n}": np.zeros((n % 7, n % 13), dtype=complex), "v": [1j] * n})
        for cache in (report._template, report._key_prefix):
            info = cache.cache_info()
            assert info.currsize <= info.maxsize

    @pytest.mark.parametrize("exact", [None, False])
    def test_spectrum_documents_of_the_worked_masks(self, corpus, exact):
        for name in ("bspline3", "d4", "jordan13", "half"):
            doc = cli._spectrum_doc(corpus[name], exact=exact)
            assert report.dump_json(doc) == dump_json_recursive(doc), name

    def test_spectrum_documents_of_bsplines(self):
        for order in range(2, 12):
            coefficients = [f"{comb(order, k)}/{2 ** (order - 1)}" for k in range(order + 1)]
            mask = rf.mask_from_coefficients(coefficients, name=f"bspline{order}")
            doc = cli._spectrum_doc(mask, exact=None)
            assert report.dump_json(doc) == dump_json_recursive(doc), order


class TestDumpCsvOracle:
    """The grid column and the column formatter give the bytes of the
    per-row writer."""

    def test_alternating_grids_of_equal_length(self):
        rng = np.random.default_rng(7)
        a = np.arange(257) / 64 - 2.0
        b = a + 1 / 128
        values = rng.normal(size=257) + 1j * rng.normal(size=257)
        for xs in (a, b, a, b, b[::-1], a):
            assert first_difference(report.dump_csv(xs, values), dump_csv_by_row(xs, values)) is None

    def test_repeated_calls_on_one_grid(self):
        rng = np.random.default_rng(8)
        xs = np.arange(-128, 129) / 64
        for _ in range(4):
            values = rng.normal(size=257) + 1j * rng.normal(size=257)
            assert report.dump_csv(xs, values) == dump_csv_by_row(xs, values)
            assert report.dump_csv(list(xs), values.real) == dump_csv_by_row(xs, values.real)

    def test_grids_that_differ_only_in_the_sign_of_zero(self):
        xs = np.array([-0.0, 0.5, 1.0])
        values = np.array([1j, 2.0, -3j])
        for grid in (xs, np.abs(xs), xs):
            assert report.dump_csv(grid, values) == dump_csv_by_row(grid, values)

    def test_imag_column_all_negative_zero(self):
        xs = np.arange(9) / 8
        values = np.array([complex(v, -0.0) for v in (-0.0, 1.0, -2.5, 0.0, 1e-300, -1e300, 3.0, 4.0, 5.0)])
        text = report.dump_csv(xs, values)
        assert text == dump_csv_by_row(xs, values)
        assert text.split("\n")[1] == "0,0,0"

    def test_single_nonzero_imag_entry(self):
        xs = np.arange(9) / 8
        for i in (0, 4, 8):
            values = np.linspace(-1.0, 1.0, 9).astype(complex)
            values[i] += 5e-324j
            assert report.dump_csv(xs, values) == dump_csv_by_row(xs, values)

    def test_nan_imag_entry(self):
        xs = np.arange(9) / 8
        values = np.ones(9, dtype=complex)
        values[3] = complex(1.0, math.nan)
        text = report.dump_csv(xs, values)
        assert text == dump_csv_by_row(xs, values)
        assert text.split("\n")[4] == "0.375,1,nan"


def adversarial_floats() -> dict[str, np.ndarray]:
    """Values on which a 17-digit rounding is hard to get right, each with
    its neighbours one ulp away, in alternating signs."""
    rng = np.random.default_rng(17)

    def halfway(count: int, exponents: tuple[int, int]) -> list[float]:
        # 18 significant digits ending in 5: halfway between two 17-digit
        # decimals, so the parsed double lies on a tie or just off one
        lead, body = rng.integers(1, 10, count), rng.integers(0, 10**16, count)
        return [float(f"{a}.{b:016d}5e{e}") for a, b, e in zip(lead, body, rng.integers(*exponents, count))]

    edges = [f"{m}e{k}" for k in range(-8, 20) for m in (
        "1", "9.9999999999999999", "9.99999999999999995", "9.9999999999999998",
        "1.0000000000000001", "1.00000000000000005",
    )]
    integers = [2.0**53 + d for d in range(-4, 5, 2)] + [1e16 - 2, 1e16 + 2, 1e17 - 16, 1e17 + 16]
    dyadic = [
        np.unique(np.append(rng.integers(-4 * 2**level, 4 * 2**level + 1, 300), [-1, 1, 2**level - 1, 2**level + 1]))
        / 2.0**level
        for level in range(MAX_LEVEL + 1)
    ]
    sets = {
        "halfway": np.array(halfway(3000, (-310, 300)) + halfway(1000, (-6, 18))),
        "powers": np.array([float(f"1e{k}") for k in range(-307, 309)]),
        "edges": np.array([float(t) for t in edges] + integers),
        "dyadic": np.concatenate(dyadic),
    }
    return {
        name: np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)]) * np.resize([1, -1], 3 * len(v))
        for name, v in sets.items()
    }


ADVERSARIAL = adversarial_floats()


def percent_g_csv(xs, re, im) -> str:
    """The CSV text by ``'%.17g' % (v + 0.0)`` for every value."""
    rows = ("%.17g,%.17g,%.17g\n" % (x + 0.0, a + 0.0, b + 0.0) for x, a, b in zip(xs, re, im))
    return report.CSV_HEADER + "\n" + "".join(rows)


def complex_column(re, im) -> np.ndarray:
    values = np.empty(len(re), dtype=complex)
    values.real, values.imag = re, im
    return values


ANY_FLOATS = hnp.arrays(
    np.float64, st.tuples(st.integers(0, 40), st.just(3)), elements=st.floats(allow_subnormal=True)
)


class TestCsvColumnFormatter:
    """The numpy column formatter writes CPython's ``'%.17g'`` bytes."""

    @given(ANY_FLOATS)
    def test_any_floats_print_as_percent_g(self, table):
        xs, re, im = table.T.tolist()
        assert report.dump_csv(xs, complex_column(re, im)) == percent_g_csv(xs, re, im)

    @given(ANY_FLOATS)
    def test_a_real_column_prints_as_percent_g(self, table):
        xs, re, _ = table.T.tolist()
        zeros = [0.0] * len(re)
        assert report.dump_csv(xs, np.array(re)) == percent_g_csv(xs, re, zeros)

    @pytest.mark.parametrize("name", ADVERSARIAL)
    def test_adversarial_sets(self, name):
        values = ADVERSARIAL[name]
        shuffled = np.random.default_rng(1).permutation(values)
        for xs, column in ((values, complex_column(shuffled, values)), (shuffled, values.astype(complex))):
            assert first_difference(report.dump_csv(xs, column), dump_csv_by_row(xs, column)) is None

    @pytest.mark.skipif(report._BAND >= 0.5, reason="every value takes CPython's text")
    def test_the_powers_of_ten_are_rounded_once(self):
        eps = Fraction(*np.finfo(np.longdouble).eps.as_integer_ratio())
        for e, power in zip(report._E.tolist(), report._POW10):
            exact = Fraction(10) ** (16 - e)
            assert abs(Fraction(*power.as_integer_ratio()) - exact) <= exact * eps / 2, e


@contextlib.contextmanager
def cpython_text():
    """Every value takes CPython's text: the band of undecided roundings
    covers every product, the path of a platform whose longdouble is
    binary64.  The fast path may not run."""

    def fast_slots(x, out):
        raise AssertionError("the fast path ran")

    with mock.patch.object(report, "_BAND", 1.0), mock.patch.object(report, "_fast_slots", fast_slots):
        yield


@pytest.fixture
def cpython_text_only():
    with cpython_text():
        yield


@pytest.mark.usefixtures("cpython_text_only")
class TestCsvFallback:
    @pytest.mark.parametrize("name", ADVERSARIAL)
    def test_adversarial_sets(self, name):
        values = ADVERSARIAL[name]
        column = complex_column(values[::-1], values)
        assert first_difference(report.dump_csv(values, column), dump_csv_by_row(values, column)) is None
        assert report.dump_csv(values, values) == dump_csv_by_row(values, values)

    def test_edge_values(self):
        values = np.array(EDGE_FLOATS)
        column = complex_column(values[::-1], values)
        assert report.dump_csv(values, column) == dump_csv_by_row(values, column)
        assert report.dump_csv([], []) == "x,re,im\n"



def conjugate(row: np.ndarray) -> np.ndarray:
    """conj(row) with +0.0 added to its imaginary part, as
    ``build_homogeneous_basis`` makes a partner row."""
    out = np.conj(row)
    out.imag += 0.0
    return out


def check_rows(xs, samples, conjugate_of=None) -> None:
    """Each text of the matrix writer is the per-row writer's text of its row."""
    texts = list(report.dump_csv_rows(xs, samples, conjugate_of))
    assert len(texts) == len(samples)
    for r, (text, row) in enumerate(zip(texts, samples)):
        assert first_difference(text, dump_csv_by_row(xs, row)) is None, r


@st.composite
def conjugate_matrices(draw):
    """(xs, samples, conjugate_of) of any floats: some rows real, and
    partner rows, before or after their pairs, made by ``conjugate``."""
    rows, points = draw(st.integers(0, 6)), draw(st.integers(0, 12))
    floats = st.floats(allow_subnormal=True)
    xs = draw(hnp.arrays(np.float64, points, elements=floats))
    samples = draw(hnp.arrays(np.float64, (rows, points), elements=floats)).astype(complex)
    samples.imag = draw(hnp.arrays(np.float64, (rows, points), elements=floats))
    samples.imag[draw(hnp.arrays(bool, rows))] = 0.0
    conjugate_of = [None] * rows
    order = draw(st.permutations(range(rows)))
    for partner, pair in zip(order[0::2], order[1::2]):
        if draw(st.booleans()):
            conjugate_of[partner] = pair
            samples[partner] = conjugate(samples[pair])
    return xs, samples, conjugate_of


def adversarial_matrix(values: np.ndarray):
    """Two pair rows of the values, in re and in im, and a real row; one
    partner before its pair and one after."""
    shuffled = np.random.default_rng(2).permutation(values)
    a, b = complex_column(shuffled, values), complex_column(values, shuffled)
    samples = np.array([conjugate(a), a, values.astype(complex), b, conjugate(b)])
    return values, samples, [1, None, None, None, 3]


class RowCases:
    """Matrices whose partner rows meet every kind of slot."""

    @pytest.mark.parametrize("name", ADVERSARIAL)
    def test_adversarial_values_in_pair_rows(self, name):
        check_rows(*adversarial_matrix(ADVERSARIAL[name]))

    def test_edge_values_in_pair_rows(self):
        # fallback text of +-0, NaN and +-inf in the im slots of the pairs
        check_rows(*adversarial_matrix(np.array(EDGE_FLOATS)))

    def test_rows_longer_than_a_block(self):
        rng = np.random.default_rng(11)
        points = 2 * report._BLOCK_ROWS + 3
        xs = np.arange(points) / 512 - 2.0
        pair = rng.normal(size=points) * 10.0 ** rng.integers(-20, 20, points) + 1j * rng.normal(size=points)
        real = rng.normal(size=points).astype(complex)
        samples = np.array([conjugate(pair), pair, real, real, conjugate(real)])
        check_rows(xs, samples, [1, None, None, None, 3])
        check_rows(xs, samples)

    def test_zero_rows_and_zero_points(self):
        assert list(report.dump_csv_rows(np.zeros(3), np.zeros((0, 3), complex))) == []
        assert list(report.dump_csv_rows([], np.zeros((3, 0)), [None, 2, None])) == ["x,re,im\n"] * 3


class TestDumpCsvRows(RowCases):
    """The matrix writer gives each row the bytes of the per-row writer,
    partner rows included."""

    @given(conjugate_matrices(), st.sampled_from([1, 5, 1024]))
    def test_any_matrix_with_partner_rows(self, matrix, block):
        # blocks of 1 and 5 grid points cut rows and span them
        with mock.patch.object(report, "_BLOCK_ROWS", block):
            check_rows(*matrix)

    @given(conjugate_matrices())
    @settings(max_examples=30)
    def test_any_matrix_with_cpython_text_only(self, matrix):
        with cpython_text():
            check_rows(*matrix)

    def test_the_one_row_case_is_dump_csv(self):
        rng = np.random.default_rng(12)
        xs = np.arange(40) / 8
        values = rng.normal(size=40) + 1j * rng.normal(size=40)
        assert list(report.dump_csv_rows(xs, values[None])) == [report.dump_csv(xs, values)]

    def test_texts_are_made_as_they_are_taken(self):
        with mock.patch.object(report, "_format_column", side_effect=AssertionError("formatted at the call")):
            texts = report.dump_csv_rows(np.arange(3.0), np.ones((2, 3)))
        assert next(texts) == next(texts) == "x,re,im\n0,1,0\n1,1,0\n2,1,0\n"

    def test_rejects_bad_shapes_and_pairs(self):
        xs = np.arange(3.0)
        row = np.array([1 + 1j, 2 - 1j, 3.0])
        samples = np.array([row, conjugate(row), conjugate(row)])
        with pytest.raises(ValueError, match="one column per grid point"):
            report.dump_csv_rows(xs[:2], samples)
        with pytest.raises(ValueError, match="one column per grid point"):
            report.dump_csv_rows(xs, row)
        with pytest.raises(ValueError, match="3 rows"):
            report.dump_csv_rows(xs, samples, [None, 0])
        # not a conjugate; a pair with two partners; a partner of a partner;
        # a row that is not there
        for pairs in ([None, 2, None], [None, 0, 0], [None, 0, 1], [None, 3, None], [None, -1, None]):
            with pytest.raises(ValueError, match="conjugate"):
                report.dump_csv_rows(xs, samples, pairs)


@pytest.mark.usefixtures("cpython_text_only")
class TestDumpCsvRowsFallback(RowCases):
    """The same matrices with every slot CPython's text: the im slots of a
    pair row that have no sign byte are rendered again for its partner."""


def test_matrix_writer_peak_memory():
    """Writing a (14, 2049) sample matrix, the size of a ``basis`` call at
    level 9 on [-2, 2], with a partner row that waits for its pair, keeps
    one block of buffers and the texts not yet taken.  Measured: 0.53 MB
    for the per-file writer this one replaced, 0.85 MB here; the slots of
    the whole matrix alone would take 4.1 MB."""
    rng = np.random.default_rng(14)
    xs = np.arange(2049) / 512 - 2.0
    samples = rng.normal(size=(14, 2049)) + 1j * rng.normal(size=(14, 2049))
    samples.imag[7:10] = 0.0
    samples[0], samples[12] = conjugate(samples[1]), conjugate(samples[11])
    pairs = [1] + [None] * 11 + [11, None]
    tracemalloc.start()
    try:
        for _ in report.dump_csv_rows(xs, samples, pairs):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
