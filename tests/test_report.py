"""Deterministic serialization: stable float rendering, sorted keys,
escaping, and the CSV sample-table format.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from refinable import report


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


def dump_csv_by_row(xs, values) -> str:
    """The per-row writer the table formatter replaced; a byte oracle."""
    lines = [report.CSV_HEADER]
    values = np.asarray(values, dtype=complex)
    for x, z in zip(xs, values):
        lines.append(
            f"{report.format_float(float(x))},{report.format_float(z.real)},{report.format_float(z.imag)}"
        )
    return "\n".join(lines) + "\n"


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
