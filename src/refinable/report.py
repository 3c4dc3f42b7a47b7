"""Deterministic report serialization: stable JSON and CSV writers.

Reports must be byte-identical across runs, so floats are always rendered
with %.17g (enough digits to round-trip a double), keys are emitted in
sorted order, and line endings are LF regardless of platform.

Each float is formatted once, by a %-template: a complex value, or a whole
list of them, becomes the text of its ``{"im": ..., "re": ...}`` objects in
one step, and the CSV rows are filled by one row template.  The grid column
of a CSV is formatted once and shared by consecutive calls on the same
grid, such as the ``h_*.csv`` files of one ``basis`` call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

CSV_HEADER = "x,re,im"


def format_float(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.17g}"


def fraction_str(q: Fraction | None) -> str | None:
    if q is None:
        return None
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _dump(obj, out: list, indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        out.append(_complex_template(pad) % (z.imag + 0.0, z.real + 0.0))
    elif isinstance(obj, Fraction):
        out.append(_escape(fraction_str(obj)))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj.keys())
        for i, k in enumerate(keys):
            out.append(f'{pad}  {_escape(str(k))}: ')
            _dump(obj[k], out, indent + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        if all(isinstance(item, (complex, np.complexfloating)) for item in items):
            out.append(_complex_list(items, pad))
            return
        out.append("[\n")
        for i, item in enumerate(items):
            out.append(pad + "  ")
            _dump(item, out, indent + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r} deterministically")


def _complex_template(pad: str) -> str:
    """%-template of one complex value as the object {"im": ..., "re": ...}
    at the indent ``pad``; it takes the imaginary, then the real part."""
    return "{\n" + pad + '  "im": %.17g,\n' + pad + '  "re": %.17g\n' + pad + "}"


def _complex_list(items: list, pad: str) -> str:
    """A JSON list of complex values, formatted from one imag/real table;
    adding 0.0 turns -0.0 into 0.0, as ``format_float`` does."""
    values = np.array(items, dtype=complex)
    table = np.empty((len(values), 2))
    table[:, 0] = values.imag
    table[:, 1] = values.real
    table += 0.0
    inner = pad + "  "
    body = ",\n".join([inner + _complex_template(inner)] * len(values))
    return "[\n" + body % tuple(table.ravel().tolist()) + "\n" + pad + "]"


def _escape(s: str) -> str:
    if s.isprintable() and '"' not in s and "\\" not in s:
        # no quote, backslash or control character: nothing to escape
        return '"' + s + '"'
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


def dump_json(obj) -> str:
    """Deterministic JSON text (sorted keys, %.17g floats, trailing LF)."""
    out: list[str] = []
    _dump(obj, out, 0)
    out.append("\n")
    return "".join(out)


@lru_cache(maxsize=1)
def _grid_column(grid: bytes) -> tuple[str, ...]:
    """The %.17g texts of a float64 grid given by its bytes; one slot, so a
    run of calls on the same grid formats it once."""
    xs = np.frombuffer(grid) + 0.0
    return tuple(("%.17g\n" * len(xs) % tuple(xs.tolist())).split("\n")[:-1])


def dump_csv(xs, values) -> str:
    """Sample table: header ``x,re,im`` then one %.17g row per grid point.

    The x texts come from ``_grid_column``; the value columns are formatted
    by one %-template, which writes the imaginary column as ``0`` when it is
    all zero.  Adding 0.0 turns -0.0 into 0.0, as ``format_float`` does.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=complex)
    if xs.ndim != 1 or xs.shape != values.shape:
        raise ValueError(
            f"dump_csv needs one value per grid point, got {xs.shape} and {values.shape}"
        )
    n = len(xs)
    column = _grid_column(xs.tobytes())
    re = values.real + 0.0
    im = values.imag + 0.0
    if im.any():
        template, columns = "%s,%.17g,%.17g\n", (column, re.tolist(), im.tolist())
    else:  # NaN counts as nonzero, so here the column is all +-0.0
        template, columns = "%s,%.17g,0\n", (column, re.tolist())
    fields = [None] * (len(columns) * n)
    for j, col in enumerate(columns):
        fields[j :: len(columns)] = col
    return CSV_HEADER + "\n" + template * n % tuple(fields)
