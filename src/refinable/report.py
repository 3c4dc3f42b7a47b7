"""Deterministic report serialization: stable JSON and CSV writers.

Reports must be byte-identical across runs, so floats are always rendered
with %.17g (enough digits to round-trip a double), keys are emitted in
sorted order, and line endings are LF regardless of platform.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

CSV_HEADER = "x,re,im"


def format_float(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.17g}"


def complex_fields(z) -> dict:
    z = complex(z)
    return {"im": z.imag, "re": z.real}


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
        _dump(complex_fields(obj), out, indent)
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
        out.append("[\n")
        for i, item in enumerate(items):
            out.append(pad + "  ")
            _dump(item, out, indent + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r} deterministically")


def _escape(s: str) -> str:
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


def dump_csv(xs, values) -> str:
    """Sample table: header ``x,re,im`` then one %.17g row per grid point.

    The rows are formatted in one pass over an (n, 3) float table; adding
    0.0 turns -0.0 into 0.0, as ``format_float`` does.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=complex)
    if xs.shape != values.shape:
        raise ValueError(
            f"dump_csv needs one value per grid point, got {xs.shape} and {values.shape}"
        )
    table = np.empty((len(xs), 3))
    table[:, 0] = xs
    table[:, 1] = values.real
    table[:, 2] = values.imag
    table += 0.0
    return CSV_HEADER + "\n" + "%.17g,%.17g,%.17g\n" * len(xs) % tuple(table.ravel().tolist())
