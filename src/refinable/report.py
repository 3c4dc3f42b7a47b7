"""Deterministic report serialization: stable JSON and CSV writers.

Reports must be byte-identical across runs, so floats are always rendered
with %.17g (enough digits to round-trip a double), keys are emitted in
sorted order, and line endings are LF regardless of platform.

The JSON writer walks a document by the exact type of each node, the
types that reports hold (str, int, float, complex, Fraction, None, bool,
dict, list, tuple, ndarray and numpy's float64 and complex128); other
numpy scalars and subclasses of the built-in types go through
``isinstance``.  A complex array of any rank, or a list or tuple of
complex values, costs one step: a %-template of its nested
``{"im": ..., "re": ...}`` objects, made once per (indent, shape), takes
its whole im/re table in one ``%``.  The ``"key": `` text before each dict
value is made once per (indent, key text).  Both caches are bounded LRU
caches.  Each float is ``'%.17g' % (x + 0.0)``.

The CSV columns are formatted in numpy, with CPython's ``%.17g`` bytes
(``_format_column``).  Each value is scaled to 17 digits by one
``np.longdouble`` product and rounded; its text is written into a slot of
fixed byte positions, and one ``translate`` of each finished run of rows
drops the unused ones.  Values whose rounding the product leaves
undecided, and NaN and +-inf, take CPython's own text (Loitsch 2010,
"Printing floating-point numbers quickly and accurately": a fast path that
knows when it may fail, plus an exact fallback).

``dump_csv_rows`` writes the CSV text of every row of a sample matrix on
one grid, such as the ``h_*.csv`` files of one ``basis`` call, and
``dump_csv`` is its one-row case.  The grid column is formatted once per
call.  The values are formatted in blocks of grid points that may span
rows, one ``_format_column`` call each, into buffers reused from block to
block.  A partner row, the conjugate of its pair row
(``RowInfo.conjugate_of``), is not formatted: its text is its pair's
slots with the sign byte of each im slot flipped, and only a value that
CPython's text writes without a sign byte is rendered again.
"""

from __future__ import annotations

from collections.abc import Iterator
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
    kind = type(obj)
    if kind is str:
        out.append(_escape(obj))
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for k in sorted(obj):
            out.append(_key_prefix(indent, str(k)))
            _dump(obj[k], out, indent + 1)
            out.append(",\n")
        out[-1] = "\n" + "  " * indent + "}"
    elif kind is list or kind is tuple:
        _dump_sequence(obj, out, indent)
    elif kind is np.ndarray:
        if obj.dtype.kind == "c" and obj.ndim:
            out.append(_complex_array(obj, indent))
        else:
            _dump_sequence(list(obj), out, indent)
    elif kind is int:
        out.append(str(obj))
    elif kind is float or kind is np.float64:
        out.append("%.17g" % (obj + 0.0))
    elif kind is complex or kind is np.complex128:
        out.append(_template(indent, ()) % (obj.imag + 0.0, obj.real + 0.0))
    elif kind is Fraction:
        out.append('"' + fraction_str(obj) + '"')
    elif obj is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if obj else "false")
    else:
        _dump_other(obj, out, indent)


def _dump_other(obj, out: list, indent: int) -> None:
    """The types that ``_dump`` does not name: the other numpy scalars and
    subclasses of the built-in types, by ``isinstance``."""
    if isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        _dump(complex(obj), out, indent)
    elif isinstance(obj, Fraction):
        _dump(Fraction(obj), out, indent)
    elif isinstance(obj, dict):
        _dump(dict(obj), out, indent)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        _dump_sequence(list(obj), out, indent)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r} deterministically")


def _dump_sequence(items, out: list, indent: int) -> None:
    """A list or tuple: one template for all-complex items, else item by item."""
    if not items:
        out.append("[]")
    elif all(isinstance(item, (complex, np.complexfloating)) for item in items):
        out.append(_complex_array(np.array(items, dtype=complex), indent))
    else:
        pad = "  " * indent
        inner = pad + "  "
        out.append("[\n")
        for item in items:
            out.append(inner)
            _dump(item, out, indent + 1)
            out.append(",\n")
        out[-1] = "\n" + pad + "]"


def _complex_array(values: np.ndarray, indent: int) -> str:
    """The JSON text of a complex array, nested lists of {"im", "re"}
    objects, by one %-template over its imag/real table; adding 0.0 turns
    -0.0 into 0.0, as ``format_float`` does."""
    table = np.empty(values.shape + (2,))
    table[..., 0] = values.imag
    table[..., 1] = values.real
    table += 0.0
    return _template(indent, values.shape) % tuple(table.ravel().tolist())


@lru_cache(maxsize=256)
def _template(indent: int, shape: tuple) -> str:
    """%-template of a complex array of ``shape`` at ``indent``, nested
    lists of {"im": ..., "re": ...}; shape () is one complex value.  It
    takes the imaginary, then the real part of each value, in C order."""
    pad = "  " * indent
    inner = pad + "  "
    if not shape:
        return "{\n" + inner + '"im": %.17g,\n' + inner + '"re": %.17g\n' + pad + "}"
    if not shape[0]:
        return "[]"
    item = inner + _template(indent + 1, shape[1:])
    return "[\n" + ",\n".join([item] * shape[0]) + "\n" + pad + "]"


@lru_cache(maxsize=256)
def _key_prefix(indent: int, key: str) -> str:
    """The text before the value of a dict entry at ``indent`` whose key
    reads ``key``; equal keys may read differently (0.0 and -0.0)."""
    return "  " * indent + "  " + _escape(key) + ": "


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


# CSV columns.  Each value owns a slot of six little-endian 8-byte words:
#
#   word 0     byte 0 sign, bytes 1-5 the "0." and up to three zeros that
#              fixed notation puts before the digits of 1e-4 <= |x| < 1,
#              byte 6 the first digit, byte 7 a point slot
#   words 1-4  digits 2-17, each followed by a point slot
#   word 5     bytes 0-4 the exponent "e+dd" or "e-ddd", byte 7 the column
#              separator; bytes 5 and 6 stay empty
#
# An empty byte is 0, and the text of the slot is its nonzero bytes.
_WORD = np.dtype("<u8")
_SLOT_WORDS = 6
_BLOCK_ROWS = 1024  # CSV rows formatted at a time, across files, which bounds the buffers
_SEPARATOR = {ch: np.uint64(ord(ch)) << np.uint64(56) for ch in ",\n"}
_TEXT_WIDTH = _SLOT_WORDS * _WORD.itemsize - 1  # the bytes before the separator
_MINUS = ord("-")

# Tables by the decimal exponent E of |x|, E in [-_E0, _E0): 10**(16 - E)
# as one longdouble each, parsed from its decimal string so that it is
# rounded once; the first of the 17 shapes of its notation (%.17g is fixed
# for -4 <= E <= 16, else scientific; see _digit_tables); the number of
# fraction digits that %g may strip; and the exponent word.
_E0 = 350
_E = np.arange(-_E0, _E0)
_POW10 = np.array([f"1e{16 - e}" for e in _E.tolist()], dtype=np.longdouble)
_FIXED = (_E >= -4) & (_E <= 16)
_NOTATION = (np.where(_FIXED, _E + 4, 21) * 17).astype(np.int16)
_FRACTION = np.where(_FIXED, 16 - _E, 16).astype(np.uint8)
_EXPONENT = np.frombuffer(
    b"".join(b"\0" * 8 if fixed else (b"e%+03d" % e).ljust(8, b"\0") for e, fixed in zip(_E.tolist(), _FIXED.tolist())),
    _WORD,
)

# The product |x| * 10**(16 - E) is rounded twice, in the power and in the
# product, each to a relative half unit of the longdouble significand, so
# for products up to 1e17 (+6, after a carry) it lies within _BAND of the
# exact one.  A product whose distance from the nearest half-integer is not
# above _BAND may round either way, and takes CPython's text.  The bound
# needs correctly rounded IEEE arithmetic wider than binary64: x87 extended
# or binary128.  Elsewhere, as where longdouble is binary64, _BAND is 1 and
# every value falls back.
_LD = np.finfo(np.longdouble)
_BAND = 1.0000001e17 * float(_LD.eps) * (1 + float(_LD.eps)) if _LD.nmant in (63, 112) else 1.0


def _digit_tables():
    """The slot words of 4-digit groups (digits in the even bytes), their
    trailing zeros (4 for 0000), the masks that keep the first 16 - s of
    digits 2-17, and the point and prefix bytes of each shape, a shape
    being a notation (fixed with E = -4..16, or scientific) and s."""
    digits = np.zeros((10, 10, 10, 10, 8), np.uint8)  # 0000..9999
    zeros = np.zeros((10, 10, 10, 10), np.uint8)
    ten = np.arange(48, 58, dtype=np.uint8)
    for k in range(4):
        digits[..., 2 * k] = ten.reshape((10,) + (1,) * (3 - k))
        zeros[(slice(None),) * (3 - k) + (slice(1, None),) + (0,) * k] = k
    zeros[0, 0, 0, 0] = 4
    digits, zeros = digits.reshape(10000, 8), zeros.ravel()
    s = np.arange(17)
    keep = np.zeros((17, 32), np.uint8)
    keep[:, 0::2] = np.where(np.arange(2, 18) <= 17 - s[:, None], 0xFF, 0)
    frame = np.zeros((22, 17, 40), np.uint8)
    for e in range(-4, 0):  # "0." and -e - 1 zeros before the digits
        frame[e + 4, :, 1 : 2 - e] = np.frombuffer(b"0.000"[: 1 - e], np.uint8)
    # the point follows digit E + 1 for fixed E = 0..16, digit 1 in
    # scientific notation, and only when a fraction digit is left
    point = np.append(np.arange(17), 0)
    modes = np.arange(4, 22)
    frame[modes[:, None], s, 7 + 2 * point[:, None]] = np.where(s < 16 - point[:, None], ord("."), 0)
    return (
        digits.view(_WORD).ravel(),
        zeros,
        keep.view(_WORD).T.copy(),
        frame.reshape(22 * 17, 40).view(_WORD).T.copy(),
    )


_DIGITS, _ZEROS, _KEEP, _FRAME = _digit_tables()
_ZEROS4, _ZEROS8, _ZEROS12 = _ZEROS + 4, _ZEROS + 8, _ZEROS + 12
_LEAD = (np.arange(10, dtype=_WORD) + 48) << np.uint64(48)
_SIGN = np.array([0, ord("-")], _WORD)
# the last word of a re slot that ends its CSV row: the empty bytes 5 and 6
# and the separator byte hold ",0\n", an im column of 0
_REAL_END = np.frombuffer(b"\0" * 5 + b",0\n", _WORD)[0]


def _format_column(x: np.ndarray, out: np.ndarray) -> None:
    """Write the slots of the flat float64 array ``x`` into ``out``, of
    shape ``(len(x), _SLOT_WORDS)`` with contiguous words in each slot;
    the separator byte is left 0.  The text of each slot is
    ``'%.17g' % (v + 0.0)``."""
    if _BAND < 0.5:
        fallback = _fast_slots(x, out)
    else:
        out[..., -1] = 0
        fallback = np.ones(x.shape, bool)
    (i,) = np.nonzero(fallback)
    if i.size:
        out.view(np.uint8)[i, :_TEXT_WIDTH] = _cpython_text(x[i])


def _cpython_text(x: np.ndarray) -> np.ndarray:
    """The bytes before the separator of the slots of the values ``x``,
    from CPython's ``'%.17g' % (v + 0.0)``: one %-template pads each text
    with spaces, which no text holds, and the spaces become empty bytes."""
    with np.errstate(invalid="ignore"):  # a signalling NaN
        values = (x + 0.0).tolist()
    text = f"%-{_TEXT_WIDTH}.17g" * len(values) % tuple(values)
    return np.frombuffer(text.encode().replace(b" ", b"\0"), np.uint8).reshape(-1, _TEXT_WIDTH)


def _fast_slots(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The slots of ``_format_column`` from the longdouble product; returns
    where it leaves the text to CPython (NaN, +-inf, undecided rounding)."""
    e, n, fallback = _decimal(x)
    out[..., 5] = _EXPONENT.take(e)
    # the digits in groups, g0 the first and g1..g4 four each
    hi = n // 10**8
    n -= hi * 10**8
    g1 = hi // 10**4
    hi -= g1 * 10**4
    g0 = g1 // 10**4
    g1 -= g0 * 10**4
    g3 = n // 10**4
    g4 = n - g3 * 10**4
    zeros = np.where(  # trailing zeros of the 17 digits
        n,
        np.where(g4, _ZEROS.take(g4), _ZEROS4.take(g3)),
        np.where(hi, _ZEROS8.take(hi), _ZEROS12.take(g1)),
    )
    strip = np.minimum(zeros, _FRACTION.take(e))
    shape = _NOTATION.take(e) + strip
    out[..., 0] = _FRAME[0].take(shape) | _LEAD.take(g0) | _SIGN.take(x < 0)
    for w, g in enumerate((g1, hi, g3, g4), 1):
        out[..., w] = (_DIGITS.take(g) & _KEEP[w - 1].take(strip)) | _FRAME[w].take(shape)
    return fallback


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E + _E0 and the 17 significant digits n of each |x| (E = 0, n = 0 at
    x = 0, and anything for NaN and +-inf), and where the longdouble
    product leaves them undecided or x is not finite."""
    ax = np.abs(x, order="C")  # the flat views below write through
    finite = ax < np.inf
    np.copyto(ax, 0.0, where=~finite)
    # floor(log10 |x|) + _E0; near a power of ten it may be one off, which
    # the range check below mends
    e = ax + (ax == 0)
    np.log10(e, out=e)
    e += _E0
    e = e.astype(np.intp)
    n, fallback = _round(ax, e)
    fallback |= ~finite
    off = (n >= 10**17) | ((n <= 10**16) & (n > 0))
    if off.any():
        # 17 digits need 10**16 <= n < 10**17: scale by ten once more, up
        # or down.  A product that then rounds to 10**17 or more is 10**16
        # at the next exponent: either |x| rounds up to a power of ten, or
        # the first product was 10**16 within 1/2, and a product farther
        # off was undecided
        (i,) = np.nonzero(off.ravel())
        e.ravel()[i] += np.where(n.ravel()[i] >= 10**17, 1, -1)
        m, undecided = _round(ax.ravel()[i], e.ravel()[i])
        carry = m >= 10**17
        m[carry] = 10**16
        e.ravel()[i] += carry
        n.ravel()[i] = m
        fallback.ravel()[i] |= undecided | (m < 10**16)
    return e, n, fallback


def _round(ax: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|x| * 10**(16 - E) in longdouble, rounded to an integer (an exact
    half, which is undecided, rounds up), and where that product lies
    within _BAND of a half-integer."""
    y = ax.astype(np.longdouble)
    y *= _POW10.take(e)
    n = y.astype(np.intp)  # the floor
    y -= n  # the fraction, exactly
    f = y.astype(float)
    n += f > 0.5
    f -= 0.5
    return n, np.abs(f, out=f) <= _BAND


def _blocks(n: int) -> list[slice]:
    """range(n) in slices of nearly equal length, at most ``_BLOCK_ROWS``."""
    count = -(-n // _BLOCK_ROWS)
    size = -(-n // count) if count else 1
    return [slice(a, a + size) for a in range(0, n, size)]


def _grid_column(xs: np.ndarray) -> np.ndarray:
    """The slots of the float64 grid ``xs``, with their comma, less the
    words that are empty at every point."""
    slots = np.empty((len(xs), _SLOT_WORDS), _WORD)
    for part in _blocks(len(xs)):
        _format_column(xs[part], slots[part])
    slots[:, -1] |= _SEPARATOR[","]
    # a word that is empty at every point holds no text: leave it out
    return slots[:, slots.any(axis=0)]


def dump_csv(xs, values) -> str:
    """Sample table: header ``x,re,im`` then one %.17g row per grid point;
    the one-row case of ``dump_csv_rows``."""
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=complex)
    if xs.ndim != 1 or xs.shape != values.shape:
        raise ValueError(
            f"dump_csv needs one value per grid point, got {xs.shape} and {values.shape}"
        )
    (text,) = _csv_texts(xs, values[None], {})
    return text


def dump_csv_rows(xs, samples, conjugate_of=None) -> Iterator[str]:
    """The ``dump_csv`` text of each row of the matrix ``samples`` on the
    grid ``xs``, in row order, each made as it is taken.

    ``conjugate_of[r]``, if given, is None or the row q whose conjugate
    row r is (``RowInfo.conjugate_of``): row r must equal ``conj(row q)``
    but for the sign of a zero, which no text shows.  Such a partner row
    is not formatted: its text is read off its pair's slots.
    """
    xs = np.asarray(xs, dtype=float)
    samples = np.asarray(samples, dtype=complex)
    if xs.ndim != 1 or samples.ndim != 2 or samples.shape[1:] != xs.shape:
        raise ValueError(
            f"dump_csv_rows needs one column per grid point, got {xs.shape} and {samples.shape}"
        )
    pairs = [None] * len(samples) if conjugate_of is None else list(conjugate_of)
    if len(pairs) != len(samples):
        raise ValueError(f"conjugate_of has {len(pairs)} entries for {len(samples)} rows")
    partner = {}
    for r, q in enumerate(pairs):
        if q is None:
            continue
        single = 0 <= q < len(pairs) and pairs[q] is None and q not in partner
        if not (single and _conjugates(samples[r], samples[q])):
            raise ValueError(f"row {r} is not the conjugate of row {q}, or row {q} has another partner")
        partner[q] = r
    return _csv_texts(xs, samples, partner)


def _conjugates(z: np.ndarray, w: np.ndarray) -> bool:
    """Whether ``z`` is ``conj(w)``, NaN for NaN, but for the sign of a zero."""
    return np.array_equal(z.real, w.real, equal_nan=True) and np.array_equal(z.imag, -w.imag, equal_nan=True)


def _csv_texts(xs: np.ndarray, samples: np.ndarray, partner: dict[int, int]) -> Iterator[str]:
    """The texts of ``dump_csv_rows``; ``partner`` maps each pair row to
    its partner row.

    The grid points of the other rows, in row order, are cut into blocks
    of ``_BLOCK_ROWS`` that may span rows.  The values of a block fill one
    reused buffer, re and im of a row, or re alone when its imaginary
    parts are all zero, and one ``_format_column`` call formats them into
    one reused buffer of slots.  Each row's part of the block is laid out
    as CSV rows in one reused buffer of words, after the x slots from
    ``_grid_column``, and read off by one ``translate``; a row whose im
    column is all ``0`` gets no im slot, the ``,0`` and the line end go
    into the last word of its re slot.  Then the im slots of a pair row
    take the signs of its partner's values in place and are read off again
    as the partner's part.  -0.0 is written as ``0``, as ``format_float``
    does.
    """
    rows, points = samples.shape
    texts = [[CSV_HEADER + "\n"] for _ in range(rows)]
    finished = [False] * rows
    sources = sorted(set(range(rows)) - set(partner.values()))
    size = min(_BLOCK_ROWS, points * len(sources))
    if size:
        grid = _grid_column(xs)
        x_words = grid.shape[1]
        imag = samples.imag.any(axis=1).tolist()  # NaN counts as nonzero
        values = np.empty(2 * size)
        slots = np.empty((2 * size, _SLOT_WORDS), _WORD)
        buffer = np.empty(size * (x_words + 2 * _SLOT_WORDS), _WORD)
    done = 0  # the rows before this one have been taken
    for part in _spans(sources, points, size):
        k = 0
        for r, a, b in part:
            z = samples[r, a:b]
            if imag[r]:
                values[k : k + 2 * len(z)].view(complex)[:] = z
                k += 2 * len(z)
            else:
                values[k : k + len(z)] = z.real
                k += len(z)
        _format_column(values[:k], slots[:k])
        at = k = 0
        for r, a, b in part:
            n = (1 + imag[r]) * (b - a)  # the slots of row r in the block
            lines = buffer[at : at + (b - a) * x_words + n * _SLOT_WORDS].reshape(b - a, -1)
            lines[:, :x_words] = grid[a:b]
            lines[:, x_words:] = slots[k : k + n].reshape(b - a, -1)
            if imag[r]:
                lines[:, x_words + _SLOT_WORDS - 1] |= _SEPARATOR[","]
                lines[:, -1] |= _SEPARATOR["\n"]
            else:
                lines[:, -1] |= _REAL_END
            text = _text(lines)
            texts[r].append(text)
            finished[r] = b == points
            if r in partner:
                if imag[r]:
                    _conjugate_im(lines[:, -_SLOT_WORDS:], samples[partner[r], a:b].imag)
                    text = _text(lines)
                texts[partner[r]].append(text)
                finished[partner[r]] = finished[r]
            at += lines.size
            k += n
        while done < rows and finished[done]:
            yield "".join(texts[done])
            texts[done] = None
            done += 1
    for r in range(done, rows):
        yield "".join(texts[r])


def _spans(sources: list[int], points: int, size: int) -> Iterator[list[tuple[int, int, int]]]:
    """The grid points of the rows ``sources``, in order, in blocks of
    ``size`` (the last may be shorter), each a list of (row, start, stop)."""
    part, filled = [], 0
    for r in sources:
        a = 0
        while a < points:
            b = min(points, a + size - filled)
            part.append((r, a, b))
            filled += b - a
            a = b
            if filled == size:
                yield part
                part, filled = [], 0
    if part:
        yield part


def _text(lines: np.ndarray) -> str:
    """The text of a run of finished CSV rows: their nonzero bytes."""
    return lines.tobytes().translate(None, b"\0").decode("ascii")


def _conjugate_im(im: np.ndarray, conjugate: np.ndarray) -> None:
    """Turn the im slots ``im`` of a pair row into those of its partner,
    whose im values are ``conjugate``: the sign byte is dropped where there
    is one and set where the slot holds a nonzero value without one.  Only
    CPython's text of a value of no sign, which starts at byte 0, is
    rendered again."""
    text = im.view(np.uint8)
    sign = text[:, 0]
    redo = (sign != 0) & (sign != _MINUS)
    sign[:] = np.where((sign == 0) & (conjugate != 0), _MINUS, 0)
    if redo.any():
        text[redo, :_TEXT_WIDTH] = _cpython_text(conjugate[redo])
