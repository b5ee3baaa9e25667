"""Encoding a block of CSV rows, column by column, with NumPy.

Each column is encoded at once into fixed-width cells of little-endian
64-bit words: the cell's bytes, 0xFF in every byte it does not use, and
its separator in the last byte. The cells fill one line matrix per
block, and ``bytes.translate`` deletes the 0xFF bytes, which UTF-8 never
contains. A column's values choose its cells by their type, each cell
the bytes that ``%`` formatting gives its value:

- floats, ``%.6g``: every float column of a block in one pass, whose
  cells are then split by column. The decimal exponent e of |x| (a lower
  bound from its binary exponent, one more where |x| reaches the next
  power of ten) picks the power of ten that scales |x| into [1e5, 1e6),
  ``rint`` gives the six significant digits (1,000,000 carries into the
  exponent), and their values are added to a template cell of the
  value's notation, sign and number of significant digits. The scaled
  value is off by a few ulp, so a value whose fraction lies within 1e-6
  of one half (Python rounds an exact tie half to even) or whose
  magnitude lies outside [1e-300, 1e300] is formatted on its own with
  ``format(x, '.6g')``; ±0, ±inf and nan have template cells of their own.
- ints and bools, ``%d``: an int array whose values all lie in [0, 10**6)
  as one word per cell, the sum of two table words, one for the leading
  and one for the trailing three digits; other non-negative int arrays
  by three-digit groups; negative ints, and Python ints that NumPy would
  hold as objects or floats (outside int64), one by one with ``%d``.
- :class:`output.Labels` and strings, ``%s``: each label of the table is
  encoded once in UTF-8, its cells kept for the next block with the same
  table, and gathered by its code; or plain strings, each distinct one
  encoded once per block.

The tables are built from Python values when the module is imported:
NumPy arithmetic there would page in ufunc loops that the encoders
never run.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .output import Labels

__all__ = ["encode_block"]


def encode_block(block) -> bytearray:
    """The CSV lines of one block: ``block`` holds one sequence of values
    per column, all of the same length, each written as its type says."""
    columns = [(values, _encoder(values)) for values in block]
    cells = [encoder(values) for values, encoder in columns if encoder is not _floats]
    floats = [np.asarray(values, np.float64) for values, encoder in columns if encoder is _floats]
    lengths = {column.shape[1] for column in cells} | {len(values) for values in floats}
    if len(lengths) != 1:
        raise ValueError(f"the columns of a block differ in length: {sorted(lengths)}")
    rows = lengths.pop()
    if rows == 0:
        return bytearray()
    # every float column in one pass, its cells then split by column
    stacked = _floats(np.concatenate(floats)) if floats else np.empty((2, 0), _WORD)
    split = iter(stacked.reshape(2, len(floats), rows).transpose(1, 0, 2))
    rest = iter(cells)
    cells = [next(split) if encoder is _floats else next(rest) for _, encoder in columns]
    buffer = bytearray(8 * rows * sum(len(column) for column in cells))
    line = np.frombuffer(buffer, _WORD).reshape(rows, -1)
    np.concatenate(cells, out=line.T)
    line.view(np.uint8)[:, -1] = ord("\n")
    return buffer.translate(None, _PAD_BYTE)


_WORD = np.dtype("<u8")
_PAD = 0xFF
_PAD_BYTE = bytes((_PAD,))


def _cells(texts: list[bytes], words: int | None = None) -> np.ndarray:
    """A row of words per text, holding the text, pad bytes and a comma;
    as many words as the longest text needs unless ``words`` is given."""
    if words is None:
        words = max(map(len, texts), default=0) // 8 + 1
    padded = b"".join(text.ljust(8 * words - 1, _PAD_BYTE) + b"," for text in texts)
    return np.frombuffer(padded, _WORD).reshape(len(texts), words)


#: 10**0 .. 10**19, the digit-count thresholds of a uint64.
_POW10_INT = np.array([10**k for k in range(20)], np.uint64)

# A float cell is two words, 16 bytes: byte 0 the sign; the six digits
# at seven bytes of 1-11 in one of seven placements; in scientific
# notation, 8-12 "e", the exponent's sign and three exponent digits; 15
# the separator. Placement p of 1-6, for scientific notation and fixed
# notation from 1, puts the digits at 1-7 with a point slot after the
# first p; placement 0, for fixed notation below 1, puts the "0.000"
# prefix at 1-5 and the digits at 6-11. A template per (form, significant
# digits, sign) holds its bytes with "0" at every digit the cell keeps,
# and the digits' values are added to it; a digit a cell drops is a
# trailing zero, so the pad byte there stays.

#: Exponents the tables cover: a cell's lies in [-300, 300], and a row
#: one past either end is read only on the way to it.
_E_MIN, _E_MAX = -301, 301
_EXPONENTS = range(_E_MIN, _E_MAX + 1)
#: 10**(5 - e) and 10**(e + 1) by exponent row ``e - _E_MIN``.
_SCALE = np.array([10.0 ** (5 - e) for e in _EXPONENTS])
_NEXT_POWER = np.array([10.0 ** (e + 1) for e in _EXPONENTS])
#: The exponent row of floor((b - 1) * log10(2)), the exponent of a value
#: whose binary exponent (of ``np.frexp``) is b or one less, at index
#: b mod 2100; b lies in [-995, 997] for |x| in [1e-300, 1e300].
_ROW_OF_BINARY = np.array(
    [
        min(max(math.floor((b - 1) * math.log10(2)), _E_MIN), _E_MAX - 1) - _E_MIN
        for b in [*range(1050), *range(-1050, 0)]
    ]
)
#: Template row offset by exponent row: 14 per form (0: e <= -5,
#: 1-10: e = form - 5, 11: e >= 6).
_FORM = np.array([14 * (min(max(e, -5), 6) + 5) for e in _EXPONENTS])


def _placement(e: int) -> int:
    """The digits' placement of a cell of exponent e: the digits before
    the point, or 0 for fixed notation below 1."""
    return 1 if e < -4 or e > 5 else max(e + 1, 0)


def _digit_byte(placement: int, i: int) -> int:
    """The byte of significant digit ``i`` (0-5) in ``placement``."""
    return 6 + i if placement == 0 else 1 + i + (i >= placement)


#: Digit table offset by exponent row: 1000 per placement.
_PLACE = np.array([1000 * _placement(e) for e in _EXPONENTS])


def _float_tables():
    """The two template words of row ``14 * form + 2 * significant digits
    + negative``, then of the special cells; and the exponent word of
    each exponent row."""
    templates = []
    for form in range(12):
        e = form - 5
        scientific = form in (0, 11)
        point = _placement(e)  # digits before the point slot
        for k in range(7):
            for sign in (b"\xff", b"-"):
                cell = bytearray(sign + b"\xff" * 14)
                if scientific:
                    cell[8:13] = bytes(5)  # the exponent word is added
                elif e < 0:
                    cell[1 : 2 - e] = b"0.000"[: 1 - e]
                for i in range(max(k, point)):
                    cell[_digit_byte(point, i)] = ord("0")
                if 1 <= point < k:
                    cell[1 + point] = ord(".")
                templates.append(bytes(cell))
    special = [b"0", b"-0", b"inf", b"-inf", b"nan", b"nan"]
    words = _cells([*templates, *special], 2)
    exponent = []
    for e in _EXPONENTS:
        digits = b"%03d" % abs(e) if abs(e) >= 100 else b"\xff%02d" % abs(e)
        sign = b"+" if e > 0 else b"-"
        exponent.append(bytes(8) if -4 <= e <= 5 else b"e" + sign + digits + bytes(3))
    return np.ascontiguousarray(words.T), len(templates), np.frombuffer(b"".join(exponent), _WORD)


(_T0, _T1), _SPECIAL, _EXPONENT = _float_tables()

_DIGITS = b"".join(b"%03d" % v for v in range(1000))
#: The digits of 0..999 written with three digits, as ASCII and as values.
_ASCII = np.frombuffer(_DIGITS, np.uint8).reshape(1000, 3)
_VALUES = np.frombuffer(_DIGITS.translate(bytes.maketrans(b"0123456789", bytes(range(10)))), np.uint8)
_VALUES = _VALUES.reshape(1000, 3)


def _digit_tables(first: int):
    """Words 0 and 1 of the digit values of 0..999 as significant digits
    ``first`` to ``first + 2``, at row ``1000 * placement + value``."""
    table = np.zeros((7, 1000, 16), np.uint8)
    for placement in range(7):
        for i in range(3):
            table[placement, :, _digit_byte(placement, first + i)] = _VALUES[:, i]
    words = table.view(_WORD).reshape(7000, 2)
    return np.ascontiguousarray(words[:, 0]), np.ascontiguousarray(words[:, 1])


# The leading and the trailing three digits.
_HIGH0, _HIGH1 = _digit_tables(0)
_LOW0, _LOW1 = _digit_tables(3)
#: Twice the significant digits of 1..999 written with three digits.
_SIG2 = np.array([2 * len(_DIGITS[i : i + 3].rstrip(b"0")) for i in range(0, 3000, 3)])
#: The same for the trailing three digits, plus six for the leading three.
_SIG2_LOW = np.array([2 * len(_DIGITS[i : i + 3].rstrip(b"0")) + 6 for i in range(0, 3000, 3)])
del _DIGITS, _VALUES


def _floats(values) -> np.ndarray:
    """The cells of ``format(v, '.6g')`` for each v in ``values``: word j
    of every cell in row j."""
    x = np.asarray(values, np.float64)
    mag = np.abs(x)
    normal = (mag >= 1e-300) & (mag <= 1e300)
    every_normal = normal.all()
    if not every_normal:
        mag = np.where(normal, mag, 1.0)
    # the exponent row: estimated from the binary exponent, one more where
    # the value reaches the next power of ten
    row = _ROW_OF_BINARY.take(np.frexp(mag)[1], mode="wrap")
    row += mag >= _NEXT_POWER.take(row)
    # in place, and each array dropped once read: a block's float columns
    # are encoded at once, so these arrays are its largest transient memory
    scaled = np.multiply(mag, _SCALE.take(row), out=mag)
    rounded = np.rint(scaled)
    scaled -= rounded
    one_by_one = np.abs(scaled, out=scaled) > 0.5 - 1e-6
    del mag, scaled
    carry = rounded > 999_999.5
    if carry.any():
        rounded[carry] = 100_000
        row += carry
    high = rounded / 1000
    np.floor(high, out=high)
    low = (rounded - 1000 * high).astype(np.intp)  # the trailing three digits
    del rounded
    high = high.astype(np.intp)
    # the significant digits are those of the trailing three plus three,
    # or of the leading three when the trailing ones are all zero
    code = np.where(low == 0, _SIG2.take(high), _SIG2_LOW.take(low))
    code += _FORM.take(row)
    code += x < 0
    if not every_normal:  # ±0, ±inf and nan take their own cells, the rest format()
        special = ~normal
        zero = x == 0
        kind = np.where(zero, 0, np.where(np.isnan(x), 4, 2))
        code[special] = (_SPECIAL + kind + np.signbit(x))[special]
        high[special] = 0
        low[special] = 0
        one_by_one |= special & ~zero & np.isfinite(x)
    place = _PLACE.take(row)
    high += place
    low += place
    words = np.empty((2, len(x)), _WORD)
    np.add(_T0.take(code), _HIGH0.take(high), out=words[0])
    words[0] += _LOW0.take(low)
    np.add(_T1.take(code), _HIGH1.take(high), out=words[1])
    words[1] += _LOW1.take(low)
    words[1] += _EXPONENT.take(row)
    if one_by_one.any():
        rows = np.flatnonzero(one_by_one)
        texts = [format(value, ".6g").encode("ascii") for value in x[rows].tolist()]
        words[:, rows] = _cells(texts, 2).T
    return words


#: The cells of False and True.
_BOOLS = _cells([b"0", b"1"])
#: The one-word cell of an int in [0, 10**6) is the sum of two words. By
#: the leading three digits' value, those digits in bytes 1-3 without
#: leading zeros (none for 0); by the trailing three digits' value, those
#: digits in bytes 4-6 and the separator: without leading zeros at rows
#: 0-999, for a cell whose leading three are 0, and with them at rows
#: 1000-1999.
_INT_HIGH = np.frombuffer(
    b"".join((b"%d" % v if v else b"").rjust(4, _PAD_BYTE) + bytes(4) for v in range(1000)), _WORD
)
_INT_LOW = np.frombuffer(
    b"".join(
        bytes(4) + text + b","
        for text in [*((b"%d" % v).rjust(3, _PAD_BYTE) for v in range(1000)), *(b"%03d" % v for v in range(1000))]
    ),
    _WORD,
)

# Each encoder returns a column's cells: word j of every cell in row j.


def _ints(values):
    v = np.asarray(values)
    if v.dtype == bool:
        return _BOOLS.take(v.view(np.uint8), axis=0).T
    # Python ints NumPy holds as objects or floats, and negative ints, which no command writes
    if v.dtype.kind not in "iu" or len(v) == 0 or v.min() < 0:
        return _cells([b"%d" % value for value in values]).T
    if v.max() < 10**6:  # one word: the leading and the trailing three digits
        high, low = np.divmod(v.astype(np.intp), 1000)
        low += 1000 * (high > 0)
        return (_INT_HIGH.take(high) + _INT_LOW.take(low)).reshape(1, -1)
    mag = v.astype(np.uint64)
    ndigits = len(str(int(mag.max())))
    chars = np.full((len(mag), 8 * (ndigits // 8 + 1)), _PAD, np.uint8)
    chars[:, -1] = ord(",")
    rest = mag
    for end in range(ndigits, 0, -3):  # three digits at a time, from the last
        rest, group = np.divmod(rest, np.uint64(1000))
        begin = max(end - 3, 0)
        chars[:, begin:end] = _ASCII.take(group.astype(np.intp), axis=0)[:, 3 - (end - begin) :]
    if len(str(int(mag.min()))) < ndigits:  # leading zeros become pad bytes
        lead = ndigits - np.searchsorted(_POW10_INT, mag, side="right").clip(1)
        np.copyto(chars[:, :ndigits], _PAD, where=np.arange(ndigits) < lead[:, None])
    return chars.view(_WORD).T


def _labels(values):
    if isinstance(values, Labels):
        codes, table = values
        cells = _table_cells(tuple(map(str, table)))
    else:
        index = {}
        codes = [index.setdefault(str(value), len(index)) for value in values]
        cells = _text_cells(index)
    return cells.take(np.asarray(codes, dtype=np.intp), axis=0).T


def _text_cells(texts) -> np.ndarray:
    return _cells([text.encode("utf-8") for text in texts])


#: A :class:`output.Labels` table's cells, built once per table: each
#: command writes every block with the same few tables. Keyed by the
#: labels' text, so labels that are equal but print apart (1 and True)
#: never share cells. The cells are read-only.
_table_cells = functools.lru_cache(maxsize=64)(_text_cells)


def _encoder(values):
    """The encoder of a column: floats ``%.6g``, ints and bools ``%d``,
    labels and strings as text. A column that is not an array goes by its
    Python values, which NumPy may hold otherwise: [-1, 2**63 + 1] as
    float64. An empty column is an int column of no cells."""
    if isinstance(values, Labels):
        return _labels
    if isinstance(values, np.ndarray):
        kind = values.dtype.kind
        return _floats if kind == "f" else _ints if kind in "biu" else _labels
    types = set(map(type, values))
    if all(issubclass(t, int) for t in types):
        return _ints
    return _floats if all(issubclass(t, float) for t in types) else _labels
