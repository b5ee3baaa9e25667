"""Encoding a block of CSV rows, column by column, with NumPy.

Each column is encoded at once into fixed-width cells of little-endian
64-bit words: the cell's bytes, 0xFF in every byte it does not use, and
its separator in the last byte. The cells fill one line matrix per
block, and ``bytes.translate`` deletes the 0xFF bytes, which UTF-8 never
contains. A column's values choose its cells by their type, each cell
the bytes that ``%`` formatting gives its value:

- floats, ``%.6g``: the decimal exponent e of |x| (a lower bound from its
  binary exponent, one more where |x| reaches the next power of ten)
  picks the power of ten that scales |x| into [1e5, 1e6), ``rint`` gives
  the six significant digits (1,000,000 carries into the exponent), and
  their values are added to a template cell of the value's notation,
  sign and number of significant digits. The scaled value is off by a
  few ulp, so a value whose fraction lies within 1e-6 of one half (Python
  rounds an exact tie half to even) or whose magnitude lies outside
  [1e-300, 1e300] is formatted on its own with ``format(x, '.6g')``; ±0,
  ±inf and nan have template cells of their own.
- ints and bools, ``%d``: int and bool arrays by three-digit groups;
  Python ints that NumPy would hold as objects or floats (outside int64)
  one by one with ``%d``.
- :class:`output.Labels` and strings, ``%s``: each label of the table is
  encoded once in UTF-8 and gathered by its code, or plain strings, each
  distinct one encoded once.

The tables are built from Python values when the module is imported:
NumPy arithmetic there would page in ufunc loops that the encoders
never run.
"""

from __future__ import annotations

import math

import numpy as np

from .output import Labels

__all__ = ["encode_block"]


def encode_block(block) -> bytearray:
    """The CSV lines of one block: ``block`` holds one sequence of values
    per column, all of the same length, each written as its type says."""
    cells = [_encode(values) for values in block]
    lengths = {column.shape[1] for column in cells}
    if len(lengths) != 1:
        raise ValueError(f"the columns of a block differ in length: {sorted(lengths)}")
    rows = lengths.pop()
    if rows == 0:
        return bytearray()
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

# A float cell is three words, 24 bytes: byte 0 the sign; 1-5 the
# "0.000" prefix of fixed notation below 1; 6-16 the six digits, with a
# point slot after each of the first five; 17-21 "e", the exponent's sign
# and three exponent digits; 23 the separator. A template per (form,
# significant digits, sign) holds its bytes with "0" at every digit the
# cell keeps, and the digits' values are added to it; a digit a cell
# drops is a trailing zero, so the pad byte there stays.

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


def _float_tables():
    """The three template words of row ``14 * form + 2 * significant digits
    + negative``, then of the special cells; and the exponent word of
    each exponent row."""
    templates = []
    for form in range(12):
        e = form - 5
        scientific = form in (0, 11)
        point = 1 if scientific else max(e + 1, 0)  # the slot after digit point - 1; 0: none
        for k in range(7):
            for sign in (b"\xff", b"-"):
                cell = bytearray(sign + b"\xff" * 22)
                if scientific:
                    cell[17:22] = bytes(5)  # the exponent word is added
                elif e < 0:
                    cell[1 : 2 - e] = b"0.000"[: 1 - e]
                for i in range(max(k, point)):
                    cell[6 + 2 * i] = ord("0")
                if 1 <= point < k:
                    cell[5 + 2 * point] = ord(".")
                templates.append(bytes(cell))
    special = [b"0", b"-0", b"inf", b"-inf", b"nan", b"nan"]
    words = _cells([*templates, *special], 3)
    exponent = []
    for e in _EXPONENTS:
        digits = b"%03d" % abs(e) if abs(e) >= 100 else b"\xff%02d" % abs(e)
        sign = b"+" if e > 0 else b"-"
        exponent.append(bytes(8) if -4 <= e <= 5 else b"\0e" + sign + digits + bytes(2))
    return np.ascontiguousarray(words.T), len(templates), np.frombuffer(b"".join(exponent), _WORD)


(_T0, _T1, _T2), _SPECIAL, _EXPONENT = _float_tables()

_DIGITS = b"".join(b"%03d" % v for v in range(1000))
#: The digits of 0..999 written with three digits, as ASCII and as values.
_ASCII = np.frombuffer(_DIGITS, np.uint8).reshape(1000, 3)
_VALUES = np.frombuffer(_DIGITS.translate(bytes.maketrans(b"0123456789", bytes(range(10)))), np.uint8)
_VALUES = _VALUES.reshape(1000, 3)


def _digit_table(*places) -> np.ndarray:
    """Per 0..999, a word holding its digit ``i`` at byte ``b`` for each
    ``(i, b)`` of ``places``, and zero bytes elsewhere."""
    table = np.zeros((1000, 8), np.uint8)
    for i, byte in places:
        table[:, byte] = _VALUES[:, i]
    return table.view(_WORD)[:, 0]


# The digits of the leading and the trailing three, at their bytes of
# float words 0, 1 and 2.
_HIGH0 = _digit_table((0, 6))
_HIGH1 = _digit_table((1, 0), (2, 2))
_LOW1 = _digit_table((0, 4), (1, 6))
_LOW2 = _digit_table((2, 0))
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
    scaled = mag * _SCALE.take(row)
    rounded = np.rint(scaled)
    scaled -= rounded
    one_by_one = np.abs(scaled) > 0.5 - 1e-6
    carry = rounded > 999_999.5
    if carry.any():
        rounded[carry] = 100_000
        row += carry
    high = np.floor(rounded / 1000)
    rounded -= 1000 * high  # the trailing three digits
    # the significant digits are those of the trailing three plus three,
    # or of the leading three when the trailing ones are all zero
    high, low = high.astype(np.intp), rounded.astype(np.intp)
    code = np.where(rounded == 0, _SIG2.take(high), _SIG2_LOW.take(low))
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
    words = np.empty((3, len(x)), _WORD)
    np.add(_T0.take(code), _HIGH0.take(high), out=words[0])
    np.add(_T1.take(code), _HIGH1.take(high), out=words[1])
    words[1] += _LOW1.take(low)
    np.add(_T2.take(code), _EXPONENT.take(row), out=words[2])
    words[2] += _LOW2.take(low)
    if one_by_one.any():
        rows = np.flatnonzero(one_by_one)
        texts = [format(value, ".6g").encode("ascii") for value in x[rows].tolist()]
        words[:, rows] = _cells(texts, 3).T
    return words


#: The cells of False and True.
_BOOLS = _cells([b"0", b"1"])

# Each encoder returns a column's cells: word j of every cell in row j.


def _ints(values):
    v = np.asarray(values)
    if v.dtype == bool:
        return _BOOLS.take(v.view(np.uint8), axis=0).T
    if v.dtype.kind not in "iu" or len(v) == 0:  # Python ints NumPy holds as objects or floats
        return _cells([b"%d" % value for value in values]).T
    sign = int(v.min() < 0)
    mag = v.astype(np.uint64)
    if sign:
        negative = v < 0
        mag = np.where(negative, np.negative(mag), mag)  # |int64 min| is 2**63
    ndigits = len(str(int(mag.max())))
    words = (sign + ndigits) // 8 + 1
    chars = np.full((len(mag), 8 * words), _PAD, np.uint8)
    chars[:, -1] = ord(",")
    if sign:
        chars[:, 0] = np.where(negative, ord("-"), _PAD)
    rest = mag
    for end in range(sign + ndigits, sign, -3):  # three digits at a time, from the last
        rest, group = np.divmod(rest, np.uint64(1000))
        begin = max(end - 3, sign)
        chars[:, begin:end] = _ASCII.take(group.astype(np.intp), axis=0)[:, 3 - (end - begin) :]
    if len(str(int(mag.min()))) < ndigits:  # leading zeros become pad bytes
        lead = ndigits - np.searchsorted(_POW10_INT, mag, side="right").clip(1)
        np.copyto(chars[:, sign : sign + ndigits], _PAD, where=np.arange(ndigits) < lead[:, None])
    return chars.view(_WORD).T


def _labels(values):
    if isinstance(values, Labels):
        codes, table = values
    else:
        index = {}
        codes = [index.setdefault(str(value), len(index)) for value in values]
        table = list(index)
    cells = _cells([str(label).encode("utf-8") for label in table])
    return cells.take(np.asarray(codes, dtype=np.intp), axis=0).T


def _encode(values) -> np.ndarray:
    """The cells of a column: floats ``%.6g``, ints and bools ``%d``,
    labels and strings as text. A column that is not an array goes by its
    Python values, which NumPy may hold otherwise: [-1, 2**63 + 1] as
    float64. An empty column is an int column of no cells."""
    if isinstance(values, Labels):
        return _labels(values)
    if isinstance(values, np.ndarray):
        kind = values.dtype.kind
        return (_floats if kind == "f" else _ints if kind in "biu" else _labels)(values)
    types = set(map(type, values))
    if all(issubclass(t, int) for t in types):
        return _ints(values)
    return _floats(values) if all(issubclass(t, float) for t in types) else _labels(values)
