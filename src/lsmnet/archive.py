"""The one binary archive layout: a 4-byte magic, struct headers, raw arrays.

Every archive is little-endian.  Headers are packed with `struct`, arrays
follow as raw bytes in declaration order, and an optional tail carries
an embedded blob such as a network.  Each array crosses between file and
memory once: the writer hands its buffer straight to the file, and a
`Reader` reads it straight into a fresh array of its own.  The reader
checks each header and array against the file's length before it
allocates or reads anything, so a short, long or inconsistent file
raises `ValueError` instead of a `struct.error` or an allocation sized by
a corrupt field; a file that shrinks while it is read raises it too.
Every text artifact goes through `write_lines`, the one text layout:
UTF-8 with one LF per line on every platform, so reruns match byte for byte.
`format_g17` prints a float64 array exactly as `'%.17g' % v` prints each
value, in whole-array passes; the field CSVs print their values with it.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from fractions import Fraction

import numpy as np


def write(path, magic: bytes, fmt: str, header, arrays=(), tail=()) -> None:
    """Magic, the header packed as `<fmt`, each (array, dtype) pair, then
    each buffer of tail; every array's buffer goes to the file as it is."""
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<" + fmt, *header))
        for values, dtype in arrays:
            fh.write(np.ascontiguousarray(values, dtype=dtype))
        for buffer in tail:
            fh.write(buffer)


def write_lines(path, lines) -> None:
    """The lines as UTF-8 text, each ended by one LF, the last one too;
    written as they come, so a generator never builds the whole file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


# -- '%.17g' in whole-array passes -------------------------------------------

G17_WIDTH = 24                  # len("-1.2345678901234567e-308"), the longest
_TIE_WINDOW = 1e-9              # far above the error bound of _scaled
_FAST_RANGE = (1e-280, 1e280)   # no split or product over- or underflows
_POW10 = np.zeros((2, 601))     # hi and lo of 10**(column - 300)
_POW10_BUILT = np.zeros(601, dtype=bool)
_WORD = np.uint64
# "0000".."9999" as little-endian words, and each one's trailing zeros.
_QUADS = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
          + ord("0")).astype(np.uint8).view("<u4").ravel().astype(_WORD)
_TRAILING_ZEROS = sum(np.arange(10000) % step == 0
                      for step in (10, 100, 1000, 10000)).astype(np.int16)


def _body_masks():
    """Masks over the 17 digit bytes by key 18 * split + keep: the bytes that
    stay put, the bytes that move one up behind a '.', and that '.'."""
    split, keep = np.divmod(np.arange(18 * 18)[:, None], 18)
    byte = np.arange(24)
    masks = (np.where(byte < np.minimum(split, keep), 0xFF, 0),
             np.where((byte >= split) & (byte < keep), 0xFF, 0),
             np.where((byte == split) & (keep > split), ord("."), 0))
    return [m.astype(np.uint8).view("<u8").T.astype(_WORD, order="C") for m in masks]


_STAY, _MOVE, _DOT = _body_masks()
# Sign and "0." lead, by 2 * (-E for -4 <= E < 0, else 0) + negative.
_LEADS = [sign + lead for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000")
          for sign in (b"", b"-")]
_LEAD_WORDS = np.array([int.from_bytes(t, "little") for t in _LEADS], dtype=_WORD)
_LEAD_BITS = np.array([8 * len(t) for t in _LEADS], dtype=_WORD)


def _pow10(k: np.ndarray):
    """hi + lo = 10**k to about 2**-107 relative, each k built on first use
    from exact rationals."""
    column = k + 300
    for j in set(column[~_POW10_BUILT.take(column)].tolist()):
        exact = Fraction(10) ** (j - 300)
        _POW10[:, j] = float(exact), float(exact - Fraction(float(exact)))
        _POW10_BUILT[j] = True
    return _POW10[0].take(column), _POW10[1].take(column)


def _scaled(a: np.ndarray, e: np.ndarray):
    """floor(S) and S - floor(S) for S = a * 10**(16 - e).

    Dekker's TwoProduct (Numer. Math. 18, 1971) splits a * hi exactly into
    p + err; err + a * lo then rounds twice.  On [10**16, 10**17), the one
    range whose digits are used, S is within 4e-15 of exact.  Below 2**53,
    p is no integer and floor(S) may be 1 low, out of that range either way.
    """
    hi, lo = _pow10(16 - e)
    p = a * hi
    c = 134217729.0 * a             # 2**27 + 1: Veltkamp's split in halves
    ah = c - (c - a)
    c = 134217729.0 * hi
    bh = c - (c - hi)
    al, bl = a - ah, hi - bh
    r = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo
    whole = np.floor(r)
    return p.astype(np.int64) + whole.astype(np.int64), r - whole


def _decimal(v: np.ndarray):
    """17-digit N in [10**16, 10**17), exponent E, and the rows `_printf`
    prints: outside `_FAST_RANGE` (zero and non-finite too), within
    `_TIE_WINDOW` of a half-unit tie, or with E unsettled by one retry."""
    a = np.abs(v)
    fast = (a >= _FAST_RANGE[0]) & (a <= _FAST_RANGE[1])
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    floor_s, frac = _scaled(a, e)
    # log10 may round across a power of ten: redo those rows one exponent over.
    off = np.flatnonzero((floor_s < 10 ** 16) | (floor_s >= 10 ** 17))
    if off.size:
        e[off] += np.where(floor_s[off] < 10 ** 16, -1, 1)
        floor_s[off], frac[off] = _scaled(a[off], e[off])
    slow = (~fast | (np.abs(frac - 0.5) < _TIE_WINDOW)
            | (floor_s < 10 ** 16) | (floor_s >= 10 ** 17))
    n = np.where(slow, 10 ** 16, floor_s + (frac > 0.5))
    carry = n == 10 ** 17           # 99...9.5 rounds up to the next decade
    n[carry] = 10 ** 16
    return n, (e + carry).astype(np.int16), slow


def _layout(n: np.ndarray, e: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """C's %g layout of N and E as (count, 3) little-endian words: fixed for
    -4 <= E < 17, else d.ddde±XX; trailing zeros, a bare point stripped."""
    # The 17 digits as bytes 0-7, 8-15 and 16 of three words.
    top, rest = np.divmod(n, 10 ** 9)
    mid, last = np.divmod(rest.astype(np.int32), 10)
    quads = [*np.divmod(top.astype(np.int32), 10 ** 4), *np.divmod(mid, 10 ** 4)]
    words = [_QUADS.take(q) for q in quads]
    digits = [words[0] | words[1] << _WORD(32),
              words[2] | words[3] << _WORD(32), (last + ord("0")).astype(_WORD)]
    zeros = [_TRAILING_ZEROS.take(q) for q in quads]
    sig = 17 - (last == 0) * (1 + zeros[3] + (quads[3] == 0) * (
        zeros[2] + (quads[2] == 0) * (zeros[1] + (quads[1] == 0) * zeros[0])))
    fixed = (e >= -4) & (e < 17)
    small = fixed & (e < 0)
    # Digits before the point (17 where the lead carries it), digits kept.
    split = np.where(fixed, np.where(small, 17, e + 1), 1)
    keep = np.where(small, sig, np.maximum(sig, split))
    key = 18 * split + keep
    moved = [d & m.take(key) for d, m in zip(digits, _MOVE)]
    body = [d & s.take(key) | m << _WORD(8) | p.take(key)
            for d, s, m, p in zip(digits, _STAY, moved, _DOT)]
    lead = 2 * np.where(small, -e, 0) + negative
    bits = _LEAD_BITS.take(lead)
    text = np.empty((e.size, 3), dtype="<u8")
    text[:, 0] = body[0] << bits | _LEAD_WORDS.take(lead)
    for i in (1, 2):
        body[i] |= moved[i - 1] >> _WORD(56)
        text[:, i] = body[i] << bits | body[i - 1] >> (_WORD(64) - bits)
    sci = np.flatnonzero(~fixed)
    if sci.size:
        mag = np.abs(e[sci])
        sign = np.where(e[sci] < 0, _WORD(ord("-")), _WORD(ord("+")))
        # "e", the sign, and |E|'s last three digits, or its last two.
        word = (_WORD(ord("e")) | sign << _WORD(8)
                | _QUADS.take(mag) >> _WORD(8) << _WORD(16))
        word = np.where(mag < 100, word & _WORD(0xFFFF)
                        | word >> _WORD(24) << _WORD(16), word)
        at = (bits[sci] >> _WORD(3)).astype(np.int16) + keep[sci] + (keep[sci] > 1)
        shift = ((at & 7) * 8).astype(_WORD)
        text[sci, at >> 3] |= word << shift
        text[sci, np.minimum((at >> 3) + 1, 2)] |= word >> (_WORD(64) - shift)
    return text.view(np.uint8)


def _printf(values: np.ndarray) -> list:
    return [b"%.17g" % v for v in values.tolist()]


def format_g17(values) -> np.ndarray:
    """Each value as the ASCII bytes `'%.17g' % value` prints, one row per
    value, left-aligned and NUL-padded to G17_WIDTH columns.

    The digits are N = |v| * 10**(16 - E) rounded to an integer, E from
    floor(log10 |v|) and redone one over where log10 rounded across a power
    of ten.  `_scaled` is within 4e-15 of exact, so it decides every value
    more than `_TIE_WINDOW` from a half-unit tie.  `'%.17g' %` prints the
    rest itself: ties and near-ties, |v| outside `_FAST_RANGE`, zeros,
    non-finite values, and the rare value scaled to within 4e-15 of 10**16,
    whose E one retry may not settle.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    n, e, slow = _decimal(v)
    text = _layout(n, e, np.signbit(v))
    if slow.any():
        text[slow] = np.array(_printf(v[slow]), dtype=f"S{G17_WIDTH}").view(
            np.uint8).reshape(-1, G17_WIDTH)
    return text


class Reader:
    """Bounds-checked cursor over one open archive file.

    The length comes from the file itself (`os.fstat`), so every header
    and array is checked against the bytes left before anything is
    allocated; each array is then read straight into its own buffer.
    """

    def __init__(self, fh):
        self.fh = fh
        self.length = os.fstat(fh.fileno()).st_size
        self.offset = 0

    def _take(self, size: int, what: str) -> int:
        start, left = self.offset, self.length - self.offset
        if size > left:
            raise ValueError(f"truncated archive: {what} needs {size} bytes "
                             f"at offset {start}, {left} left")
        self.offset += size
        return start

    def _fill(self, buffer, start: int, what: str):
        """The buffer, filled from the file with the bytes `_take` counted
        from start on; fewer means the file shrank while it was read."""
        size = self.offset - start
        got = self.fh.readinto(buffer)
        if got != size:
            raise ValueError(f"truncated archive: {what} got {got} of {size} "
                             f"bytes at offset {start}; the file shrank "
                             f"while it was read")
        return buffer

    def header(self, fmt: str) -> tuple:
        fmt = "<" + fmt
        size, what = struct.calcsize(fmt), f"header {fmt}"
        start = self._take(size, what)
        return struct.unpack(fmt, self._fill(bytearray(size), start, what))

    def magic(self, expected: bytes) -> None:
        (found,) = self.header(f"{len(expected)}s")
        if found != expected:
            raise ValueError(f"bad magic {found!r}, expected {expected!r}")

    def array(self, dtype, shape: tuple) -> np.ndarray:
        """The next prod(shape) elements, read into a fresh array once
        their size has been checked against the bytes left."""
        dtype = np.dtype(dtype)
        what = f"{dtype.str} array {shape}"
        start = self._take(math.prod(shape) * dtype.itemsize, what)
        return self._fill(np.empty(shape, dtype), start, what)


@contextmanager
def read(path, magic: bytes):
    """Reader over an open file, past its magic.

    A clean exit refuses trailing bytes.  Any ValueError raised inside the
    block, by the reader or by the loader's own validation, is re-raised
    with the file path in front.
    """
    with open(path, "rb") as fh:
        reader = Reader(fh)
        try:
            reader.magic(magic)
            yield reader
            if reader.offset != reader.length:
                raise ValueError(f"{reader.length - reader.offset} trailing "
                                 f"bytes after offset {reader.offset}")
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from err
