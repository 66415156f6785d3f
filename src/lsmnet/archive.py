"""The one binary archive layout: a 4-byte magic, struct headers, raw arrays.

Every archive is little-endian.  Headers are packed with `struct`, arrays
follow as raw bytes in declaration order, and an optional tail carries
an embedded blob such as a network.  Reading goes through a `Reader`
that checks each header and array against the bytes left before it
touches them, so a short, long or inconsistent file raises `ValueError`
instead of a `struct.error` or an allocation sized by a corrupt field.
Every text artifact goes through `write_lines`, the one text layout:
UTF-8 with one LF per line on every platform, so reruns match byte for byte.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager

import numpy as np


def write(path, magic: bytes, fmt: str, header, arrays=(), tail: bytes = b"") -> None:
    """Magic, the header packed as `<fmt`, each (array, dtype) pair, then tail."""
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<" + fmt, *header))
        for values, dtype in arrays:
            fh.write(np.ascontiguousarray(values, dtype=dtype).tobytes())
        fh.write(tail)


def write_lines(path, lines) -> None:
    """The lines as UTF-8 text, each ended by one LF, the last one too."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


class Reader:
    """Bounds-checked cursor over the bytes of one archive."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.offset = 0

    def _take(self, size: int, what: str) -> int:
        start, left = self.offset, len(self.blob) - self.offset
        if size > left:
            raise ValueError(f"truncated archive: {what} needs {size} bytes "
                             f"at offset {start}, {left} left")
        self.offset += size
        return start

    def header(self, fmt: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack_from(fmt, self.blob,
                                  self._take(struct.calcsize(fmt), f"header {fmt}"))

    def magic(self, expected: bytes) -> None:
        (found,) = self.header(f"{len(expected)}s")
        if found != expected:
            raise ValueError(f"bad magic {found!r}, expected {expected!r}")

    def array(self, dtype, shape: tuple) -> np.ndarray:
        """A copy of the next prod(shape) elements, read in place."""
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        start = self._take(count * dtype.itemsize, f"{dtype.str} array {shape}")
        return np.frombuffer(self.blob, dtype, count, start).reshape(shape).copy()


@contextmanager
def read(path, magic: bytes):
    """Reader over a whole file, past its magic.

    A clean exit refuses trailing bytes.  Any ValueError raised inside the
    block, by the reader or by the loader's own validation, is re-raised
    with the file path in front.
    """
    with open(path, "rb") as fh:
        reader = Reader(fh.read())
    try:
        reader.magic(magic)
        yield reader
        if reader.offset != len(reader.blob):
            raise ValueError(f"{len(reader.blob) - reader.offset} trailing "
                             f"bytes after offset {reader.offset}")
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
