"""Fixtures shared by the test modules."""

import functools
import types

import pytest
from scipy import special

from lsmnet import specialfn


@pytest.fixture
def general_order_bessel(monkeypatch):
    """Route the four kernels in `specialfn` (orders 0 and 1) to scipy's
    general real-order routines jv and yv: the oracle for the Cephes
    fixed-order kernels j0, j1, y0 and y1 that it dispatches to."""
    monkeypatch.setattr(specialfn, "_sp", types.SimpleNamespace(
        j0=functools.partial(special.jv, 0), j1=functools.partial(special.jv, 1),
        y0=functools.partial(special.yv, 0), y1=functools.partial(special.yv, 1)))


@pytest.fixture
def no_general_order(monkeypatch):
    """Let `specialfn` reach only the Cephes kernels j0, j1, y0 and y1 of
    scipy.special; any other routine (jv, yv, yn, ...) fails the test."""

    class NoGeneralOrder:
        def __getattr__(self, name):
            if name not in ("j0", "j1", "y0", "y1"):
                raise AssertionError(f"scipy.special.{name} called")
            return getattr(special, name)

    monkeypatch.setattr(specialfn, "_sp", NoGeneralOrder())


@pytest.fixture
def open_blob(tmp_path):
    """Bytes as an open binary file, the object an `archive.Reader` reads;
    every file opened this way is closed after the test."""
    files = []

    def open_(blob):
        path = tmp_path / f"blob{len(files)}.bin"
        path.write_bytes(blob)
        files.append(open(path, "rb"))
        return files[-1]

    yield open_
    for fh in files:
        fh.close()
