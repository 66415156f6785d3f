"""Fixtures shared by the test modules."""

import functools
import types

import pytest
from scipy import special

from lsmnet import specialfn


@pytest.fixture
def general_order_bessel(monkeypatch):
    """Route every order in `specialfn` to scipy's general real-order
    routines jv and yv: the oracle for the fixed- and integer-order
    kernels that `bessel_j` and `bessel_y` dispatch to."""
    monkeypatch.setattr(specialfn, "_sp", types.SimpleNamespace(
        j0=functools.partial(special.jv, 0), j1=functools.partial(special.jv, 1),
        y0=functools.partial(special.yv, 0), y1=functools.partial(special.yv, 1),
        jv=special.jv, yn=special.yv))
