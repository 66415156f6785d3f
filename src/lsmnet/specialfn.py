"""Bessel functions of orders 0 and 1 on the positive real axis.

The boundary-integral kernels need J_0, J_1, Y_0 and Y_1, and the disk
series seeds its recurrences with Y_0 and Y_1 (`forward._ratio_table`).
All four go to the Cephes kernels j0, j1, y0 and y1 behind the domain
checks the rest of the codebase relies on.
"""

from __future__ import annotations

import numbers

import numpy as np
from scipy import special as _sp


def _check_order(order: int) -> int:
    # A bool would otherwise pass as 0 or 1 and pick a kernel.
    if (isinstance(order, bool) or not isinstance(order, numbers.Real)
            or order not in (0, 1)):
        raise ValueError(f"order must be an integer, 0 or 1, got {order!r}")
    return int(order)


def _check_argument(x) -> np.ndarray:
    x = np.asarray(x)
    # Conversion to float would drop an imaginary part, parse a numeric
    # string and read a bool as 0 or 1.
    if x.dtype.kind not in "iuf":
        raise ValueError(f"x must be real, got dtype {x.dtype}")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    return x


def bessel_j(order: int, x):
    """J_order(x) for order 0 or 1 and x >= 0, a scalar or an array of x's shape."""
    order = _check_order(order)
    x = _check_argument(x)
    if np.any(x < 0):
        raise ValueError("x must be >= 0")
    out = (_sp.j0, _sp.j1)[order](x)
    return float(out) if out.ndim == 0 else out


def bessel_y(order: int, x):
    """Y_order(x) for order 0 or 1 and x > 0 (Y is singular at the origin)."""
    order = _check_order(order)
    x = _check_argument(x)
    if np.any(x <= 0):
        raise ValueError("x must be > 0")
    out = (_sp.y0, _sp.y1)[order](x)
    return float(out) if out.ndim == 0 else out
