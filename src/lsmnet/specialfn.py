"""Integer-order Bessel and Hankel functions on the positive real axis.

The far-field series and the boundary-integral kernels need J_p, Y_p and
H_p = J_p + i Y_p for integer p >= 0 at real positive argument, nothing else.
Evaluation is delegated to scipy.special behind the domain checks and the
order cap the rest of the codebase relies on; accuracy against an
extended-precision oracle is pinned in the test suite.

Orders 0 and 1 (all the Nystrom quadrature needs) go to the Cephes
fixed-order kernels j0, j1, y0, y1, and Y of order 2 and above to the
integer-order yn: 10 to 20 times faster than the general-order AMOS jv/yv
at the same accuracy.  J of order 2 and above stays on jv, since scipy's
jn is jv bit for bit.
"""

from __future__ import annotations

import numbers

import numpy as np
from scipy import special as _sp

# Far beyond any series truncation needed for kR <= 2*pi*1.5*4.
ORDER_CAP = 200


def _check_order(order: int) -> int:
    # A bool or a numeric string would otherwise pass float() and pick a kernel.
    if (isinstance(order, bool) or not isinstance(order, numbers.Real)
            or not float(order).is_integer()):
        raise ValueError(f"order must be an integer, got {order!r}")
    order = int(order)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order > ORDER_CAP:
        raise ValueError(f"order {order} exceeds cap {ORDER_CAP}")
    return order


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
    """Bessel function of the first kind J_order(x) for x >= 0.

    Accepts a scalar or ndarray argument; returns the same shape.
    """
    order = _check_order(order)
    x = _check_argument(x)
    if np.any(x < 0):
        raise ValueError("x must be >= 0")
    out = (_sp.j0, _sp.j1)[order](x) if order < 2 else _sp.jv(order, x)
    return float(out) if out.ndim == 0 else out


def bessel_y(order: int, x):
    """Bessel function of the second kind Y_order(x) for x > 0.

    Rejects x <= 0 (logarithmic singularity at the origin).
    """
    order = _check_order(order)
    x = _check_argument(x)
    if np.any(x <= 0):
        raise ValueError("x must be > 0")
    out = (_sp.y0, _sp.y1)[order](x) if order < 2 else _sp.yn(order, x)
    return float(out) if out.ndim == 0 else out


def hankel1(order: int, x):
    """Hankel function of the first kind, H_order(x) = J_order(x) + i Y_order(x)."""
    j = bessel_j(order, x)
    y = bessel_y(order, x)
    return j + 1j * y
