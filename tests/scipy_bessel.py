"""SciPy's integer-order Bessel routes, kept as test oracles.

The program evaluates J_p and Y_p of order 2 and above only inside
`forward._ratio_table`, by recurrence.  These are the routes it used
before: orders 0 and 1 through `specialfn`, J of order 2 and above
through SciPy's general-order jv, Y through the integer-order yn, all
behind `specialfn`'s argument check.  `scipy_ratio_table` is the ratio
table built from them, one Python complex division per ratio.
"""

import numbers

import numpy as np
from scipy import special

from lsmnet import specialfn
from lsmnet.forward import ORDER_CAP


def _check_order(order) -> int:
    if (isinstance(order, bool) or not isinstance(order, numbers.Real)
            or not float(order).is_integer()):
        raise ValueError(f"order must be an integer, got {order!r}")
    if not 0 <= order <= ORDER_CAP:
        raise ValueError(f"order {int(order)} outside 0..{ORDER_CAP}")
    return int(order)


def _general(kernel, order, x, lowest_ok):
    x = specialfn._check_argument(x)
    if np.any(x < 0) or (not lowest_ok and np.any(x == 0)):
        raise ValueError("x is outside the domain")
    out = kernel(order, x)
    return float(out) if out.ndim == 0 else out


def bessel_j(order, x):
    """J_order(x) for x >= 0: `specialfn` below order 2, else scipy's jv."""
    order = _check_order(order)
    if order < 2:
        return specialfn.bessel_j(order, x)
    return _general(special.jv, order, x, lowest_ok=True)


def bessel_y(order, x):
    """Y_order(x) for x > 0: `specialfn` below order 2, else scipy's yn."""
    order = _check_order(order)
    if order < 2:
        return specialfn.bessel_y(order, x)
    return _general(special.yn, order, x, lowest_ok=False)


def hankel1(order, x):
    """H_order(x) = J_order(x) + i Y_order(x)."""
    return bessel_j(order, x) + 1j * bessel_y(order, x)


def scipy_ratio_table(kr, orders):
    """Row i holds J_p(kr_i)/H_p(kr_i) for p = 0..orders[i], zeros beyond:
    one vectorised J_p and Y_p call per order, then Python's float /
    complex division per ratio."""
    table = np.zeros((kr.size, int(orders.max()) + 1), dtype=complex)
    for p in range(table.shape[1]):
        rows = np.flatnonzero(orders >= p)
        js = bessel_j(p, kr[rows]).tolist()
        ys = bessel_y(p, kr[rows]).tolist()
        table[rows, p] = [j / (j + 1j * y) for j, y in zip(js, ys)]
    return table
