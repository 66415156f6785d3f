"""Accuracy and domain checks for the Bessel/Hankel kernel.

Reference values come from mpmath at 30 significant digits; the frozen
literals below were produced the same way and double-checked against a
direct power-series summation in extended precision.
"""

import mpmath
import numpy as np
import pytest
from scipy import special

from lsmnet.specialfn import ORDER_CAP, bessel_j, bessel_y, hankel1

mpmath.mp.dps = 30

# 50-term power series / ascending-series oracles, frozen.
J0_AT_1 = 0.765197686557967
Y0_AT_1 = 0.088256964215677
Y1_AT_1 = -0.781212821300289
WRONSKIAN_AT_2_5 = 0.254647908947033


def test_j_at_origin():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(7, 0.0) == 0.0


def test_frozen_point_values():
    assert bessel_j(0, 1.0) == pytest.approx(J0_AT_1, rel=1e-12)
    assert bessel_y(0, 1.0) == pytest.approx(Y0_AT_1, rel=1e-10)
    assert bessel_y(1, 1.0) == pytest.approx(Y1_AT_1, rel=1e-10)
    h = hankel1(0, 1.0)
    assert h.real == pytest.approx(J0_AT_1, rel=1e-12)
    assert h.imag == pytest.approx(Y0_AT_1, rel=1e-10)


def test_wronskian_frozen_point():
    x = 2.5
    w = bessel_j(1, x) * bessel_y(0, x) - bessel_j(0, x) * bessel_y(1, x)
    assert w == pytest.approx(WRONSKIAN_AT_2_5, rel=1e-12)
    assert w == pytest.approx(2.0 / (np.pi * x), rel=1e-12)


def test_j_against_high_precision_oracle():
    """Relative error <= 1e-12 over the orders and arguments in use."""
    xs = np.logspace(-2, 2, 25)
    for order in (0, 1, 2, 5, 10, 25, 60):
        for x in xs:
            exact = float(mpmath.besselj(order, mpmath.mpf(x)))
            got = bessel_j(order, float(x))
            scale = max(abs(exact), 1e-280)
            assert abs(got - exact) <= 1e-12 * scale, (order, x)


def test_y_against_high_precision_oracle():
    """Relative error <= 1e-10 for 1e-3 <= x <= 100."""
    xs = np.logspace(-3, 2, 25)
    for order in (0, 1, 2, 5, 10, 25, 30):
        for x in xs:
            exact = float(mpmath.bessely(order, mpmath.mpf(x)))
            got = bessel_y(order, float(x))
            assert abs(got - exact) <= 1e-10 * abs(exact), (order, x)


@pytest.mark.parametrize("fn, order, kernel", [
    (bessel_j, 0, special.j0), (bessel_j, 1, special.j1),
    (bessel_y, 0, special.y0), (bessel_y, 1, special.y1),
], ids=["j0", "j1", "y0", "y1"])
def test_orders_0_and_1_are_the_fixed_order_kernels(fn, order, kernel):
    xs = np.logspace(-3, 2, 200)
    assert fn(order, xs).tobytes() == kernel(xs).tobytes()
    assert fn(order, 2.5) == kernel(2.5)


def test_y_of_order_2_and_above_is_the_integer_order_kernel():
    xs = np.logspace(-1, 2, 200)
    for order in (2, 3, 10, 30, ORDER_CAP):
        assert bessel_y(order, xs).tobytes() == special.yn(order, xs).tobytes()


def test_j_of_order_2_and_above_is_the_general_order_kernel():
    xs = np.logspace(-3, 2, 200)
    for order in (2, 3, 10, 30, ORDER_CAP):
        assert bessel_j(order, xs).tobytes() == special.jv(order, xs).tobytes()


def test_wronskian_property_grid():
    """J_{p+1} Y_p - J_p Y_{p+1} = 2/(pi x) across orders and arguments."""
    xs = np.logspace(-2, 2, 40)
    for p in range(31):
        target = 2.0 / (np.pi * xs)
        got = (bessel_j(p + 1, xs) * bessel_y(p, xs)
               - bessel_j(p, xs) * bessel_y(p + 1, xs))
        np.testing.assert_allclose(got, target, rtol=1e-9)


def test_three_term_recurrence():
    """C_{p+1} = (2p/x) C_p - C_{p-1} for both kinds.

    The identity is checked against the size of its largest term: for J
    at order well above x the two terms on the right cancel to ~2p/x
    times below their own magnitude, so demanding the identity relative
    to C_{p+1} itself would require more relative accuracy than float64
    carries.  Normalizing by the dominant term bounds the backward
    error at 1e-9, which is the meaningful statement.
    """
    xs = np.logspace(-2, 2, 40)
    for fn in (bessel_j, bessel_y):
        for p in range(1, 31):
            low = fn(p - 1, xs)
            mid = fn(p, xs)
            high = fn(p + 1, xs)
            residual = np.abs(high - ((2.0 * p / xs) * mid - low))
            scale = np.maximum.reduce([np.abs(high),
                                       np.abs(2.0 * p / xs * mid),
                                       np.abs(low)])
            assert np.all(residual <= 1e-9 * scale), (fn.__name__, p)


def test_j_large_order_asymptotics():
    """J_p(x) ~ (x/2)^p / p! at fixed x: within 5% at p=25, x=1."""
    p = 25
    ratio = bessel_j(p, 1.0) * float(mpmath.factorial(p)) * 2.0 ** p
    assert abs(ratio - 1.0) < 0.05


def test_hankel_large_argument_asymptotics():
    """H_0(x) ~ sqrt(2/(pi x)) e^{i(x - pi/4)} at x=50 within 1%."""
    x = 50.0
    h = hankel1(0, x)
    asymptotic = np.sqrt(2.0 / (np.pi * x)) * np.exp(1j * (x - np.pi / 4.0))
    assert abs(h - asymptotic) / abs(h) < 0.01


def test_hankel_large_order_asymptotics():
    """H_p(1) ~ (p-1)! 2^p / (i pi) at p=20 within 5%."""
    p = 20
    asymptotic = float(mpmath.factorial(p - 1)) * 2.0 ** p / (1j * np.pi)
    ratio = hankel1(p, 1.0) / asymptotic
    assert abs(ratio - 1.0) < 0.05


def test_hankel_is_j_plus_iy():
    for p in (0, 1, 5):
        for x in (0.3, 2.0, 17.5):
            assert hankel1(p, x) == bessel_j(p, x) + 1j * bessel_y(p, x)


def test_domain_rejections():
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0, -0.5)
    with pytest.raises(ValueError):
        bessel_j(ORDER_CAP + 1, 1.0)
    with pytest.raises(ValueError):
        bessel_y(0, 0.0)
    with pytest.raises(ValueError):
        bessel_y(0, -1.0)
    with pytest.raises(ValueError):
        hankel1(0, 0.0)
    with pytest.raises(ValueError):
        bessel_j(0, np.inf)
    with pytest.raises(ValueError):
        bessel_j(0.5, 1.0)


@pytest.mark.parametrize("fn", [bessel_j, bessel_y, hankel1])
@pytest.mark.parametrize("order", ["3", "0", b"1", True, False, np.bool_(True),
                                   None, 1 + 0j, [1]])
def test_order_that_is_not_a_number_is_refused(fn, order):
    with pytest.raises(ValueError, match="order must be an integer"):
        fn(order, 1.0)


@pytest.mark.parametrize("fn", [bessel_j, bessel_y, hankel1])
@pytest.mark.parametrize("x", [1 + 1j, 2.0 + 0j, np.array([1.0, 2.0 + 0.5j]),
                               [0.5, 1j], "1.0", ["2", "3"], True,
                               np.array([1.0, None])])
def test_argument_that_is_not_real_is_refused(fn, x):
    with pytest.raises(ValueError, match="x must be real"):
        fn(0, x)


def test_integral_orders_of_any_numeric_type_are_accepted():
    for order in (3, 3.0, np.int64(3), np.float32(3.0)):
        assert bessel_j(order, 2.0) == bessel_j(3, 2.0)
        assert bessel_y(order, 2.0) == bessel_y(3, 2.0)


def test_vectorized_arguments():
    xs = np.array([0.5, 1.0, 2.0])
    out = bessel_j(0, xs)
    assert out.shape == xs.shape
    assert out[1] == bessel_j(0, 1.0)
