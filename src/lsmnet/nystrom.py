"""Boundary-integral forward solver for sound-soft scatterers.

The scattered field is sought as a combined single/double layer potential,
which leads to a second-kind integral equation on the boundary for every
incident direction.  The logarithmic singularity of the 2-d Helmholtz
kernel is handled by product quadrature on the periodic parametrization:
kernels are split into a smooth part, integrated by the trapezoid rule,
and a log part integrated exactly against trigonometric interpolants.
The combined-field coupling is fixed at the wavenumber, which keeps the
system uniquely solvable at every k.

Several obstacles couple through smooth off-boundary kernels, so the
block system uses the singular quadrature only on diagonal blocks.  One
factorization is shared by all incident directions.
"""

from __future__ import annotations

import numpy as np

from .forward import (FarFieldMatrix, check_wavenumber, incidence_angles,
                      observation_angles)
from .geometry import Obstacle, Scene
from .specialfn import bessel_j, bessel_y

EULER_GAMMA = 0.5772156649015328606

_MIN_QUADRATURE = 32


def kress_weights(n: int) -> np.ndarray:
    """Quadrature weights for the log factor against 2n periodic points.

    R_j = -(2*pi/n) * sum_{m=1}^{n-1} cos(m s_j)/m - (pi/n^2) * cos(n s_j)
    with s_j = pi*j/n.  The returned array has length 2n and is indexed by
    the point-index difference; it is even and 2n-periodic in j.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 quadrature half-points, got {n}")
    s = np.pi * np.arange(2 * n) / n
    m = np.arange(1, n)
    series = np.sum(np.cos(np.outer(s, m)) / m, axis=1)
    return -(2.0 * np.pi / n) * series - (np.pi / n ** 2) * np.cos(n * s)


class _BoundaryData:
    """Samples of one boundary at the q equispaced parameter points."""

    def __init__(self, obstacle: Obstacle, q: int):
        t = 2.0 * np.pi * np.arange(q) / q
        self.t = t
        self.x = obstacle.position(t)
        self.dx = obstacle.derivative(t)
        self.ddx = obstacle.second_derivative(t)
        self.speed = np.linalg.norm(self.dx, axis=1)
        if np.any(self.speed <= 0.0):
            raise ValueError("boundary parametrization has a stationary point")
        # Outward for counterclockwise curves; all built-in shapes are ccw.
        self.normal = np.column_stack([self.dx[:, 1], -self.dx[:, 0]])


def _self_block(bd: _BoundaryData, k: float, eta: float) -> np.ndarray:
    """Singular quadrature discretization of the layer operators on one curve.

    Both kernels are split as K = K1 * log(4 sin^2((t - tau)/2)) + K2 with
    smooth K1, K2; the log factor gets the product weights and the smooth
    remainder the trapezoid weight pi/n.  Diagonal values are the analytic
    limits of the splits.
    """
    q = bd.t.size
    n = q // 2
    diffs = bd.x[:, None, :] - bd.x[None, :, :]
    r = np.linalg.norm(diffs, axis=2)
    np.fill_diagonal(r, 1.0)
    w = np.einsum("ijc,jc->ij", diffs, bd.normal)

    # r is bitwise symmetric (x_i - x_j and x_j - x_i differ only in
    # sign), so the Bessel values are evaluated on one triangle.
    upper = np.triu_indices(q)
    z = k * r[upper]
    j0, y0, j1, y1 = np.empty((4, q, q))
    parts = (bessel_j(0, z), bessel_y(0, z), bessel_j(1, z), bessel_y(1, z))
    for full, part in zip((j0, y0, j1, y1), parts):
        full[upper] = full.T[upper] = part
    h0 = j0 + 1j * y0
    h1 = j1 + 1j * y1

    single = 0.5j * h0 * bd.speed[None, :]
    single1 = -(1.0 / (2.0 * np.pi)) * j0 * bd.speed[None, :]
    double = 0.5j * k * h1 * w / r
    double1 = -(k / (2.0 * np.pi)) * j1 * w / r

    log_factor = np.log(4.0 * np.sin((bd.t[:, None] - bd.t[None, :]) / 2.0) ** 2
                        + np.eye(q))
    single2 = single - single1 * log_factor
    double2 = double - double1 * log_factor

    d = np.arange(q)
    single1[d, d] = -(1.0 / (2.0 * np.pi)) * bd.speed
    single2[d, d] = (0.5j - EULER_GAMMA / np.pi
                     - np.log(k * bd.speed / 2.0) / np.pi) * bd.speed
    double1[d, d] = 0.0
    double2[d, d] = (bd.ddx[:, 0] * bd.dx[:, 1]
                     - bd.ddx[:, 1] * bd.dx[:, 0]) / (2.0 * np.pi * bd.speed ** 2)

    log_weights = kress_weights(n)
    weight_matrix = log_weights[np.abs(d[:, None] - d[None, :])]
    trapezoid = np.pi / n
    return (weight_matrix * double1 + trapezoid * double2
            - 1j * eta * (weight_matrix * single1 + trapezoid * single2))


def _cross_block(target: _BoundaryData, source: _BoundaryData,
                 k: float, eta: float) -> np.ndarray:
    """Trapezoid discretization of the layer kernels between disjoint curves."""
    n = source.t.size // 2
    diffs = target.x[:, None, :] - source.x[None, :, :]
    r = np.linalg.norm(diffs, axis=2)
    w = np.einsum("ijc,jc->ij", diffs, source.normal)
    kr = k * r
    j0, y0, j1, y1 = bessel_j(0, kr), bessel_y(0, kr), bessel_j(1, kr), bessel_y(1, kr)
    single = 0.5j * (j0 + 1j * y0) * source.speed[None, :]
    double = 0.5j * k * (j1 + 1j * y1) * w / r
    return (np.pi / n) * (double - 1j * eta * single)


def _solve_farfield(scene: Scene, k: float, m: int, n: int, q: int) -> FarFieldMatrix:
    boundaries = [_BoundaryData(ob, q) for ob in scene.obstacles]
    count = len(boundaries)
    total = count * q
    eta = k

    system = np.zeros((total, total), dtype=complex)
    for b, target in enumerate(boundaries):
        rows = slice(b * q, (b + 1) * q)
        for c, source in enumerate(boundaries):
            cols = slice(c * q, (c + 1) * q)
            if b == c:
                system[rows, cols] = np.eye(q) + _self_block(target, k, eta)
            else:
                system[rows, cols] = _cross_block(target, source, k, eta)

    phi = incidence_angles(n)
    directions = np.column_stack([np.cos(phi), np.sin(phi)])
    points = np.concatenate([bd.x for bd in boundaries], axis=0)
    rhs = -2.0 * np.exp(1j * k * (points @ directions.T))

    # One LU factorization serves every incident direction.
    density = np.linalg.solve(system, rhs)

    theta = observation_angles(m)
    xhat = np.column_stack([np.cos(theta), np.sin(theta)])
    amplitude = np.exp(1j * np.pi / 4.0) / np.sqrt(8.0 * np.pi * k)
    entries = np.zeros((m, n), dtype=complex)
    for b, bd in enumerate(boundaries):
        psi = density[b * q:(b + 1) * q, :]
        phase = np.exp(-1j * k * (xhat @ bd.x.T))
        coef = -1j * k * (xhat @ bd.normal.T) - 1j * eta * bd.speed[None, :]
        entries += (np.pi / (q // 2)) * ((phase * coef) @ psi)
    return FarFieldMatrix(amplitude * entries, k)


def nystrom_farfield(scene: Scene, k: float, m: int, n: int,
                     quadrature_points: int = 128) -> FarFieldMatrix:
    """Far-field matrix of a scene of sound-soft obstacles, solved with an
    even number quadrature_points of quadrature points per boundary."""
    check_wavenumber(k)
    if quadrature_points < _MIN_QUADRATURE or quadrature_points % 2:
        raise ValueError(
            f"quadrature_points must be even and >= {_MIN_QUADRATURE}, "
            f"got {quadrature_points}")
    return _solve_farfield(scene, k, m, n, quadrature_points)
