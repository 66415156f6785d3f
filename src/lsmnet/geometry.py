"""Obstacle scenes, boundary parametrizations, and membership tests.

Obstacles are smooth closed curves (disks, ellipses, kites) traversed
counterclockwise with period 2*pi. Scenes are non-empty collections of
pairwise disjoint obstacles inside the probing square [-hw, hw]^2; the
boundary-integral solver assumes disjointness, so it is rejected at
construction rather than discovered later.

Membership for ellipses and kites uses a winding-number test on a dense
boundary polygon, run only on the query points inside the polygon's
bounding box (outside it the winding number is 0); disks are answered
analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

# Boundary samples used by the winding-number membership test. Points closer
# to the boundary than the sample spacing may be misclassified; the probing
# grids used here are far coarser than that.
_WINDING_SAMPLES = 2048
# Samples per boundary for scene validation (disjointness, containment).
_VALIDATION_SAMPLES = 512
# Boundary-sample/point pairs per block of the winding test: 256 kB per
# float64 temporary, so a block's temporaries stay in L2.
_WINDING_BLOCK = 1 << 15


@dataclass(frozen=True)
class Disk:
    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")


@dataclass(frozen=True)
class Ellipse:
    center: tuple[float, float]
    semi_axis_a: float
    semi_axis_b: float
    rotation: float = 0.0

    def __post_init__(self):
        if not (self.semi_axis_a > 0 and self.semi_axis_b > 0):
            raise ValueError("semi-axes must be > 0")


@dataclass(frozen=True)
class Kite:
    """Colton-Kress kite scaled by `scale` and translated to `center`.

    Table entries quoting a kite "radius" are read as this scale factor.
    """

    center: tuple[float, float]
    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")


Obstacle = Union[Disk, Ellipse, Kite]


@dataclass(frozen=True)
class BoundaryParametrization:
    """Closed regular curve t -> x(t), period 2*pi, with analytic derivatives."""

    position: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    second_derivative: Callable[[np.ndarray], np.ndarray]


def parametrize(obstacle: Obstacle) -> BoundaryParametrization:
    """Counterclockwise boundary parametrization of a single obstacle.

    Position and derivative maps accept an array of parameters t and return
    arrays of shape t.shape + (2,).
    """
    if isinstance(obstacle, Disk):
        c = np.asarray(obstacle.center, dtype=float)
        R = float(obstacle.radius)

        def pos(t):
            t = np.asarray(t, dtype=float)
            return c + R * np.stack([np.cos(t), np.sin(t)], axis=-1)

        def der(t):
            t = np.asarray(t, dtype=float)
            return R * np.stack([-np.sin(t), np.cos(t)], axis=-1)

        def der2(t):
            t = np.asarray(t, dtype=float)
            return -R * np.stack([np.cos(t), np.sin(t)], axis=-1)

        return BoundaryParametrization(pos, der, der2)

    if isinstance(obstacle, Ellipse):
        c = np.asarray(obstacle.center, dtype=float)
        a, b = float(obstacle.semi_axis_a), float(obstacle.semi_axis_b)
        cr, sr = np.cos(obstacle.rotation), np.sin(obstacle.rotation)
        rot = np.array([[cr, -sr], [sr, cr]])

        def pos(t):
            t = np.asarray(t, dtype=float)
            xy = np.stack([a * np.cos(t), b * np.sin(t)], axis=-1)
            return c + xy @ rot.T

        def der(t):
            t = np.asarray(t, dtype=float)
            xy = np.stack([-a * np.sin(t), b * np.cos(t)], axis=-1)
            return xy @ rot.T

        def der2(t):
            t = np.asarray(t, dtype=float)
            xy = np.stack([-a * np.cos(t), -b * np.sin(t)], axis=-1)
            return xy @ rot.T

        return BoundaryParametrization(pos, der, der2)

    if isinstance(obstacle, Kite):
        c = np.asarray(obstacle.center, dtype=float)
        s = float(obstacle.scale)

        def pos(t):
            t = np.asarray(t, dtype=float)
            x = np.cos(t) + 0.65 * np.cos(2 * t) - 0.65
            y = 1.5 * np.sin(t)
            return c + s * np.stack([x, y], axis=-1)

        def der(t):
            t = np.asarray(t, dtype=float)
            x = -np.sin(t) - 1.3 * np.sin(2 * t)
            y = 1.5 * np.cos(t)
            return s * np.stack([x, y], axis=-1)

        def der2(t):
            t = np.asarray(t, dtype=float)
            x = -np.cos(t) - 2.6 * np.cos(2 * t)
            y = -1.5 * np.sin(t)
            return s * np.stack([x, y], axis=-1)

        return BoundaryParametrization(pos, der, der2)

    raise TypeError(f"unknown obstacle type {type(obstacle).__name__}")


@dataclass(frozen=True)
class Scene:
    """Non-empty collection of pairwise disjoint obstacles inside the domain.

    Parameters
    ----------
    obstacles : tuple of Obstacle
    domain_halfwidth : float
        Half-width of the probing square the scene must fit inside.
    """

    obstacles: tuple[Obstacle, ...]
    domain_halfwidth: float = 4.0

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        if len(self.obstacles) == 0:
            raise ValueError("scene must contain at least one obstacle")
        if not self.domain_halfwidth > 0:
            raise ValueError("domain_halfwidth must be > 0")
        t = np.linspace(0.0, 2.0 * np.pi, _VALIDATION_SAMPLES, endpoint=False)
        samples = [parametrize(ob).position(t) for ob in self.obstacles]
        hw = self.domain_halfwidth
        for ob, pts in zip(self.obstacles, samples):
            if np.any(np.abs(pts) > hw):
                raise ValueError(
                    f"{type(ob).__name__} at {ob.center} leaves the probing "
                    f"domain [-{hw}, {hw}]^2"
                )
        for i in range(len(samples)):
            for j in range(i + 1, len(samples)):
                d2 = np.sum((samples[i][:, None, :] - samples[j][None, :, :]) ** 2, axis=-1)
                if np.min(d2) == 0.0 or _boundaries_cross(samples[i], samples[j]):
                    raise ValueError(f"obstacles {i} and {j} overlap")


def _boundaries_cross(a: np.ndarray, b: np.ndarray) -> bool:
    # Disjointness via winding: any vertex of one curve inside the other.
    return bool(
        np.any(np.abs(_winding(a, b)) > 0.5) or np.any(np.abs(_winding(b, a)) > 0.5)
    )


def _winding(boundary: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Winding number of a closed sampled curve around each query point.

    boundary: (S, 2) samples in traversal order; points: (P, 2).
    Returns a float array (P,), ~ +1 inside a counterclockwise curve.
    The polygon is a closed set: a point on a sample or exactly on an
    edge (cross = 0, dot <= 0) gets winding 1, where the angle sum alone
    would hinge on the signs of zeros.
    """
    bx, by = np.ascontiguousarray(boundary.T)
    nx, ny = np.roll(bx, -1), np.roll(by, -1)
    winding = np.empty(points.shape[0])
    # Blocks of whole point rows keep the passes in cache; a row's angle
    # sum does not depend on the block height.
    rows = max(1, _WINDING_BLOCK // bx.size)
    for lo in range(0, points.shape[0], rows):
        px, py = points[lo:lo + rows, 0, None], points[lo:lo + rows, 1, None]
        vx, vy, vnx, vny = bx - px, by - py, nx - px, ny - py
        cross = vx * vny - vy * vnx
        dot = vx * vnx + vy * vny
        on_polygon = np.any((cross == 0.0) & (dot <= 0.0), axis=1)
        total = np.sum(np.arctan2(cross, dot), axis=1) / (2.0 * np.pi)
        winding[lo:lo + rows] = np.where(on_polygon, 1.0, total)
    return winding


def contains_mask(scene: Scene, points: np.ndarray, samples: int = _WINDING_SAMPLES) -> np.ndarray:
    """Vectorized membership over an array of query points of shape (P, 2)."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    inside = np.zeros(points.shape[0], dtype=bool)
    t = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    for ob in scene.obstacles:
        if isinstance(ob, Disk):
            d = np.hypot(points[:, 0] - ob.center[0], points[:, 1] - ob.center[1])
            inside |= d <= ob.radius
        else:
            boundary = parametrize(ob).position(t)
            # The winding number is 0 outside the closed bounding box, so
            # only points inside it need the test.
            low, high = boundary.min(axis=0), boundary.max(axis=0)
            candidates = np.flatnonzero(np.all((low <= points) & (points <= high), axis=1))
            inside[candidates] |= np.abs(_winding(boundary, points[candidates])) > 0.5
    return inside

