"""Obstacles as boundary curves, scenes, and membership tests.

Obstacles are smooth closed curves (disks, ellipses, kites) traversed
counterclockwise with period 2*pi. Scenes are non-empty collections of
pairwise disjoint obstacles inside the probing square [-hw, hw]^2; the
boundary-integral solver assumes disjointness, so it is rejected at
construction rather than discovered later.

Membership for ellipses and kites counts the signed crossings of each
query point's rightward ray with a dense boundary polygon, one row of
points (one y) at a time, so a grid's rows share their edge selection;
disks are answered analytically.  The scene check runs the same test on
each pair of boundaries, both ways.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Union

import numpy as np

# Boundary samples of the polygon in the membership test. Points closer to
# the boundary than the sample spacing may be misclassified; the probing
# grids used here are far coarser than that.
_WINDING_SAMPLES = 2048
# Samples per boundary for scene validation (disjointness, containment).
_VALIDATION_SAMPLES = 512


def _stack(x, y):
    return np.stack([x, y], axis=-1)


def _check_fields(obstacle) -> None:
    """Finite fields, positive sizes, a 2-vector center; else ValueError naming it."""
    for spec in fields(obstacle):
        value = getattr(obstacle, spec.name)
        if spec.name == "center" and np.shape(value) != (2,):
            raise ValueError(f"center must have two coordinates, got {value!r}")
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{spec.name} must be finite, got {value!r}")
        if spec.name not in ("center", "rotation") and not value > 0:
            raise ValueError(f"{spec.name} must be > 0, got {value!r}")


# Each obstacle is its own counterclockwise boundary curve, period 2*pi:
# position, derivative and second derivative map an array of parameters
# t to an array of shape t.shape + (2,).

@dataclass(frozen=True)
class Disk:
    center: tuple[float, float]
    radius: float

    __post_init__ = _check_fields

    def position(self, t):
        return np.add(self.center, self.radius * _stack(np.cos(t), np.sin(t)))

    def derivative(self, t):
        return self.radius * _stack(-np.sin(t), np.cos(t))

    def second_derivative(self, t):
        return -self.radius * _stack(np.cos(t), np.sin(t))


@dataclass(frozen=True)
class Ellipse:
    center: tuple[float, float]
    semi_axis_a: float
    semi_axis_b: float
    rotation: float = 0.0

    __post_init__ = _check_fields

    def _rotate(self, x, y):
        cr, sr = np.cos(self.rotation), np.sin(self.rotation)
        return _stack(x, y) @ np.array([[cr, -sr], [sr, cr]]).T

    def position(self, t):
        a, b = self.semi_axis_a, self.semi_axis_b
        return np.add(self.center, self._rotate(a * np.cos(t), b * np.sin(t)))

    def derivative(self, t):
        a, b = self.semi_axis_a, self.semi_axis_b
        return self._rotate(-a * np.sin(t), b * np.cos(t))

    def second_derivative(self, t):
        a, b = self.semi_axis_a, self.semi_axis_b
        return self._rotate(-a * np.cos(t), -b * np.sin(t))


@dataclass(frozen=True)
class Kite:
    """Colton-Kress kite scaled by `scale` and translated to `center`.

    Table entries quoting a kite "radius" are read as this scale factor.
    """

    center: tuple[float, float]
    scale: float

    __post_init__ = _check_fields

    def position(self, t):
        x = np.cos(t) + 0.65 * np.cos(2 * t) - 0.65
        return np.add(self.center, self.scale * _stack(x, 1.5 * np.sin(t)))

    def derivative(self, t):
        x = -np.sin(t) - 1.3 * np.sin(2 * t)
        return self.scale * _stack(x, 1.5 * np.cos(t))

    def second_derivative(self, t):
        x = -np.cos(t) - 2.6 * np.cos(2 * t)
        return self.scale * _stack(x, -1.5 * np.sin(t))


Obstacle = Union[Disk, Ellipse, Kite]


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
        samples = [ob.position(t) for ob in self.obstacles]
        hw = self.domain_halfwidth
        for ob, pts in zip(self.obstacles, samples):
            if np.any(np.abs(pts) > hw):
                raise ValueError(
                    f"{type(ob).__name__} at {ob.center} leaves the probing "
                    f"domain [-{hw}, {hw}]^2"
                )
        for i in range(len(samples)):
            for j in range(i + 1, len(samples)):
                # Any sample of one curve inside or on the other; an exactly
                # shared sample is on both.
                if (_inside_or_on(samples[i], samples[j]).any()
                        or _inside_or_on(samples[j], samples[i]).any()):
                    raise ValueError(f"obstacles {i} and {j} overlap")


def _inside_or_on(boundary: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Closed-set membership in the polygon through a sampled closed curve.

    boundary: (S, 2) samples in traversal order; points: (P, 2).
    Returns a boolean array (P,): the winding number is nonzero, or the
    point lies on a sample or an edge (cross = 0, dot <= 0).  The winding
    number counts the edges crossing the point's rightward ray, +1 upward
    and -1 downward (Sunday's rule; Hormann & Agathos, Comput. Geom. 20,
    2001).  Points sharing a y share their candidate edges, so a grid's
    edges are selected once per row.
    """
    bx, by = np.ascontiguousarray(boundary.T)
    nx, ny = np.roll(bx, -1), np.roll(by, -1)
    low, high = np.minimum(by, ny), np.maximum(by, ny)
    rows, row_of = np.unique(points[:, 1], return_inverse=True)
    order = np.argsort(row_of, kind="stable")
    starts = np.searchsorted(row_of[order], np.arange(rows.size + 1))
    inside = np.zeros(points.shape[0], dtype=bool)
    for r, y in enumerate(rows):
        edges = np.flatnonzero((low <= y) & (y <= high))
        if edges.size == 0:
            continue
        members = order[starts[r]:starts[r + 1]]
        px = points[members, 0, None]
        vy, vny = by[edges] - y, ny[edges] - y
        vx, vnx = bx[edges] - px, nx[edges] - px
        cross = vx * vny - vy * vnx
        dot = vx * vnx + vy * vny
        up, down = (vy <= 0.0) & (vny > 0.0), (vny <= 0.0) & (vy > 0.0)
        winding = (np.count_nonzero(up & (cross > 0.0), axis=1)
                   - np.count_nonzero(down & (cross < 0.0), axis=1))
        on_polygon = np.any((cross == 0.0) & (dot <= 0.0), axis=1)
        inside[members] = (winding != 0) | on_polygon
    return inside


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
            inside |= _inside_or_on(ob.position(t), points)
    return inside

