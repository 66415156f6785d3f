"""Obstacle shapes as boundary curves, and membership tests."""

import numpy as np
import pytest

from lsmnet.geometry import (Disk, Ellipse, Kite, Scene, _inside_or_on,
                             contains_mask)
from lsmnet.regsolve import SamplingGrid


def _boundary_distance(scene, points, samples):
    """Distance to the nearest of `samples` boundary points per obstacle."""
    t = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    dmin = np.full(points.shape[0], np.inf)
    for ob in scene.obstacles:
        boundary = ob.position(t)
        d2 = np.sum((points[:, None, :] - boundary[None, :, :]) ** 2, axis=-1)
        dmin = np.minimum(dmin, np.sqrt(np.min(d2, axis=1)))
    return dmin


def _reference_winding(boundary, points):
    """The winding number as an angle sum over one (P, S, 2) difference
    array and its rolled copy, 1 on the closed polygon: the oracle for
    `_inside_or_on`, which is its `abs(winding) > 0.5`."""
    v = boundary[None, :, :] - points[:, None, :]
    vn = np.roll(v, -1, axis=1)
    cross = v[:, :, 0] * vn[:, :, 1] - v[:, :, 1] * vn[:, :, 0]
    dot = v[:, :, 0] * vn[:, :, 0] + v[:, :, 1] * vn[:, :, 1]
    winding = np.sum(np.arctan2(cross, dot), axis=1) / (2.0 * np.pi)
    on_polygon = np.any((cross == 0.0) & (dot <= 0.0), axis=1)
    return np.where(on_polygon, 1.0, winding)


def _reference_inside(boundary, points):
    """`abs(_reference_winding) > 0.5`, in blocks of rows that only bound
    memory; each row is independent."""
    rows = max(1, (1 << 20) // boundary.shape[0])
    inside = np.zeros(points.shape[0], dtype=bool)
    for lo in range(0, points.shape[0], rows):
        winding = _reference_winding(boundary, points[lo:lo + rows])
        inside[lo:lo + rows] = np.abs(winding) > 0.5
    return inside


def _unfiltered_mask(scene, points, samples=2048):
    """Membership with the reference winding test run on every point."""
    t = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    inside = np.zeros(points.shape[0], dtype=bool)
    for ob in scene.obstacles:
        if isinstance(ob, Disk):
            inside |= np.hypot(points[:, 0] - ob.center[0],
                               points[:, 1] - ob.center[1]) <= ob.radius
        else:
            inside |= _reference_inside(ob.position(t), points)
    return inside


def _bounding_box_points(scene):
    """Points exactly on each side of each winding-tested obstacle's box:
    the extreme boundary samples, the corners and the side midpoints."""
    t = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    extra = []
    for ob in scene.obstacles:
        if isinstance(ob, Disk):
            continue
        boundary = ob.position(t)
        (x0, y0), (x1, y1) = boundary.min(axis=0), boundary.max(axis=0)
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        extra.append(boundary[[np.argmin(boundary[:, 0]),
                               np.argmax(boundary[:, 0]),
                               np.argmin(boundary[:, 1]),
                               np.argmax(boundary[:, 1])]])
        extra.append([[x0, y0], [x0, y1], [x1, y0], [x1, y1],
                      [x0, ym], [x1, ym], [xm, y0], [xm, y1]])
    return np.vstack(extra)


def _reference_curve(obstacle):
    """The closures each obstacle's boundary curve was once built from:
    the oracle for the `position`, `derivative` and `second_derivative`
    methods, which keep their expressions and order of operations."""
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

        return pos, der, der2

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

        return pos, der, der2

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

    return pos, der, der2


@pytest.mark.parametrize("obstacle", [
    Disk(center=(0.4, -0.3), radius=0.9),
    Kite(center=(0.2, 0.1), scale=0.8),
    Ellipse(center=(0.7, -0.4), semi_axis_a=1.3, semi_axis_b=0.6),
    Ellipse(center=(0.7, -0.4), semi_axis_a=1.3, semi_axis_b=0.6,
            rotation=0.3),
], ids=["disk", "kite", "ellipse", "rotated-ellipse"])
def test_curve_methods_are_bitwise_the_reference(obstacle):
    """At the quadrature nodes (q = 32 and 128), the mask's and the scene
    check's samples, and off-grid parameters."""
    t = np.concatenate([2.0 * np.pi * np.arange(q) / q for q in (32, 128)]
                       + [np.linspace(0.0, 2.0 * np.pi, samples,
                                      endpoint=False)
                          for samples in (512, 2048)]
                       + [np.random.default_rng(5).uniform(-7.0, 7.0, 99)])
    methods = (obstacle.position, obstacle.derivative,
               obstacle.second_derivative)
    for method, reference in zip(methods, _reference_curve(obstacle)):
        got, want = method(t), reference(t)
        assert got.shape == want.shape == t.shape + (2,)
        assert np.array_equal(got, want), method.__name__
        assert got.tobytes() == want.tobytes(), method.__name__


def test_disk_parametrization_points():
    bd = Disk(center=(0.0, 0.0), radius=1.0)
    np.testing.assert_allclose(bd.position(np.array(0.0)), [1.0, 0.0],
                               atol=1e-15)
    np.testing.assert_allclose(bd.position(np.array(np.pi / 2)), [0.0, 1.0],
                               atol=1e-15)


def test_kite_parametrization_at_zero():
    # cos 0 + 0.65 cos 0 - 0.65 = 1, 1.5 sin 0 = 0
    bd = Kite(center=(0.0, 0.0), scale=1.0)
    np.testing.assert_allclose(bd.position(np.array(0.0)), [1.0, 0.0],
                               atol=1e-15)
    scaled = Kite(center=(0.5, -0.5), scale=2.0)
    np.testing.assert_allclose(scaled.position(np.array(0.0)), [2.5, -0.5],
                               atol=1e-15)


def test_ellipse_parametrization_points():
    bd = Ellipse(center=(0.0, 0.0), semi_axis_a=2.0, semi_axis_b=1.0)
    np.testing.assert_allclose(bd.position(np.array(np.pi / 2)), [0.0, 1.0],
                               atol=1e-15)
    rotated = Ellipse(center=(0.0, 0.0), semi_axis_a=2.0, semi_axis_b=1.0,
                      rotation=np.pi / 2)
    np.testing.assert_allclose(rotated.position(np.array(0.0)), [0.0, 2.0],
                               atol=1e-14)


def test_parametrization_closure_and_regularity():
    shapes = (Disk(center=(0.3, -0.1), radius=0.7),
              Ellipse(center=(0.0, 0.0), semi_axis_a=1.5, semi_axis_b=0.6,
                      rotation=0.4),
              Kite(center=(-0.2, 0.5), scale=0.8))
    t = np.linspace(0.0, 2.0 * np.pi, 257)
    for bd in shapes:
        np.testing.assert_allclose(bd.position(np.array(0.0)),
                                   bd.position(np.array(2.0 * np.pi)),
                                   atol=1e-12)
        speed = np.linalg.norm(bd.derivative(t), axis=-1)
        assert np.all(speed > 0.0)


def test_derivative_matches_finite_differences():
    t = np.linspace(0.1, 2.0 * np.pi - 0.1, 50)
    step = 1e-6
    for bd in (Disk(center=(0.0, 0.0), radius=1.3),
               Ellipse(center=(0.5, 0.0), semi_axis_a=1.2,
                       semi_axis_b=0.7, rotation=0.9),
               Kite(center=(0.0, 0.0), scale=1.0)):
        fd = (bd.position(t + step) - bd.position(t - step)) / (2.0 * step)
        np.testing.assert_allclose(bd.derivative(t), fd, rtol=1e-8,
                                   atol=1e-8)
        fd2 = (bd.derivative(t + step)
               - bd.derivative(t - step)) / (2.0 * step)
        np.testing.assert_allclose(bd.second_derivative(t), fd2, rtol=1e-7,
                                   atol=1e-6)


def test_counterclockwise_orientation():
    """Shoelace area from the parametrization is positive for all shapes."""
    t = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    for shape in (Disk(center=(0.0, 0.0), radius=1.0),
                  Ellipse(center=(0.0, 0.0), semi_axis_a=2.0,
                          semi_axis_b=0.5, rotation=1.1),
                  Kite(center=(0.0, 0.0), scale=1.0)):
        x = shape.position(t)
        dx = shape.derivative(t)
        area = 0.5 * np.mean(x[:, 0] * dx[:, 1] - x[:, 1] * dx[:, 0]) \
            * 2.0 * np.pi
        assert area > 0.0, shape


def test_contains_disk_points():
    scene = Scene(obstacles=(Disk(center=(0.0, 0.0), radius=1.0),))
    assert contains_mask(scene, np.array([[0.0, 0.0]]))[0]
    assert not contains_mask(scene, np.array([[2.0, 0.0]]))[0]


def test_contains_kite_left_of_tail():
    scene = Scene(obstacles=(Kite(center=(0.0, 0.0), scale=1.0),))
    assert not contains_mask(scene, np.array([[-1.2, 0.0]]))[0]
    assert contains_mask(scene, np.array([[0.2, 0.0]]))[0]


def test_disk_mask_matches_analytic_on_grid():
    center = (0.4, -0.3)
    radius = 0.9
    scene = Scene(obstacles=(Disk(center=center, radius=radius),))
    axis = np.linspace(-4.0, 4.0, 100)
    xx, yy = np.meshgrid(axis, axis)
    points = np.column_stack([xx.ravel(), yy.ravel()])
    expected = (points[:, 0] - center[0]) ** 2 \
        + (points[:, 1] - center[1]) ** 2 <= radius ** 2
    np.testing.assert_array_equal(contains_mask(scene, points), expected)


def test_winding_mask_against_dense_oracle():
    """Kite membership agrees with a 4096-sample winding evaluation."""
    scene = Scene(obstacles=(Kite(center=(0.2, 0.1), scale=0.8),))
    rng = np.random.default_rng(11)
    points = rng.uniform(-2.0, 2.0, size=(400, 2))
    # Keep clear of the boundary: both sample counts must agree there.
    keep = _boundary_distance(scene, points, samples=4096) > 0.05
    points = points[keep]
    coarse = contains_mask(scene, points)
    dense = contains_mask(scene, points, samples=4096)
    np.testing.assert_array_equal(coarse, dense)


_KITE = Kite(center=(0.0, 0.0), scale=0.8)
_ELLIPSE = Ellipse(center=(0.7, -0.4), semi_axis_a=1.3, semi_axis_b=0.6,
                   rotation=0.5)
_LARGE_ELLIPSE = Ellipse(center=(1.2, -0.8), semi_axis_a=2.0,
                         semi_axis_b=1.1, rotation=0.3)
# Its right-side box midpoint is 1 ulp off the t = 0 sample, and outside.
_OFF_CENTRE_KITE = Kite(center=(0.5, -0.3), scale=1.4)
_SCENES = {
    "kite": (_KITE,),
    "ellipse": (_ELLIPSE,),
    "three": (Kite(center=(-1.8, 1.5), scale=0.7), _LARGE_ELLIPSE,
              Disk(center=(-2.0, -2.5), radius=0.6)),
    "kite-ellipse": (Kite(center=(-1.8, 1.5), scale=0.7), _ELLIPSE),
    "off-centre-kite": (_OFF_CENTRE_KITE,),
}
_SCENE_GRIDS = ([(name, res) for name in ("kite", "ellipse", "three")
                 for res in (7, 100, 200)]
                + [(name, res) for name in ("kite-ellipse", "off-centre-kite")
                   for res in (7, 101)])


@pytest.mark.parametrize("name, resolution", _SCENE_GRIDS,
                         ids=[f"{name}-{res}" for name, res in _SCENE_GRIDS])
def test_mask_matches_unfiltered_winding(name, resolution):
    """The mask is the reference winding test's on every grid point and on
    the points exactly on each side of each obstacle's bounding box."""
    scene = Scene(obstacles=_SCENES[name])
    points = np.vstack([SamplingGrid.make(4.0, resolution).points,
                        _bounding_box_points(scene)])
    expected = _unfiltered_mask(scene, points)
    assert expected.any()
    np.testing.assert_array_equal(contains_mask(scene, points), expected)


@pytest.mark.parametrize("obstacle", [_KITE, _ELLIPSE, _LARGE_ELLIPSE],
                         ids=["kite", "ellipse", "large-ellipse"])
def test_boundary_samples_are_inside(obstacle):
    """The membership test is the closed set, as for disks and the training
    labels: every boundary sample is inside, the extreme ones of the
    bounding box included, where a crossing count alone would hinge on
    the half-open rule for edge ends."""
    t = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    boundary = obstacle.position(t)
    extremes = boundary[[np.argmin(boundary[:, 0]), np.argmax(boundary[:, 0]),
                         np.argmin(boundary[:, 1]), np.argmax(boundary[:, 1])]]
    assert _inside_or_on(boundary, extremes).all()
    assert _inside_or_on(boundary, boundary).all()
    scene = Scene(obstacles=(obstacle,))
    assert contains_mask(scene, extremes).all()
    assert contains_mask(scene, boundary).all()


@pytest.mark.parametrize("resolution", [7, 10, 99, 100, 101, 200, 333])
@pytest.mark.parametrize("obstacle", [_KITE, _ELLIPSE, _LARGE_ELLIPSE,
                                      _OFF_CENTRE_KITE],
                         ids=["kite", "ellipse", "large-ellipse",
                              "off-centre-kite"])
def test_winding_bitwise_equal_to_reference(obstacle, resolution):
    """The crossing-count membership is the reference winding test's, bit
    for bit, on the grid, the bounding box's sides and every boundary
    sample.  The reference runs on the points inside the closed box;
    outside it both are False."""
    t = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    boundary = obstacle.position(t)
    points = np.vstack([SamplingGrid.make(4.0, resolution).points,
                        _bounding_box_points(Scene(obstacles=(obstacle,)))])
    in_box = np.all((boundary.min(axis=0) <= points)
                    & (points <= boundary.max(axis=0)), axis=1)
    expected = np.zeros(points.shape[0], dtype=bool)
    expected[in_box] = _reference_inside(boundary, points[in_box])
    assert expected.any() and not expected.all()
    got = _inside_or_on(boundary, points)
    assert got.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(_inside_or_on(boundary, boundary),
                                  _reference_inside(boundary, boundary))


@pytest.mark.parametrize("samples", [2048, 3000, 32769])
def test_mask_with_sample_counts(samples):
    """The mask is the reference's at any sample count: 2048, one that is
    not a power of two, and more samples than the grid has points."""
    points = SamplingGrid.make(4.0, 100 if samples < 10_000 else 40).points
    scene = Scene(obstacles=(_LARGE_ELLIPSE,))
    expected = _unfiltered_mask(scene, points, samples)
    assert expected.any() and not expected.all()
    np.testing.assert_array_equal(contains_mask(scene, points, samples),
                                  expected)


def _random_obstacle(rng):
    center = tuple(rng.uniform(-2.5, 2.5, 2))
    kind = rng.integers(3)
    if kind == 0:
        return Disk(center=center, radius=rng.uniform(0.2, 1.0))
    if kind == 1:
        return Ellipse(center=center, semi_axis_a=rng.uniform(0.2, 1.2),
                       semi_axis_b=rng.uniform(0.2, 1.2),
                       rotation=rng.uniform(0.0, np.pi))
    return Kite(center=center, scale=rng.uniform(0.2, 0.9))


@pytest.mark.parametrize("seed", range(24))
def test_random_scene_mask_matches_reference(seed):
    """Seeded random scenes of two or three obstacles: the mask is the
    reference's on scattered points (every y distinct), a grid and the
    bounding boxes' sides."""
    rng = np.random.default_rng(seed)
    while True:
        obstacles = [_random_obstacle(rng) for _ in range(rng.integers(2, 4))]
        try:
            scene = Scene(obstacles=obstacles)
        except ValueError:
            continue
        if not all(isinstance(ob, Disk) for ob in obstacles):
            break
    points = np.vstack([rng.uniform(-4.0, 4.0, size=(600, 2)),
                        SamplingGrid.make(4.0, 25).points,
                        _bounding_box_points(scene)])
    expected = _unfiltered_mask(scene, points)
    assert expected.any()
    np.testing.assert_array_equal(contains_mask(scene, points), expected)


def test_shared_vertex_counts_as_overlap():
    """Two squares that share exactly one corner, and are otherwise outside
    each other: the corner is on both, so each finds the other."""
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    corner_to_corner = square + 1.0
    np.testing.assert_array_equal(_inside_or_on(square, corner_to_corner),
                                  [True, False, False, False])
    np.testing.assert_array_equal(_inside_or_on(corner_to_corner, square),
                                  [False, False, True, False])


def _reference_scene_verdict(obstacles, hw=4.0, samples=512):
    """The scene check as a distance rule (a shared sample) plus the
    reference winding test both ways: True when the scene is valid."""
    t = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    curves = [ob.position(t) for ob in obstacles]
    if any(np.any(np.abs(curve) > hw) for curve in curves):
        return False
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            d2 = np.sum((curves[i][:, None, :] - curves[j][None, :, :]) ** 2,
                        axis=-1)
            if (np.min(d2) == 0.0
                    or _reference_inside(curves[i], curves[j]).any()
                    or _reference_inside(curves[j], curves[i]).any()):
                return False
    return True


def test_scene_verdicts_match_reference():
    """Seeded random two-obstacle scenes, some overlapping, some nested
    and some apart: `Scene` accepts exactly those the reference check
    accepts."""
    rng = np.random.default_rng(2024)
    verdicts = []
    for _ in range(80):
        obstacles = (_random_obstacle(rng), _random_obstacle(rng))
        try:
            Scene(obstacles=obstacles)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == _reference_scene_verdict(obstacles), obstacles
        verdicts.append(accepted)
    assert 10 <= sum(verdicts) <= 70


def test_scene_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Disk(center=(0.0, 0.0), radius=0.0)
    with pytest.raises(ValueError):
        Ellipse(center=(0.0, 0.0), semi_axis_a=-1.0, semi_axis_b=1.0)
    with pytest.raises(ValueError):
        Kite(center=(0.0, 0.0), scale=-0.5)
    with pytest.raises(ValueError):
        Scene(obstacles=())


@pytest.mark.parametrize("make, match", [
    (lambda v: Disk(center=(v, 0.0), radius=1.0), "center must be finite"),
    (lambda v: Disk(center=(0.0, v), radius=1.0), "center must be finite"),
    (lambda v: Disk(center=(0.0, 0.0), radius=v), "radius must be"),
    (lambda v: Ellipse(center=(v, 0.0), semi_axis_a=1.0, semi_axis_b=0.5),
     "center must be finite"),
    (lambda v: Ellipse(center=(0.0, 0.0), semi_axis_a=v, semi_axis_b=0.5),
     "semi_axis_a must be"),
    (lambda v: Ellipse(center=(0.0, 0.0), semi_axis_a=1.0, semi_axis_b=v),
     "semi_axis_b must be"),
    (lambda v: Ellipse(center=(0.0, 0.0), semi_axis_a=1.0, semi_axis_b=0.5,
                       rotation=v), "rotation must be finite"),
    (lambda v: Kite(center=(0.0, v), scale=0.8), "center must be finite"),
    (lambda v: Kite(center=(0.0, 0.0), scale=v), "scale must be"),
], ids=["disk-cx", "disk-cy", "disk-radius", "ellipse-cx", "ellipse-a",
        "ellipse-b", "ellipse-rotation", "kite-cy", "kite-scale"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_obstacles_refuse_non_finite_fields_by_name(make, match, value):
    with pytest.raises(ValueError, match=f"{match}.*got .*{value}"):
        make(value)


@pytest.mark.parametrize("make, match", [
    (lambda: Disk(center=(0.0, 0.0), radius=-1.0), "radius must be > 0, got -1.0"),
    (lambda: Ellipse(center=(0.0, 0.0), semi_axis_a=1.0, semi_axis_b=0.0),
     "semi_axis_b must be > 0, got 0.0"),
    (lambda: Kite(center=(0.0, 0.0), scale=-0.5), "scale must be > 0, got -0.5"),
], ids=["disk", "ellipse", "kite"])
def test_obstacles_name_a_non_positive_size(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("center", [(1.0,), (0.0, 0.0, 0.0)], ids=["1", "3"])
@pytest.mark.parametrize("make", [
    lambda c: Disk(center=c, radius=0.5),
    lambda c: Ellipse(center=c, semi_axis_a=1.0, semi_axis_b=0.5),
    lambda c: Kite(center=c, scale=0.8),
], ids=["disk", "ellipse", "kite"])
def test_obstacles_refuse_a_center_without_two_coordinates(make, center):
    with pytest.raises(ValueError, match="center must have two coordinates"):
        make(center)


def test_scene_rejects_overlap_and_escape():
    with pytest.raises(ValueError):
        Scene(obstacles=(Disk(center=(0.0, 0.0), radius=1.0),
                         Disk(center=(1.0, 0.0), radius=1.0)))
    with pytest.raises(ValueError):
        Scene(obstacles=(Disk(center=(3.9, 0.0), radius=0.5),))
    # Disjoint and contained is fine.
    Scene(obstacles=(Disk(center=(-1.5, 0.0), radius=0.6),
                     Disk(center=(1.5, 0.0), radius=0.6)))


def test_nested_boundaries_rejected():
    """A boundary strictly inside another is not a valid scene, in either
    order."""
    with pytest.raises(ValueError):
        Scene(obstacles=(Disk(center=(0.0, 0.0), radius=1.5),
                         Disk(center=(0.0, 0.0), radius=0.3)))
    with pytest.raises(ValueError):
        Scene(obstacles=(Kite(center=(0.2, 0.0), scale=0.3),
                         Ellipse(center=(0.0, 0.0), semi_axis_a=1.6,
                                 semi_axis_b=1.2)))
