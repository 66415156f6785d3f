"""Obstacle shapes, boundary parametrizations, and membership tests."""

import numpy as np
import pytest

from lsmnet.geometry import (_WINDING_BLOCK, Disk, Ellipse, Kite, Scene,
                             _winding, contains_mask, parametrize)
from lsmnet.regsolve import SamplingGrid


def _boundary_distance(scene, points, samples):
    """Distance to the nearest of `samples` boundary points per obstacle."""
    t = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    dmin = np.full(points.shape[0], np.inf)
    for ob in scene.obstacles:
        boundary = parametrize(ob).position(t)
        d2 = np.sum((points[:, None, :] - boundary[None, :, :]) ** 2, axis=-1)
        dmin = np.minimum(dmin, np.sqrt(np.min(d2, axis=1)))
    return dmin


def _reference_winding(boundary, points):
    """The winding test as one (P, S, 2) difference array and its rolled
    copy, with no blocking: the oracle for `_winding`."""
    v = boundary[None, :, :] - points[:, None, :]
    vn = np.roll(v, -1, axis=1)
    cross = v[:, :, 0] * vn[:, :, 1] - v[:, :, 1] * vn[:, :, 0]
    dot = v[:, :, 0] * vn[:, :, 0] + v[:, :, 1] * vn[:, :, 1]
    winding = np.sum(np.arctan2(cross, dot), axis=1) / (2.0 * np.pi)
    on_polygon = np.any((cross == 0.0) & (dot <= 0.0), axis=1)
    return np.where(on_polygon, 1.0, winding)


def _unfiltered_mask(scene, points, samples=2048):
    """Membership with the reference winding test run on every point, no
    prefilter."""
    t = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    inside = np.zeros(points.shape[0], dtype=bool)
    for ob in scene.obstacles:
        if isinstance(ob, Disk):
            inside |= np.hypot(points[:, 0] - ob.center[0],
                               points[:, 1] - ob.center[1]) <= ob.radius
            continue
        boundary = parametrize(ob).position(t)
        # Blocks of 1000 rows only bound memory; each row is independent.
        for lo in range(0, points.shape[0], 1000):
            winding = _reference_winding(boundary, points[lo:lo + 1000])
            inside[lo:lo + 1000] |= np.abs(winding) > 0.5
    return inside


def _bounding_box_points(scene):
    """Points exactly on each side of each winding-tested obstacle's box:
    the extreme boundary samples, the corners and the side midpoints."""
    t = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    extra = []
    for ob in scene.obstacles:
        if isinstance(ob, Disk):
            continue
        boundary = parametrize(ob).position(t)
        (x0, y0), (x1, y1) = boundary.min(axis=0), boundary.max(axis=0)
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        extra.append(boundary[[np.argmin(boundary[:, 0]),
                               np.argmax(boundary[:, 0]),
                               np.argmin(boundary[:, 1]),
                               np.argmax(boundary[:, 1])]])
        extra.append([[x0, y0], [x0, y1], [x1, y0], [x1, y1],
                      [x0, ym], [x1, ym], [xm, y0], [xm, y1]])
    return np.vstack(extra)


def test_disk_parametrization_points():
    bd = parametrize(Disk(center=(0.0, 0.0), radius=1.0))
    np.testing.assert_allclose(bd.position(np.array(0.0)), [1.0, 0.0],
                               atol=1e-15)
    np.testing.assert_allclose(bd.position(np.array(np.pi / 2)), [0.0, 1.0],
                               atol=1e-15)


def test_kite_parametrization_at_zero():
    # cos 0 + 0.65 cos 0 - 0.65 = 1, 1.5 sin 0 = 0
    bd = parametrize(Kite(center=(0.0, 0.0), scale=1.0))
    np.testing.assert_allclose(bd.position(np.array(0.0)), [1.0, 0.0],
                               atol=1e-15)
    scaled = parametrize(Kite(center=(0.5, -0.5), scale=2.0))
    np.testing.assert_allclose(scaled.position(np.array(0.0)), [2.5, -0.5],
                               atol=1e-15)


def test_ellipse_parametrization_points():
    bd = parametrize(Ellipse(center=(0.0, 0.0), semi_axis_a=2.0,
                             semi_axis_b=1.0))
    np.testing.assert_allclose(bd.position(np.array(np.pi / 2)), [0.0, 1.0],
                               atol=1e-15)
    rotated = parametrize(Ellipse(center=(0.0, 0.0), semi_axis_a=2.0,
                                  semi_axis_b=1.0, rotation=np.pi / 2))
    np.testing.assert_allclose(rotated.position(np.array(0.0)), [0.0, 2.0],
                               atol=1e-14)


def test_parametrization_closure_and_regularity():
    shapes = (Disk(center=(0.3, -0.1), radius=0.7),
              Ellipse(center=(0.0, 0.0), semi_axis_a=1.5, semi_axis_b=0.6,
                      rotation=0.4),
              Kite(center=(-0.2, 0.5), scale=0.8))
    t = np.linspace(0.0, 2.0 * np.pi, 257)
    for shape in shapes:
        bd = parametrize(shape)
        np.testing.assert_allclose(bd.position(np.array(0.0)),
                                   bd.position(np.array(2.0 * np.pi)),
                                   atol=1e-12)
        speed = np.linalg.norm(bd.derivative(t), axis=-1)
        assert np.all(speed > 0.0)


def test_derivative_matches_finite_differences():
    t = np.linspace(0.1, 2.0 * np.pi - 0.1, 50)
    step = 1e-6
    for shape in (Disk(center=(0.0, 0.0), radius=1.3),
                  Ellipse(center=(0.5, 0.0), semi_axis_a=1.2,
                          semi_axis_b=0.7, rotation=0.9),
                  Kite(center=(0.0, 0.0), scale=1.0)):
        bd = parametrize(shape)
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
        bd = parametrize(shape)
        x = bd.position(t)
        dx = bd.derivative(t)
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
# At 200^2 this ellipse's box holds more than 4096 grid points.
_LARGE_ELLIPSE = Ellipse(center=(1.2, -0.8), semi_axis_a=2.0,
                         semi_axis_b=1.1, rotation=0.3)


@pytest.mark.parametrize("resolution", [100, 200])
@pytest.mark.parametrize("obstacles", [
    (_KITE,),
    (_ELLIPSE,),
    (Kite(center=(-1.8, 1.5), scale=0.7), _LARGE_ELLIPSE,
     Disk(center=(-2.0, -2.5), radius=0.6)),
], ids=["kite", "ellipse", "three"])
def test_mask_matches_unfiltered_winding(obstacles, resolution):
    """The bounding-box prefilter leaves the mask bitwise unchanged, also
    for points exactly on the (inclusive) sides of each box."""
    scene = Scene(obstacles=obstacles)
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
    bounding box included, where the angle sum meets signed zeros."""
    t = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    boundary = parametrize(obstacle).position(t)
    extremes = boundary[[np.argmin(boundary[:, 0]), np.argmax(boundary[:, 0]),
                         np.argmin(boundary[:, 1]), np.argmax(boundary[:, 1])]]
    np.testing.assert_array_equal(_winding(boundary, extremes), 1.0)
    scene = Scene(obstacles=(obstacle,))
    assert contains_mask(scene, extremes).all()
    assert contains_mask(scene, boundary).all()


@pytest.mark.parametrize("resolution", [100, 200])
@pytest.mark.parametrize("obstacle", [_KITE, _ELLIPSE, _LARGE_ELLIPSE],
                         ids=["kite", "ellipse", "large-ellipse"])
def test_winding_bitwise_equal_to_reference(obstacle, resolution):
    """The blocked winding numbers are the reference's to the bit, signed
    zeros included, on the box's grid points, its edges and the samples."""
    t = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    boundary = parametrize(obstacle).position(t)
    points = SamplingGrid.make(4.0, resolution).points
    points = np.vstack([
        points[np.all((boundary.min(axis=0) <= points)
                      & (points <= boundary.max(axis=0)), axis=1)],
        _bounding_box_points(Scene(obstacles=(obstacle,))), boundary[::7]])
    got = _winding(boundary, points)
    assert got.tobytes() == _reference_winding(boundary, points).tobytes()


@pytest.mark.parametrize("samples", [2048, 3000, _WINDING_BLOCK + 1])
def test_mask_with_several_winding_blocks(samples):
    """More candidates than one block of whole point rows holds, the last
    block partial and holding inside points: every block is tested, the
    last one included, bitwise as the reference.  Block heights 16, 10
    and 1 (more samples than a block holds)."""
    rows = max(1, _WINDING_BLOCK // samples)
    boundary = parametrize(_LARGE_ELLIPSE).position(
        np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False))
    points = SamplingGrid.make(4.0, 200 if rows > 1 else 40).points
    points = points[np.all((boundary.min(axis=0) <= points)
                           & (points <= boundary.max(axis=0)), axis=1)]
    # Shuffled, so that the partial last block is not the box's top row,
    # and three short of the box's points (5,760 at 200^2, a multiple of
    # both 16 and 10).
    points = np.random.default_rng(samples).permutation(points)[:-3]
    assert points.shape[0] > rows
    scene = Scene(obstacles=(_LARGE_ELLIPSE,))
    expected = _unfiltered_mask(scene, points, samples)
    assert expected.any() and not expected.all()
    if rows > 1:
        assert points.shape[0] % rows != 0
        assert expected[rows * (points.shape[0] // rows):].any()
    np.testing.assert_array_equal(contains_mask(scene, points, samples),
                                  expected)
    assert (_winding(boundary, points).tobytes()
            == _reference_winding(boundary, points).tobytes())


def test_scene_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Disk(center=(0.0, 0.0), radius=0.0)
    with pytest.raises(ValueError):
        Ellipse(center=(0.0, 0.0), semi_axis_a=-1.0, semi_axis_b=1.0)
    with pytest.raises(ValueError):
        Kite(center=(0.0, 0.0), scale=-0.5)
    with pytest.raises(ValueError):
        Scene(obstacles=())


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
    """A boundary strictly inside another is not a valid scene."""
    with pytest.raises(ValueError):
        Scene(obstacles=(Disk(center=(0.0, 0.0), radius=1.5),
                         Disk(center=(0.0, 0.0), radius=0.3)))
