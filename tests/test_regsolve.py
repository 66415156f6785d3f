"""Tikhonov filtering, discrepancy matching, and the sampling indicator."""

import numpy as np
import pytest

from lsmnet import regsolve
from lsmnet.forward import add_noise, disk_farfield
from lsmnet.regsolve import (
    Constant,
    Field,
    IndicatorField,
    Morozov,
    NoRootError,
    RegField,
    SamplingGrid,
    SvdTriple,
    discrepancy,
    lsm_indicator,
    morozov_alpha,
    normalized,
    svd,
    testfunction_rhs as phi_rhs,
    tikhonov_solve,
    write_field_csv,
    write_field_pgm,
)

K = 2.0 * np.pi


def _scalar_svd(sigma: float) -> SvdTriple:
    return SvdTriple(np.array([[1.0 + 0j]]), np.array([sigma]),
                     np.array([[1.0 + 0j]]))


def _random_instance(seed, m=9, n=7):
    rng = np.random.default_rng(seed)
    entries = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    rhs = rng.normal(size=m) + 1j * rng.normal(size=m)
    return entries, rhs


@pytest.fixture(scope="module")
def noisy_disk():
    """Unit disk far field at 30x30 with 5 percent noise, shared SVD."""
    clean = disk_farfield((0.0, 0.0), 1.0, K, 30, 30)
    noisy, realization = add_noise(clean, 0.05, seed=3)
    return noisy, realization.delta, svd(noisy)


class TestSamplingGrid:
    def test_point_order(self):
        # p = iy * resolution + ix: x varies fastest, y bottom to top.
        grid = SamplingGrid.make(2.0, 5)
        axis = grid.axis
        np.testing.assert_allclose(grid.points[0], [-2.0, -2.0])
        np.testing.assert_allclose(grid.points[1], [axis[1], -2.0])
        np.testing.assert_allclose(grid.points[5], [-2.0, axis[1]])
        np.testing.assert_allclose(grid.points[-1], [2.0, 2.0])
        assert grid.points is grid.points             # built once, on demand

    def test_axis_endpoints(self):
        grid = SamplingGrid.make(1.5, 7)
        assert grid.axis[0] == -1.5 and grid.axis[-1] == 1.5

    def test_compatibility(self):
        a = SamplingGrid.make(2.0, 5)
        assert a.compatible(SamplingGrid.make(2.0, 5))
        assert not a.compatible(SamplingGrid.make(2.0, 6))
        assert not a.compatible(SamplingGrid.make(2.5, 5))

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingGrid.make(0.0, 5)
        with pytest.raises(ValueError):
            SamplingGrid.make(2.0, 1)
        with pytest.raises(ValueError):
            SamplingGrid(float("nan"), 3)


class TestSvdTriple:
    def test_accepts_numpy_factorization(self):
        entries, _ = _random_instance(1)
        triple = svd(entries)
        recon = triple.u @ np.diag(triple.s) @ triple.vh
        np.testing.assert_allclose(recon, entries, atol=1e-12)

    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            SvdTriple(np.eye(2), np.array([1.0, 2.0]), np.eye(2))  # increasing
        with pytest.raises(ValueError):
            SvdTriple(np.eye(2), np.array([-1.0]), np.eye(2))
        with pytest.raises(ValueError):
            SvdTriple(2.0 * np.eye(2), np.array([2.0, 1.0]), np.eye(2))


class TestRightHandSide:
    def test_frozen_value(self):
        """At k = 2 pi, z = (1, 0), observation angle 0 the phase factor is
        exp(-2 pi i) = 1, leaving exp(i pi/4)/(4 pi) exactly."""
        value = phi_rhs((1.0, 0.0), np.array([0.0]), K)[0]
        want = complex(np.cos(np.pi / 4), np.sin(np.pi / 4)) / (4.0 * np.pi)
        assert abs(value - want) < 1e-15

    def test_norm_is_angle_count_over_8_pi_k(self):
        # Every entry has modulus (8 pi k)^{-1/2} regardless of z.
        theta = 2.0 * np.pi * np.arange(17) / 17
        for z in [(0.0, 0.0), (1.3, -2.2)]:
            rhs = phi_rhs(z, theta, K)
            assert abs(np.sum(np.abs(rhs) ** 2) - 17 / (8 * np.pi * K)) < 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            phi_rhs((1.0, 0.0, 0.0), np.array([0.0]), K)
        with pytest.raises(ValueError):
            phi_rhs((1.0, 0.0), np.array([0.0]), 0.0)


class TestTikhonov:
    def test_scalar_oracle(self):
        # sigma = 2, beta = 1, alpha = 1: g = 2/(4+1) = 0.4.
        g = tikhonov_solve(_scalar_svd(2.0), np.array([1.0 + 0j]), 1.0)
        assert abs(g[0] - 0.4) < 1e-15

    def test_solves_normal_equations(self):
        entries, rhs = _random_instance(7)
        triple = svd(entries)
        for alpha in (1e-3, 0.4, 9.0):
            g = tikhonov_solve(triple, rhs, alpha)
            lhs = entries.conj().T @ (entries @ g) + alpha * g
            want = entries.conj().T @ rhs
            assert np.max(np.abs(lhs - want)) < 1e-12 * np.max(np.abs(want))

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            tikhonov_solve(_scalar_svd(1.0), np.array([1.0 + 0j]), 0.0)


class TestDiscrepancy:
    def test_scalar_oracles(self):
        """sigma = 2, beta = 1, delta = 1/2 gives exact rationals:
        d(1/2) = (1/4 - 1)/(9/2)^2 = -1/27 and d(2) = 3/36 = 1/12."""
        triple = _scalar_svd(2.0)
        rhs = np.array([1.0 + 0j])
        assert abs(discrepancy(triple, rhs, 0.5, 0.5) - (-1.0 / 27.0)) < 1e-15
        assert abs(discrepancy(triple, rhs, 2.0, 0.5) - 1.0 / 12.0) < 1e-15

    def test_matches_direct_evaluation(self):
        for seed in range(50):
            entries, rhs = _random_instance(seed)
            triple = svd(entries)
            delta = 0.1 + 0.05 * seed
            alpha = 10.0 ** (-3 + 0.1 * seed)
            g = tikhonov_solve(triple, rhs, alpha)
            direct = (np.linalg.norm(entries @ g - rhs) ** 2
                      - delta ** 2 * np.linalg.norm(g) ** 2)
            closed = discrepancy(triple, rhs, alpha, delta)
            assert abs(closed - direct) <= 1e-10 * np.linalg.norm(rhs) ** 2

    def test_strictly_increasing(self):
        entries, rhs = _random_instance(11)
        triple = svd(entries)
        alphas = np.logspace(-6, 4, 40)
        values = [discrepancy(triple, rhs, a, 0.3) for a in alphas]
        assert np.all(np.diff(values) > 0.0)

    def test_validation(self):
        triple = _scalar_svd(1.0)
        rhs = np.array([1.0 + 0j])
        with pytest.raises(ValueError):
            discrepancy(triple, rhs, 0.0, 0.1)
        with pytest.raises(ValueError):
            discrepancy(triple, rhs, 1.0, -0.1)


class TestMorozov:
    def test_rank_one_root_is_delta_sigma(self):
        # Scalar case: the root of (a^2 - d^2 s^2)/(s^2+a)^2 is a = d*s.
        root = morozov_alpha(_scalar_svd(2.0), np.array([1.0 + 0j]), 0.5)
        assert abs(root - 1.0) <= 1e-12

    def test_root_zeroes_discrepancy(self):
        # An in-range right-hand side has a root for any delta: the
        # discrepancy runs from -delta^2 ||F^+ rhs||^2 up to ||rhs||^2.
        entries, rhs = _random_instance(23)
        triple = svd(entries)
        rhs = triple.u @ (triple.u.conj().T @ rhs)
        for delta in (0.01, 0.2, 2.0):
            root = morozov_alpha(triple, rhs, delta)
            value = discrepancy(triple, rhs, root, delta)
            assert abs(value) <= 1e-10 * np.linalg.norm(rhs) ** 2

    def test_tiny_delta_has_no_root(self):
        entries, rhs = _random_instance(5)
        with pytest.raises(NoRootError):
            morozov_alpha(svd(entries), rhs, 1e-300)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            morozov_alpha(_scalar_svd(1.0), np.array([1.0 + 0j]), 0.0)


class TestIndicator:
    def test_closed_form_matches_explicit_solve(self, noisy_disk):
        """The rank-cost indicator must equal 1/||g|| computed the long way."""
        noisy, _, svdt = noisy_disk
        grid = SamplingGrid.make(2.0, 12)
        result = lsm_indicator(noisy, grid, Constant(0.01))
        for p in range(0, grid.points.shape[0], 13):
            rhs = phi_rhs(grid.points[p], noisy.theta, noisy.k)
            explicit = 1.0 / np.linalg.norm(tikhonov_solve(svdt, rhs, 0.01))
            assert abs(result.indicator.values[p] - explicit) <= 1e-12 * explicit

    def test_row_blocks_cover_the_grid(self, noisy_disk, monkeypatch):
        """Right-hand sides are built in blocks of whole grid rows; with
        several blocks and a partial last one, every point must still get
        its own test function."""
        noisy, _, svdt = noisy_disk
        grid = SamplingGrid.make(2.0, 12)
        monkeypatch.setattr(regsolve, "_CHUNK", 60)
        result = lsm_indicator(noisy, grid, Constant(0.01), svdt=svdt)
        for p in range(0, grid.points.shape[0], 7):
            rhs = phi_rhs(grid.points[p], noisy.theta, noisy.k)
            explicit = 1.0 / np.linalg.norm(tikhonov_solve(svdt, rhs, 0.01))
            assert abs(result.indicator.values[p] - explicit) <= 1e-12 * explicit

    def test_morozov_alphas_match_discrepancy_roots(self, noisy_disk):
        noisy, delta, svdt = noisy_disk
        grid = SamplingGrid.make(2.0, 12)
        result = lsm_indicator(noisy, grid, Morozov(delta), svdt=svdt)
        assert result.fallback_count == 0
        for p in range(0, grid.points.shape[0], 17):
            rhs = phi_rhs(grid.points[p], noisy.theta, noisy.k)
            value = discrepancy(svdt, rhs, result.alpha.alpha[p], delta)
            assert abs(value) <= 1e-10 * float(np.sum(np.abs(rhs) ** 2))

    def test_indicator_peaks_inside_scatterer(self, noisy_disk):
        noisy, delta, _ = noisy_disk
        grid = SamplingGrid.make(2.0, 12)
        values = lsm_indicator(noisy, grid, Morozov(delta)).indicator.values
        inside = np.linalg.norm(grid.points, axis=1) <= 0.8
        assert values[inside].mean() > 1.5 * values[~inside].mean()

    def test_field_strategy_reproduces_morozov(self, noisy_disk):
        # Feeding the Morozov alpha field back in must give identical values.
        noisy, delta, _ = noisy_disk
        grid = SamplingGrid.make(2.0, 10)
        first = lsm_indicator(noisy, grid, Morozov(delta))
        second = lsm_indicator(noisy, grid, Field(first.alpha))
        np.testing.assert_array_equal(second.indicator.values,
                                      first.indicator.values)

    def test_all_points_fall_back_for_tiny_delta(self, noisy_disk):
        noisy, _, svdt = noisy_disk
        grid = SamplingGrid.make(2.0, 6)
        result = lsm_indicator(noisy, grid, Morozov(1e-300))
        assert result.fallback_count == grid.points.shape[0]
        np.testing.assert_allclose(result.alpha.alpha, 1e-300 * svdt.s[0])

    def test_validation(self, noisy_disk):
        noisy, delta, svdt = noisy_disk
        grid = SamplingGrid.make(2.0, 6)
        with pytest.raises(TypeError):
            lsm_indicator(noisy, grid, object())
        with pytest.raises(ValueError, match="different grid"):
            other = SamplingGrid.make(3.0, 6)
            field = RegField(other, np.ones(36))
            lsm_indicator(noisy, grid, Field(field))
        with pytest.raises(ValueError, match="does not match"):
            small = svd(np.eye(4))
            lsm_indicator(noisy, grid, Morozov(delta), svdt=small)
        with pytest.raises(ValueError):
            zero = disk_farfield((0.0, 0.0), 1.0, K, 8, 8)
            object.__setattr__(zero, "entries", np.zeros_like(zero.entries))
            lsm_indicator(zero, grid, Morozov(delta))


class TestFieldContainers:
    def test_indicator_field_validation(self):
        grid = SamplingGrid.make(1.0, 4)
        with pytest.raises(ValueError):
            IndicatorField(grid, -np.ones(16))
        with pytest.raises(ValueError):
            IndicatorField(grid, np.ones(15))

    def test_reg_field_validation(self):
        grid = SamplingGrid.make(1.0, 4)
        with pytest.raises(ValueError):
            RegField(grid, np.zeros(16))
        with pytest.raises(ValueError):
            RegField(grid, np.full(16, np.inf))

    def test_normalized(self):
        values = np.array([0.0, 2.0, 0.5])
        np.testing.assert_allclose(normalized(values), [0.0, 1.0, 0.25])
        np.testing.assert_array_equal(normalized(np.zeros(3)), np.zeros(3))


class TestWriters:
    def test_csv_round_trip(self, tmp_path):
        grid = SamplingGrid.make(1.0, 4)
        values = np.arange(16.0) / 7.0
        path = tmp_path / "field.csv"
        write_field_csv(path, grid, values)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 17
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table[:, 2], values)
        np.testing.assert_array_equal(table[:, :2], grid.points)

    @pytest.mark.parametrize("halfwidth, resolution", [(1.0, 7), (4.0, 101),
                                                       (1.3, 9)])
    def test_csv_bytes_match_row_oracle(self, tmp_path, halfwidth,
                                        resolution):
        """Byte-for-byte equal to formatting each row on its own."""
        grid = SamplingGrid.make(halfwidth, resolution)
        rng = np.random.default_rng(resolution)
        values = (rng.choice([-1.0, 1.0], size=resolution ** 2)
                  * 10.0 ** rng.uniform(-300.0, 300.0, size=resolution ** 2))
        values[:4] = [1e-300, -1e-300, 1e300, -1e300]
        axis = grid.axis
        rows = [f"{axis[ix]:.17g},{axis[iy]:.17g},"
                f"{values[iy * resolution + ix]:.17g}"
                for iy in range(resolution) for ix in range(resolution)]
        path = tmp_path / "field.csv"
        write_field_csv(path, grid, values)
        assert path.read_bytes() == ("x,y,value\n" + "\n".join(rows)
                                     + "\n").encode("ascii")

    @pytest.mark.parametrize("writer", [write_field_csv, write_field_pgm])
    @pytest.mark.parametrize("size", [15, 17])
    def test_wrong_length_field_rejected(self, tmp_path, writer, size):
        grid = SamplingGrid.make(1.0, 4)
        path = tmp_path / "field.out"
        with pytest.raises(ValueError, match=f"field has {size} values, "
                                             f"the 4x4 grid needs 16"):
            writer(path, grid, np.ones(size))
        assert not path.exists()

    def test_pgm_orientation(self, tmp_path):
        """Top image row is y = +halfwidth: a field that grows with y must
        render 255 in the first row and 0 in the last."""
        grid = SamplingGrid.make(1.0, 4)
        values = grid.points[:, 1]
        path = tmp_path / "field.pgm"
        write_field_pgm(path, grid, values)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n4 4\n255\n")
        image = np.frombuffer(blob[len(b"P5\n4 4\n255\n"):],
                              dtype=np.uint8).reshape(4, 4)
        assert np.all(image[0] == 255) and np.all(image[-1] == 0)

    def test_pgm_constant_field(self, tmp_path):
        grid = SamplingGrid.make(1.0, 4)
        path = tmp_path / "flat.pgm"
        write_field_pgm(path, grid, np.ones(16))
        image = np.frombuffer(path.read_bytes()[-16:], dtype=np.uint8)
        assert np.all(image == 128)
