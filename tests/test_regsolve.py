"""Tikhonov filtering, discrepancy matching, and the sampling indicator."""

import numpy as np
import pytest
from scipy.optimize.elementwise import find_root

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
    lsm_indicators,
    morozov_alpha,
    normalized,
    svd,
    testfunction_rhs as phi_rhs,
    tikhonov_solve,
    write_field_csv,
    write_field_pgm,
)

K = 2.0 * np.pi


NON_FINITE = (np.nan, np.inf, -np.inf)


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

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingGrid.make(0.0, 5)
        with pytest.raises(ValueError):
            SamplingGrid.make(2.0, 1)
        with pytest.raises(ValueError):
            SamplingGrid(float("nan"), 3)
        for halfwidth in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="halfwidth must be finite"):
                SamplingGrid.make(halfwidth, 5)


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

    @pytest.mark.parametrize("k", NON_FINITE)
    def test_rejects_non_finite_wavenumber(self, k):
        """A NaN wavenumber used to give all-NaN entries after a warning."""
        with pytest.raises(ValueError, match=f"wavenumber .*got {k}"):
            phi_rhs((1.0, 0.0), np.array([0.0]), k)


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

    @pytest.mark.parametrize("alpha", NON_FINITE)
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match=f"finite and positive, got {alpha}"):
            tikhonov_solve(_scalar_svd(1.0), np.array([1.0 + 0j]), alpha)


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

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_rejects_non_finite_alpha_and_delta(self, value):
        triple = _scalar_svd(1.0)
        rhs = np.array([1.0 + 0j])
        with pytest.raises(ValueError, match=f"regularization parameter .*got {value}"):
            discrepancy(triple, rhs, value, 0.1)
        with pytest.raises(ValueError, match=f"perturbation norm .*got {value}"):
            discrepancy(triple, rhs, 1.0, value)


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

    @pytest.mark.parametrize("delta", NON_FINITE)
    def test_rejects_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match=f"finite and positive, got {delta}"):
            morozov_alpha(_scalar_svd(1.0), np.array([1.0 + 0j]), delta)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_strategies_reject_non_finite_values(self, value):
        """A NaN delta used to give alpha = 1e-16 sigma_1^2 at every point
        with no fallback counted; an infinite one failed only once the
        indicator was built."""
        with pytest.raises(ValueError, match=f"perturbation norm .*got {value}"):
            Morozov(value)
        with pytest.raises(ValueError, match=f"regularization parameter .*got {value}"):
            Constant(value)


# -- root-finder oracles -------------------------------------------------

def _bisection_oracle(s, beta2, outside, delta):
    """The fixed 60-halving log-bisection the bracketed hybrid replaced."""
    s2 = (s ** 2)[:, None]
    d2s2 = (delta ** 2) * s2

    def disc(alpha):
        return np.sum((alpha[None, :] ** 2 - d2s2) / (s2 + alpha[None, :]) ** 2
                      * beta2, axis=0) + outside

    top = s[0] ** 2
    lo = np.full(outside.shape, regsolve.ALPHA_BRACKET[0] * top)
    hi = np.full(outside.shape, regsolve.ALPHA_BRACKET[1] * top)
    no_root = (disc(lo) > 0.0) | (disc(hi) < 0.0)
    for _ in range(60):
        mid = np.sqrt(lo * hi)
        below = disc(mid) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.sqrt(lo * hi), no_root


def _find_root_oracle(s, beta2, outside, delta):
    """SciPy's elementwise bracketed solver in log alpha, rooted points only.

    find_root shrinks its working set as points converge, so each point's
    column is reached through its index, passed along as an argument."""
    s2 = (s ** 2)[:, None]

    def disc(x, index):
        alpha = np.exp(x)
        cols = index.astype(int)
        return (np.sum((alpha ** 2 - delta ** 2 * s2) / (s2 + alpha) ** 2
                       * beta2[:, cols], axis=0) + outside[cols])

    top = s[0] ** 2
    index = np.arange(outside.size, dtype=float)
    low = np.full(outside.shape, np.log(regsolve.ALPHA_BRACKET[0] * top))
    high = np.full(outside.shape, np.log(regsolve.ALPHA_BRACKET[1] * top))
    result = find_root(disc, (low, high), args=(index,),
                       tolerances=dict(xatol=1e-15))
    return np.exp(result.x), result.success


def _wide_bracket_oracle(s, beta2, outside, delta):
    """The root finder as it was before the spectral bracket: the same
    Chandrupatla steps, every point started on the whole ALPHA_BRACKET."""
    s2 = (s ** 2)[:, None]
    d2s2 = (delta ** 2) * s2

    def disc(alpha):
        return np.sum((alpha ** 2 - d2s2) / (s2 + alpha) ** 2 * beta2, axis=0) + outside

    top = s[0] ** 2
    f1 = disc(np.full(outside.shape, regsolve.ALPHA_BRACKET[0] * top))
    f2 = disc(np.full(outside.shape, regsolve.ALPHA_BRACKET[1] * top))
    no_root = (f1 > 0.0) | (f2 < 0.0)
    x1 = np.full(outside.shape, np.log(regsolve.ALPHA_BRACKET[0] * top))
    x2 = np.full(outside.shape, np.log(regsolve.ALPHA_BRACKET[1] * top))
    t = np.full(outside.shape, 0.5)
    active = ~no_root
    for _ in range(60):
        nearer = np.abs(f1) < np.abs(f2)
        xm, fm = np.where(nearer, x1, x2), np.where(nearer, f1, f2)
        tol = 4.0 * np.finfo(float).eps * np.maximum(np.abs(xm), 1.0)
        active &= (np.abs(x2 - x1) >= tol) & (fm != 0.0)
        if not active.any():
            break
        x = x1 + t * (x2 - x1)
        f = disc(np.exp(x))
        same = np.sign(f) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same | ~active, x2, x1), np.where(same | ~active, f2, f1)
        x1, f1 = np.where(active, x, x1), np.where(active, f, f1)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            quadratic = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            t = np.where(quadratic,
                         f1 / (f1 - f2) * f3 / (f3 - f2)
                         - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3),
                         0.5)
            tl = 0.5 * tol / np.abs(x2 - x1)
        t = np.clip(t, tl, 1.0 - tl)
    return np.exp(np.where(np.abs(f1) < np.abs(f2), x1, x2)), no_root


def _residual_oracle_indicator(measured, grid, delta, svdt):
    """Morozov alphas, indicators and fallbacks with the out-of-range
    energy taken as the explicit residual ||rhs - U U^H rhs||^2 and the
    root searched on the wide bracket."""
    k, axis = measured.k, grid.axis
    along_x = (np.exp(1j * np.pi / 4.0) / np.sqrt(8.0 * np.pi * k)
               * np.exp(-1j * k * np.outer(np.cos(measured.theta), axis)))
    along_y = np.exp(-1j * k * np.outer(np.sin(measured.theta), axis))
    rhs = (along_y[:, :, None] * along_x[:, None, :]).reshape(len(measured.theta), -1)
    beta2, outside = _projections(svdt, rhs)
    alpha, no_root = _wide_bracket_oracle(svdt.s, beta2, outside, delta)
    alpha[no_root] = delta * svdt.s[0]
    gnorm2 = np.sum((svdt.s[:, None] / (svdt.s[:, None] ** 2 + alpha)) ** 2 * beta2, axis=0)
    return alpha, 1.0 / np.sqrt(gnorm2), int(no_root.sum())


def _root_rtol(s, beta2, outside, delta, alpha, floor=1e-12, ulps=8.0,
               moved=0.0):
    """Relative error a root at alpha can be located to, at least `floor`.

    The discrepancy is a sum of terms rounded to about eps times
    sum_i |term_i| + outside; over its slope alpha d'(alpha) in log alpha,
    with d'(alpha) = sum_i 2 s_i^2 (alpha + delta^2) / (s_i^2 + alpha)^3
    |beta_i|^2, that is where a sign change can sit.  `ulps` covers the
    rounding of both the finder and the oracle; `moved` is any difference
    between the discrepancies the two solved, at alpha."""
    s2 = (s ** 2)[:, None]
    terms = (alpha ** 2 - delta ** 2 * s2) / (s2 + alpha) ** 2 * beta2
    slope = np.sum(2.0 * s2 * (alpha + delta ** 2) / (s2 + alpha) ** 3 * beta2, axis=0)
    scale = np.sum(np.abs(terms), axis=0) + outside
    return np.maximum(floor, (moved + ulps * np.finfo(float).eps * scale) / (alpha * slope))


def _projections(svdt, rhs):
    """beta^2 columns and out-of-range energies of right-hand sides."""
    beta = svdt.u.conj().T @ rhs
    outside = np.sum(np.abs(rhs - svdt.u @ beta) ** 2, axis=0)
    return np.abs(beta) ** 2, outside


def _criterion_4_instances(seed, count):
    """(svdt, rhs, delta) drawn like the release gate's criterion 4: exact
    rank-1 factors every fifth instance, in-range general ones otherwise."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        m, n = int(rng.integers(4, 13)), int(rng.integers(4, 13))
        if trial % 5 == 0:
            u = rng.normal(size=m) + 1j * rng.normal(size=m)
            u /= np.linalg.norm(u)
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            v /= np.linalg.norm(v)
            sigma = float(10.0 ** rng.uniform(-2.0, 2.0))
            svdt = SvdTriple(u[:, None], np.array([sigma]), v[None, :].conj())
            rhs = u * complex(rng.normal(), rng.normal())
            yield svdt, rhs, float(sigma * 10.0 ** rng.uniform(-3.0, 0.5))
        else:
            svdt = svd(rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
            raw = rng.normal(size=m) + 1j * rng.normal(size=m)
            rhs = svdt.u @ (svdt.u.conj().T @ raw)
            yield svdt, rhs, float(svdt.s[0] * 10.0 ** rng.uniform(-3.0, 0.5))


@pytest.fixture(scope="module")
def kite_50():
    """Default kite, 50 x 50 data at 10 percent noise, 50^2 sampling grid."""
    from lsmnet.geometry import Kite, Scene
    from lsmnet.nystrom import nystrom_farfield

    clean = nystrom_farfield(Scene((Kite((0.0, 0.0), 0.8),)), K, 50, 50)
    noisy, realization = add_noise(clean, 0.1, seed=21)
    return noisy, realization.delta, svd(noisy), SamplingGrid.make(4.0, 50)


@pytest.fixture
def evaluations(monkeypatch):
    """Counts calls of the vectorized discrepancy: one per root-finder step
    plus the two bracket-end checks, for every block of points."""
    calls = []
    real = regsolve._discrepancies

    def counted(*args):
        calls.append(args[0].size)
        return real(*args)

    monkeypatch.setattr(regsolve, "_discrepancies", counted)
    return calls


class TestRootFinder:
    def test_criterion_4_instances_match_both_oracles(self, evaluations):
        for svdt, rhs, delta in _criterion_4_instances(20260821, 300):
            beta2, outside = _projections(svdt, rhs[:, None])
            evaluations.clear()
            root, no_root = regsolve._root_alpha(svdt.s, beta2, outside, delta)
            assert not no_root[0]
            assert len(evaluations) <= 2 + 20
            bisected, _ = _bisection_oracle(svdt.s, beta2, outside, delta)
            found, success = _find_root_oracle(svdt.s, beta2, outside, delta)
            assert success[0]
            assert abs(root[0] / bisected[0] - 1.0) <= 1e-12
            assert abs(root[0] / found[0] - 1.0) <= 1e-12
            if svdt.s.size == 1:
                assert abs(root[0] / (delta * svdt.s[0]) - 1.0) <= 1e-12
            value = discrepancy(svdt, rhs, root[0], delta)
            assert abs(value) <= 1e-12 * np.linalg.norm(rhs) ** 2

    @pytest.mark.parametrize("decades", [-15.9, -15.0, 5.0, 5.9])
    def test_roots_near_either_bracket_end(self, decades):
        """Rank-1 roots sit at delta*sigma, so delta picks where in the
        bracket [1e-16, 1e6] * sigma^2 the root falls."""
        sigma = 0.7
        svdt = _scalar_svd(sigma)
        delta = sigma * 10.0 ** decades
        beta2, outside = np.ones((1, 1)), np.zeros(1)
        root, no_root = regsolve._root_alpha(svdt.s, beta2, outside, delta)
        bisected, _ = _bisection_oracle(svdt.s, beta2, outside, delta)
        found, _ = _find_root_oracle(svdt.s, beta2, outside, delta)
        assert not no_root[0]
        for reference in (delta * sigma, bisected[0], found[0]):
            assert abs(root[0] / reference - 1.0) <= 1e-12

    def test_kite_matches_both_oracles(self, kite_50, monkeypatch):
        """Every block lsm_indicator solves is also handed to the oracles."""
        noisy, delta, svdt, grid = kite_50
        blocks = []
        real = regsolve._root_alpha

        def spy(s, beta2, outside, delta):
            root, no_root = real(s, beta2, outside, delta)
            blocks.append((root, no_root, _bisection_oracle(s, beta2, outside, delta),
                           _find_root_oracle(s, beta2, outside, delta)))
            return root, no_root

        monkeypatch.setattr(regsolve, "_root_alpha", spy)
        result = lsm_indicator(noisy, grid, Morozov(delta), svdt=svdt)
        assert result.fallback_count == 0
        for root, no_root, (bisected, bisect_none), (found, success) in blocks:
            np.testing.assert_array_equal(no_root, bisect_none)
            np.testing.assert_allclose(root, bisected, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(root, found, rtol=1e-12, atol=0.0)
            assert success.all()

    def test_no_root_mask_and_fallbacks_match_bisection(self, kite_50, monkeypatch):
        """A rank-40 truncation leaves out-of-range energy, and at 0.3 delta
        only part of the grid has a root: the same points fall back as
        under bisection.  Near-rootless points have flat discrepancies, so
        their roots are held to the bound their conditioning allows."""
        noisy, delta, svdt, grid = kite_50
        svdt = SvdTriple(svdt.u[:, :40], svdt.s[:40], svdt.vh[:40])
        masks = []
        real = regsolve._root_alpha

        def spy(s, beta2, outside, delta):
            root, no_root = real(s, beta2, outside, delta)
            bisected, bisect_none = _bisection_oracle(s, beta2, outside, delta)
            np.testing.assert_array_equal(no_root, bisect_none)
            rooted = ~no_root
            bound = _root_rtol(s, beta2[:, rooted], outside[rooted], delta,
                               bisected[rooted])
            assert np.all(np.abs(root[rooted] / bisected[rooted] - 1.0) <= bound)
            masks.append(bisect_none)
            return root, no_root

        monkeypatch.setattr(regsolve, "_root_alpha", spy)
        result = lsm_indicator(noisy, grid, Morozov(0.3 * delta), svdt=svdt)
        expected = int(sum(mask.sum() for mask in masks))
        assert 0 < expected < grid.resolution ** 2
        assert result.fallback_count == expected

    def test_steps_stop_at_convergence_and_never_pass_the_cap(
            self, kite_50, evaluations, monkeypatch):
        """Three blocks of rows (1000, 1000 and 500 points): each costs two
        bracket-end checks plus one evaluation per step, the steps end once
        every point of the block has converged, and never exceed the cap."""
        noisy, delta, svdt, grid = kite_50
        monkeypatch.setattr(regsolve, "_CHUNK", 1000)
        lsm_indicator(noisy, grid, Morozov(delta), svdt=svdt)
        assert evaluations[:2] == [1000, 1000] and evaluations[-1] == 500
        assert evaluations.count(500) <= 2 + 20
        assert len(evaluations) <= 3 * (2 + 20)
        monkeypatch.setattr(regsolve, "BISECT_ITERATIONS", 3)
        evaluations.clear()
        capped = lsm_indicator(noisy, grid, Morozov(delta), svdt=svdt)
        assert evaluations == [1000] * 10 + [500] * 5
        # Three steps leave a wide bracket; the end returned lies on it.
        top = svdt.s[0] ** 2
        assert np.all(capped.alpha.alpha >= regsolve.ALPHA_BRACKET[0] * top)
        assert np.all(capped.alpha.alpha <= regsolve.ALPHA_BRACKET[1] * top)


@pytest.fixture(scope="module", params=[(60, 40), (40, 60)], ids=["m>n", "m<n"])
def kite_nonsquare(request):
    return _nonsquare_kite(*request.param)


def _nonsquare_kite(m, n):
    """Default kite at 10 percent noise, measured on a non-square m x n
    grid of angles; for m > n the range of U misses m - n directions."""
    from lsmnet.geometry import Kite, Scene
    from lsmnet.nystrom import nystrom_farfield

    clean = nystrom_farfield(Scene((Kite((0.0, 0.0), 0.8),)), K, m, n)
    noisy, realization = add_noise(clean, 0.1, seed=21)
    return noisy, realization.delta, svd(noisy), SamplingGrid.make(4.0, 40)


class TestOutOfRangeEnergy:
    def test_complement_is_empty_for_square_data(self, kite_50):
        noisy, _, svdt, grid = kite_50
        assert svdt.complement.shape == (50, 0)
        assert svdt.complement is svdt.complement          # derived once
        rhs = phi_rhs(grid.points[7], noisy.theta, noisy.k)
        assert svdt.outside(rhs) == 0.0

    def test_complement_matches_explicit_residual(self, kite_nonsquare):
        noisy, _, svdt, grid = kite_nonsquare
        m, r = svdt.u.shape
        perp = svdt.complement
        assert perp.shape == (m, m - r)
        basis = np.hstack([svdt.u, perp])
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(m), atol=1e-13)
        rhs = np.column_stack([phi_rhs(z, noisy.theta, noisy.k)
                               for z in grid.points[::97]])
        _, residual = _projections(svdt, rhs)
        scale = np.sum(np.abs(rhs) ** 2, axis=0)
        assert np.all(np.abs(svdt.outside(rhs) - residual) <= 1e-14 * scale)

    def test_morozov_matches_residual_oracle(self, kite_nonsquare):
        """Alphas and indicators within 1e-14 of the explicit-residual,
        wide-bracket solve, with the same fallbacks (none at the true
        delta, some at 0.3 delta when m > n)."""
        noisy, delta, svdt, grid = kite_nonsquare
        for scale in (1.0, 0.3):
            result = lsm_indicator(noisy, grid, Morozov(scale * delta), svdt=svdt)
            alpha, values, fallbacks = _residual_oracle_indicator(
                noisy, grid, scale * delta, svdt)
            assert result.fallback_count == fallbacks
            if scale == 1.0:
                assert fallbacks == 0
                np.testing.assert_allclose(result.alpha.alpha, alpha, rtol=1e-14, atol=0.0)
                np.testing.assert_allclose(result.indicator.values, values,
                                           rtol=1e-14, atol=0.0)
            else:
                fell_back = result.alpha.alpha == scale * delta * svdt.s[0]
                np.testing.assert_array_equal(fell_back, alpha == scale * delta * svdt.s[0])
        assert (fallbacks > 0) == (svdt.u.shape[0] > svdt.s.size)

    def test_discrepancy_matches_residual_oracle(self, kite_nonsquare):
        noisy, delta, svdt, grid = kite_nonsquare
        s2 = svdt.s ** 2
        for z in grid.points[::211]:
            rhs = phi_rhs(z, noisy.theta, noisy.k)
            beta2, outside = _projections(svdt, rhs[:, None])
            for alpha in s2[0] * np.array([1e-4, 1e-2, 1.0, 1e2]):
                want = float(((alpha ** 2 - delta ** 2 * s2) / (s2 + alpha) ** 2)
                             @ beta2[:, 0] + outside[0])
                value = discrepancy(svdt, rhs, alpha, delta)
                assert abs(value - want) <= 1e-14 * float(np.sum(np.abs(rhs) ** 2))


class TestSpectralBracket:
    @pytest.mark.parametrize("s", [np.array([3.0, 1.0, 0.25, 0.0]),
                                   np.array([2.0, 0.0, 0.0]),
                                   np.array([0.7])],
                             ids=["rank-deficient", "rank-1-of-3", "rank-1"])
    @pytest.mark.parametrize("with_outside", [False, True], ids=["in-range", "outside"])
    def test_no_root_mask_matches_wide_bracket(self, s, with_outside):
        """Deltas across 40 decades put the spectral ends on, inside and
        beyond either end of ALPHA_BRACKET; the rootless points and the
        roots must be the wide-bracket finder's."""
        rng = np.random.default_rng(s.size)
        beta2 = rng.uniform(0.0, 1.0, size=(s.size, 64)) ** 4
        outside = (rng.uniform(0.0, 0.1, size=64) if with_outside
                   else np.zeros(64))
        for delta in s[0] * np.logspace(-22.0, 14.0, 73):
            root, no_root = regsolve._root_alpha(s, beta2, outside, delta)
            want, want_none = _wide_bracket_oracle(s, beta2, outside, delta)
            np.testing.assert_array_equal(no_root, want_none)
            rooted = ~no_root
            np.testing.assert_allclose(root[rooted], want[rooted], rtol=1e-12, atol=0.0)


class TestIndicator:
    def test_closed_form_matches_explicit_solve(self, noisy_disk):
        """The rank-cost indicator must equal 1/||g|| computed the long way."""
        noisy, _, svdt = noisy_disk
        grid = SamplingGrid.make(2.0, 12)
        result = lsm_indicator(noisy, grid, Constant(0.01), svdt)
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
        noisy, delta, svdt = noisy_disk
        grid = SamplingGrid.make(2.0, 12)
        values = lsm_indicator(noisy, grid, Morozov(delta), svdt).indicator.values
        inside = np.linalg.norm(grid.points, axis=1) <= 0.8
        assert values[inside].mean() > 1.5 * values[~inside].mean()

    def test_field_strategy_reproduces_morozov(self, noisy_disk):
        # Feeding the Morozov alpha field back in must give identical values.
        noisy, delta, svdt = noisy_disk
        grid = SamplingGrid.make(2.0, 10)
        first = lsm_indicator(noisy, grid, Morozov(delta), svdt)
        second = lsm_indicator(noisy, grid, Field(first.alpha), svdt)
        np.testing.assert_array_equal(second.indicator.values,
                                      first.indicator.values)

    def test_all_points_fall_back_for_tiny_delta(self, noisy_disk):
        noisy, _, svdt = noisy_disk
        grid = SamplingGrid.make(2.0, 6)
        result = lsm_indicator(noisy, grid, Morozov(1e-300), svdt)
        assert result.fallback_count == grid.points.shape[0]
        np.testing.assert_allclose(result.alpha.alpha, 1e-300 * svdt.s[0])

    def test_validation(self, noisy_disk):
        noisy, delta, svdt = noisy_disk
        grid = SamplingGrid.make(2.0, 6)
        with pytest.raises(TypeError):
            lsm_indicator(noisy, grid, object(), svdt)
        for other in (SamplingGrid.make(3.0, 6), SamplingGrid.make(2.0, 7),
                      SamplingGrid.make(np.nextafter(2.0, 3.0), 6)):
            field = RegField(other, np.ones(other.resolution ** 2))
            with pytest.raises(ValueError, match="different grid"):
                lsm_indicator(noisy, grid, Field(field), svdt)
        same = RegField(SamplingGrid.make(2.0, 6), np.ones(36))
        lsm_indicator(noisy, grid, Field(same), svdt)
        with pytest.raises(ValueError, match="does not match"):
            small = svd(np.eye(4))
            lsm_indicator(noisy, grid, Morozov(delta), svdt=small)
        with pytest.raises(ValueError):
            zero = disk_farfield((0.0, 0.0), 1.0, K, 8, 8)
            object.__setattr__(zero, "entries", np.zeros_like(zero.entries))
            lsm_indicator(zero, grid, Morozov(delta), svd(zero))


class TestSharedPass:
    @pytest.mark.parametrize("shape", [(50, 50), (60, 40), (40, 60)], ids="{0[0]}x{0[1]}".format)
    def test_equals_one_strategy_calls_bit_for_bit(self, shape, kite_50, monkeypatch):
        """Two Morozov deltas, a constant and a field solved in one pass give
        the indicators, alphas and fallback counts of one call each, over
        several row blocks with a partial last one.  At 0.3 delta the 60x40
        data leave 553 of 1,600 points without a root."""
        noisy, delta, svdt, grid = kite_50 if shape == (50, 50) else _nonsquare_kite(*shape)
        monkeypatch.setattr(regsolve, "_CHUNK", 700)
        rows = 700 // grid.resolution
        assert grid.resolution % rows and grid.resolution > 2 * rows
        field = RegField(grid, np.linspace(1e-3, 1.0, grid.resolution ** 2) * svdt.s[0] ** 2)
        strategies = (Morozov(delta), Constant(svdt.s[0] / 100.0), Field(field),
                      Morozov(0.3 * delta))
        shared = lsm_indicators(noisy, grid, strategies, svdt)
        assert len(shared) == len(strategies)
        for strategy, got in zip(strategies, shared):
            want = lsm_indicator(noisy, grid, strategy, svdt)
            np.testing.assert_array_equal(got.indicator.values, want.indicator.values)
            np.testing.assert_array_equal(got.alpha.alpha, want.alpha.alpha)
            assert got.fallback_count == want.fallback_count
        np.testing.assert_array_equal(shared[2].alpha.alpha, field.alpha)
        assert shared[0].fallback_count == 0
        assert shared[3].fallback_count == (553 if svdt.u.shape[0] > svdt.s.size else 0)

    def test_refuses_before_any_work(self, noisy_disk, monkeypatch):
        noisy, delta, svdt = noisy_disk
        grid = SamplingGrid.make(2.0, 6)
        monkeypatch.setattr(regsolve, "_root_alpha", None)
        with pytest.raises(TypeError, match="unknown regularization strategy"):
            lsm_indicators(noisy, grid, (Morozov(delta), object()), svdt)
        other = RegField(SamplingGrid.make(2.0, 7), np.ones(49))
        with pytest.raises(ValueError, match="different grid"):
            lsm_indicators(noisy, grid, (Morozov(delta), Field(other)), svdt)
        assert lsm_indicators(noisy, grid, (), svdt) == []


def _complex_oracle(noisy, grid, strategies, svdt):
    """Alphas, indicators and fallbacks from complex right-hand sides, one
    testfunction_rhs per point, projected by U^H with |.|^2 and
    svdt.outside, then the same root finder and filter sum.  Returns
    (alpha, indicator, fallbacks) per strategy, |beta|^2 and the energies."""
    s = svdt.s
    rhs = np.column_stack([phi_rhs(z, noisy.theta, noisy.k) for z in grid.points])
    beta2 = np.abs(svdt.u.conj().T @ rhs) ** 2
    outside = svdt.outside(rhs)
    results = []
    for strategy in strategies:
        fallbacks = 0
        if isinstance(strategy, Morozov):
            alpha, no_root = regsolve._root_alpha(s, beta2, outside, strategy.delta)
            alpha[no_root] = strategy.delta * s[0]
            fallbacks = int(no_root.sum())
        elif isinstance(strategy, Constant):
            alpha = np.full(grid.resolution ** 2, strategy.alpha)
        else:
            alpha = strategy.field.alpha
        gnorm2 = np.sum((s[:, None] / (s[:, None] ** 2 + alpha)) ** 2 * beta2, axis=0)
        results.append((alpha, 1.0 / np.sqrt(gnorm2), fallbacks))
    return results, beta2, outside


class TestRealProjection:
    @pytest.mark.parametrize("shape", [(50, 50), (60, 40), (40, 60),
                                       (45, 45), (61, 40), (41, 60)],
                             ids="{0[0]}x{0[1]}".format)
    def test_matches_complex_oracle(self, shape, monkeypatch):
        """Even m folds antipodal angles and odd m does not; m > n leaves
        out-of-range energy and m <= n none.  Over row blocks of 17, 17 and
        6 rows, |beta|^2 and the out-of-range energy match the complex
        projection to 1e-14 of ||phi_z||^2, and alphas and indicators to
        1e-14 relative with the same fallbacks.  Near-rootless Morozov
        roots at 0.3 delta get the bound their conditioning allows, with
        the discrepancy moved by the projections' difference."""
        noisy, delta, svdt, grid = _nonsquare_kite(*shape)
        monkeypatch.setattr(regsolve, "_CHUNK", 700)
        blocks = []
        real = regsolve._root_alpha

        def spy(s, beta2, outside, delta):
            blocks.append((beta2.copy(), outside.copy()))
            return real(s, beta2, outside, delta)

        monkeypatch.setattr(regsolve, "_root_alpha", spy)
        field = RegField(grid, np.linspace(1e-3, 1.0, grid.resolution ** 2) * svdt.s[0] ** 2)
        strategies = (Morozov(delta), Constant(svdt.s[0] / 100.0), Field(field),
                      Morozov(0.3 * delta))
        got = lsm_indicators(noisy, grid, strategies, svdt)
        monkeypatch.setattr(regsolve, "_root_alpha", real)
        want, want_beta2, want_outside = _complex_oracle(noisy, grid, strategies, svdt)
        assert [b[0].shape[1] for b in blocks] == [680, 680, 680, 680, 240, 240]
        beta2 = np.hstack([b[0] for b in blocks[::2]])
        outside = np.concatenate([b[1] for b in blocks[::2]])
        norm2 = shape[0] / (8.0 * np.pi * noisy.k)
        assert np.all(np.abs(beta2 - want_beta2) <= 1e-14 * norm2)
        assert np.all(np.abs(outside - want_outside) <= 1e-14 * norm2)
        assert np.all(outside == 0.0) == (shape[0] <= shape[1])
        for result, (alpha, values, fallbacks) in zip(got, want):
            assert result.fallback_count == fallbacks
            np.testing.assert_allclose(result.indicator.values, values, rtol=1e-14, atol=0.0)
        for result, (alpha, _, _) in zip(got[:3], want[:3]):
            np.testing.assert_allclose(result.alpha.alpha, alpha, rtol=1e-14, atol=0.0)
        alpha = want[3][0]
        rooted = alpha != 0.3 * delta * svdt.s[0]
        np.testing.assert_array_equal(got[3].alpha.alpha[~rooted], alpha[~rooted])
        s2, a = (svdt.s ** 2)[:, None], alpha[rooted]
        moved = np.abs(((a ** 2 - 0.09 * delta ** 2 * s2) / (s2 + a) ** 2
                        * (beta2 - want_beta2)[:, rooted]).sum(axis=0)
                       + (outside - want_outside)[rooted])
        bound = _root_rtol(svdt.s, want_beta2[:, rooted], want_outside[rooted],
                           0.3 * delta, a, floor=1e-14, moved=moved)
        assert np.all(np.abs(got[3].alpha.alpha[rooted] / a - 1.0) <= bound)
        assert (got[3].fallback_count > 0) == (shape[0] > shape[1])


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

    @pytest.mark.parametrize("values", [
        np.array([1.0, -1.0, 0.0, -0.0, 2.0, 3.0, 1e16, 2.0 ** 53 + 2.0,
                  1e-300, -1e-300, 5e-324, 2.2250738585072014e-308 / 3.0,
                  1e300, -1.7976931348623157e308, 0.5, 2.5, 0.125, 1.5e-5,
                  0.1 + 0.2, 1.0000000000000005, 1e22, 1e21, 123456.5,
                  -0.015, 9.999999999999995, 7.0 / 3.0, 1e-7, 5e-5,
                  3.0000000000000004, 4.35, 1e-323, 0.3]),
        np.full(32, 0.25),
    ], ids=["awkward", "constant"])
    def test_csv_bytes_match_format_map(self, tmp_path, values):
        """Byte-for-byte equal to formatting rows with `"{}{:.17g}".format`
        mapped over prefixes and values and joined with newlines."""
        grid = SamplingGrid.make(2.5, 6)
        values = np.resize(values, 36)
        axis = [f"{a:.17g}," for a in grid.axis.tolist()]
        prefixes = [x + y for y in axis for x in axis]
        rows = map("{}{:.17g}".format, prefixes, values.tolist())
        path = tmp_path / "field.csv"
        write_field_csv(path, grid, values)
        assert path.read_bytes() == ("x,y,value\n" + "\n".join(rows)
                                     + "\n").encode("ascii")

    @pytest.mark.parametrize("halfwidth, resolution", [(4.0, 100), (1.3, 9)])
    def test_csv_bytes_match_the_per_call_prefix_writer(self, tmp_path, halfwidth,
                                                        resolution):
        """The grid builds its `x,y,` prefixes once; every file written on
        it has the bytes of a writer that formats them on each call."""
        grid = SamplingGrid.make(halfwidth, resolution)
        rng = np.random.default_rng(resolution)
        axis = [f"{a:.17g}," for a in grid.axis.tolist()]
        for trial in range(3):
            values = rng.standard_normal(resolution ** 2) * 10.0 ** (trial - 1)
            flat = [None] * (2 * values.size)
            flat[::2] = [x + y for y in axis for x in axis]
            flat[1::2] = values.tolist()
            want = "x,y,value\n" + ("%s%.17g\n" * values.size) % tuple(flat)
            path = tmp_path / f"field{trial}.csv"
            write_field_csv(path, grid, values)
            assert path.read_bytes() == want.encode("ascii")
        assert grid.csv_prefixes is grid.csv_prefixes

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
