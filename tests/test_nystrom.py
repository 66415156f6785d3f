"""Boundary-integral far fields: quadrature, accuracy, and physics checks."""

import numpy as np
import pytest

from lsmnet import nystrom
from lsmnet.forward import disk_farfield, spectral_norm
from lsmnet.geometry import Disk, Ellipse, Kite, Scene
from lsmnet.nystrom import (EULER_GAMMA, _BoundaryData,
                            _self_block, kress_weights, nystrom_farfield)
from lsmnet.specialfn import bessel_j, bessel_y

K = 2.0 * np.pi

# Integral of log(4 sin^2(t/2)) * exp(cos t) over one period, mpmath
# quadrature at 30 digits split at the endpoint singularities, frozen.
LOG_KERNEL_INTEGRAL = -8.0571167158743689


def _kite(center=(0.0, 0.0), scale=1.0):
    return Scene((Kite(center, scale),))


def _reference_self_block(bd, k, eta):
    """The self block with J0, Y0, J1 and Y1 evaluated on the whole q x q
    distance matrix: the oracle for the one-triangle `_self_block`."""
    q = bd.t.size
    n = q // 2
    diffs = bd.x[:, None, :] - bd.x[None, :, :]
    r = np.linalg.norm(diffs, axis=2)
    np.fill_diagonal(r, 1.0)
    w = np.einsum("ijc,jc->ij", diffs, bd.normal)
    j0, y0 = bessel_j(0, k * r), bessel_y(0, k * r)
    j1, y1 = bessel_j(1, k * r), bessel_y(1, k * r)
    single = 0.5j * (j0 + 1j * y0) * bd.speed[None, :]
    single1 = -(1.0 / (2.0 * np.pi)) * j0 * bd.speed[None, :]
    double = 0.5j * k * (j1 + 1j * y1) * w / r
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
    weight_matrix = kress_weights(n)[np.abs(d[:, None] - d[None, :])]
    trapezoid = np.pi / n
    return (weight_matrix * double1 + trapezoid * double2
            - 1j * eta * (weight_matrix * single1 + trapezoid * single2))


class TestKressWeights:
    def test_log_kernel_quadrature_converges(self):
        """The weighted sum reproduces a frozen singular integral.

        The rule approximates the log-kernel integral against a smooth
        periodic density; errors must sit at round-off level already for
        modest point counts because the density is entire.
        """
        for half in (16, 32, 64):
            weights = kress_weights(half)
            t = np.pi * np.arange(2 * half) / half
            approx = float(weights @ np.exp(np.cos(t)))
            assert abs(approx - LOG_KERNEL_INTEGRAL) < 1e-12

    def test_fourier_mode_identity(self):
        # Exactness on trigonometric polynomials: the rule maps the mode
        # exp(imt) to -(2 pi/m) exp(im t_i) and annihilates constants.
        half = 24
        weights = kress_weights(half)
        t = np.pi * np.arange(2 * half) / half
        i = 3
        row = weights[np.abs(np.arange(2 * half) - i) % (2 * half)]
        assert abs(np.sum(row)) < 1e-12
        for m in (1, 2, 7, half - 1):
            got = row @ np.exp(1j * m * t)
            want = -(2.0 * np.pi / m) * np.exp(1j * m * t[i])
            assert abs(got - want) < 1e-12

    def test_even_and_periodic(self):
        half = 10
        weights = kress_weights(half)
        assert weights.shape == (2 * half,)
        # R_j = R_{2n-j}: the kernel depends on the index difference only.
        np.testing.assert_allclose(weights[1:], weights[1:][::-1], rtol=1e-14)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            kress_weights(0)


class TestOneTriangleSelfBlock:
    """The Bessel values mirrored from one triangle of the symmetric
    distance matrix give the full-matrix self block to the bit."""

    @pytest.mark.parametrize("q", [32, 128, 256])
    @pytest.mark.parametrize("obstacle", [
        Kite((0.3, -0.2), 0.8),
        Ellipse((-0.4, 0.5), 1.3, 0.6, rotation=0.5),
        Disk((0.9, -1.1), 0.7),
    ], ids=["kite", "ellipse", "disk"])
    def test_self_block_matches_full_matrix(self, obstacle, q):
        bd = _BoundaryData(obstacle, q)
        got = _self_block(bd, K, K)
        want = _reference_self_block(bd, K, K)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scene", [
        _kite((0.3, -0.2), 0.8),
        Scene((Kite((-1.5, 0.5), 0.6), Ellipse((1.5, -0.5), 0.8, 0.5, 0.3))),
    ], ids=["one", "two"])
    def test_farfield_matches_full_matrix(self, scene, monkeypatch):
        got = nystrom_farfield(scene, K, 24, 20).entries
        monkeypatch.setattr(nystrom, "_self_block", _reference_self_block)
        want = nystrom_farfield(scene, K, 24, 20).entries
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()


class TestFixedOrderKernels:
    """The far field from the Cephes order-0 and order-1 kernels against
    the same solve with scipy's general-order jv/yv."""

    @pytest.mark.parametrize("scene", [
        _kite((0.0, 0.0), 0.8),
        Scene((Ellipse((-1.5, 0.5), 0.8, 0.5, 0.3), Disk((1.5, -0.5), 0.6))),
    ], ids=["kite", "ellipse-and-disk"])
    def test_farfield_within_1e14_of_general_order(self, scene, request):
        got = nystrom_farfield(scene, K, 50, 50).entries
        request.getfixturevalue("general_order_bessel")
        want = nystrom_farfield(scene, K, 50, 50).entries
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.usefixtures("no_general_order")
    def test_solve_never_calls_the_general_order_routines(self):
        field = nystrom_farfield(_kite((0.3, -0.2), 0.8), K, 16, 16,
                                 quadrature_points=32)
        assert np.all(np.isfinite(field.entries))


class TestDiskAgainstSeries:
    def test_matches_analytic_disk(self):
        """Centered unit disk at k = 2 pi agrees with the cosine series."""
        nys = nystrom_farfield(Scene((Disk((0.0, 0.0), 1.0),)), K, 12, 12,
                               quadrature_points=128)
        series = disk_farfield((0.0, 0.0), 1.0, K, 12, 12)
        err = np.max(np.abs(nys.entries - series.entries))
        assert err < 1e-6 * np.max(np.abs(series.entries))

    def test_matches_translated_disk(self):
        nys = nystrom_farfield(Scene((Disk((0.9, -1.1), 0.7),)), K, 10, 14,
                               quadrature_points=96)
        series = disk_farfield((0.9, -1.1), 0.7, K, 10, 14)
        err = np.max(np.abs(nys.entries - series.entries))
        assert err < 1e-6 * np.max(np.abs(series.entries))

    def test_metadata(self):
        field = nystrom_farfield(_kite(), K, 6, 8, quadrature_points=64)
        assert field.k == K
        assert field.entries.shape == (6, 8)
        assert np.all(np.isfinite(field.entries))


class TestMultipleScattering:
    def test_two_disks_differ_from_superposition(self):
        """The block solve couples the obstacles.

        Two unit disks three wavelengths apart rescatter each other's
        field, so summing the individual far fields misses a visible
        part of the operator.
        """
        left = Disk((-1.5, 0.0), 1.0)
        right = Disk((1.5, 0.0), 1.0)
        coupled = nystrom_farfield(Scene((left, right)), K, 16, 16,
                                   quadrature_points=96)
        alone = [nystrom_farfield(Scene((d,)), K, 16, 16, quadrature_points=96)
                 for d in (left, right)]
        gap = spectral_norm(
            coupled.entries - alone[0].entries - alone[1].entries)
        assert gap > 1e-3 * spectral_norm(coupled.entries)


class TestPhysics:
    def test_reciprocity(self):
        """Swapping observation and incidence with both directions negated
        leaves the far field unchanged, entrywise to 1e-6."""
        n = 16
        field = nystrom_farfield(_kite((0.3, -0.2), 0.8), K, n, n,
                                 quadrature_points=96)
        entries = field.entries
        swapped = np.empty_like(entries)
        for i in range(n):
            for j in range(n):
                swapped[i, j] = entries[(j + n // 2) % n, (i + n // 2) % n]
        scale = np.max(np.abs(entries))
        assert np.max(np.abs(entries - swapped)) < 1e-6 * scale

    def test_translation_preserves_singular_values(self):
        shape = dict(semi_axis_a=1.1, semi_axis_b=0.6, rotation=0.3)
        home = nystrom_farfield(Scene((Ellipse((0.0, 0.0), **shape),)),
                                K, 20, 20, quadrature_points=96)
        moved = nystrom_farfield(Scene((Ellipse((1.2, -0.7), **shape),)),
                                 K, 20, 20, quadrature_points=96)
        s0 = np.linalg.svd(home.entries, compute_uv=False)
        s1 = np.linalg.svd(moved.entries, compute_uv=False)
        assert np.max(np.abs(s0 - s1)) < 1e-10 * s0[0]


def _refinement_gap(k, q):
    """Relative spectral-norm change of the kite's far field from q to 2q."""
    coarse = nystrom_farfield(_kite(), k, 8, 8, quadrature_points=q)
    fine = nystrom_farfield(_kite(), k, 8, 8, quadrature_points=2 * q)
    return spectral_norm(coarse.entries - fine.entries) / spectral_norm(fine.entries)


class TestSelfCheck:
    """Self-convergence: doubling the quadrature moves a resolved far
    field by at most 1e-8 relative, and an unresolved one by more."""

    def test_passes_when_resolved(self):
        assert _refinement_gap(K, 96) <= 1e-8

    def test_gap_exceeds_bound_when_underresolved(self):
        # 32 points cannot resolve the kite at twice the wavenumber.
        assert _refinement_gap(2 * K, 32) > 1e-8


class TestValidation:
    def test_rejects_odd_quadrature(self):
        with pytest.raises(ValueError, match="even"):
            nystrom_farfield(_kite(), K, 8, 8, quadrature_points=33)

    def test_rejects_small_quadrature(self):
        with pytest.raises(ValueError):
            nystrom_farfield(_kite(), K, 8, 8, quadrature_points=16)

    def test_rejects_nonpositive_wavenumber(self):
        with pytest.raises(ValueError):
            nystrom_farfield(_kite(), 0.0, 8, 8)

    @pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_wavenumber_by_name(self, k):
        with pytest.raises(ValueError, match=f"wavenumber must be positive and finite, got {k}"):
            nystrom_farfield(_kite(), k, 8, 8)

    def test_rejects_tiny_angle_grids(self):
        with pytest.raises(ValueError):
            nystrom_farfield(_kite(), K, 2, 8)
