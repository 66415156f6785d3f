"""Far-field assembly, noise, and angular resampling."""

import functools
import math
import sys

import mpmath
import numpy as np
import pytest

from lsmnet import forward
from lsmnet.forward import (ORDER_CAP, FarFieldMatrix, add_noise,
                            check_wavelength, check_wavenumber, disk_farfield,
                            disk_farfields, fold_to_shape, fourier_resample,
                            incidence_angles, observation_angles,
                            operator_eigenvalues_disk, spectral_norm)
from scipy_bessel import scipy_ratio_table

K = 2.0 * np.pi


def _one_row(kr, order):
    """The ratio table of one disk alone: J_p(kr)/H_p(kr), p = 0..order."""
    return forward._ratio_table(np.array([kr]), np.array([order]))[0, :order + 1]


def _disk_series_parts(center, radius, k, m, n):
    """One disk's ratios J_p/H_p, translation and amplitude."""
    center = np.asarray(center, dtype=float)
    truncation = int(np.ceil(k * radius)) + 20
    theta = observation_angles(m)
    phi = incidence_angles(n)
    ratios = _one_row(k * radius, truncation)
    xhat_dot_c = center[0] * np.cos(theta) + center[1] * np.sin(theta)
    dhat_dot_c = center[0] * np.cos(phi) + center[1] * np.sin(phi)
    shift = np.exp(-1j * k * xhat_dot_c)[:, None] * np.exp(1j * k * dhat_dot_c)[None, :]
    amplitude = -np.sqrt(2.0 / (k * np.pi)) * np.exp(-1j * np.pi / 4.0)
    return ratios, amplitude * shift


def scalar_disk_farfield(center, radius, k, m, n):
    """Oracle: the one-disk series, summed once per difference angle.

    theta_i - phi_j takes the L = lcm(m, n) values 2 pi l / L with
    l = (i L/m - j L/n) mod L; the series is summed on those and
    gathered.  Every batched entry must equal it bit for bit.
    """
    ratios, scale = _disk_series_parts(center, radius, k, m, n)
    size = math.lcm(m, n)
    psi = 2.0 * np.pi * np.arange(size) / size
    series = np.full(size, ratios[0], dtype=complex)
    for p in range(1, ratios.size):
        series += 2.0 * ratios[p] * np.cos(p * psi)
    index = (np.arange(m)[:, None] * (size // m)
             - np.arange(n)[None, :] * (size // n)) % size
    return scale * series[index]


def grid_disk_farfield(center, radius, k, m, n):
    """Reference: the same series summed at every (i, j) entry's own
    theta_i - phi_j, with no difference angle shared between entries."""
    ratios, scale = _disk_series_parts(center, radius, k, m, n)
    diff = observation_angles(m)[:, None] - incidence_angles(n)[None, :]
    series = np.full((m, n), ratios[0], dtype=complex)
    for p in range(1, ratios.size):
        series += 2.0 * ratios[p] * np.cos(p * diff)
    return scale * series


def mpmath_disk_farfield(center, radius, k, m, n, digits=40):
    """Reference at `digits` significant digits: mpmath's Bessel
    functions, exact grid angles, and 20 more orders than the program."""
    with mpmath.workdps(digits):
        k_mp, kr = mpmath.mpf(k), mpmath.mpf(k) * mpmath.mpf(radius)
        cx, cy = (mpmath.mpf(float(x)) for x in center)
        orders = range(int(np.ceil(k * radius)) + 41)
        ratios = [mpmath.besselj(p, kr) / mpmath.hankel1(p, kr) for p in orders]
        amplitude = -mpmath.sqrt(2 / (k_mp * mpmath.pi)) * mpmath.expjpi(-0.25)
        out = np.empty((m, n), dtype=complex)
        for i in range(m):
            theta = 2 * mpmath.pi * i / m
            for j in range(n):
                phi = 2 * mpmath.pi * j / n
                series = ratios[0] + 2 * sum(
                    ratios[p] * mpmath.cos(p * (theta - phi)) for p in orders[1:])
                phase = k_mp * (cx * (mpmath.cos(phi) - mpmath.cos(theta))
                                + cy * (mpmath.sin(phi) - mpmath.sin(theta)))
                out[i, j] = complex(amplitude * mpmath.expj(phase) * series)
    return out


def test_angle_grids():
    theta = observation_angles(8)
    np.testing.assert_allclose(theta, 2.0 * np.pi * np.arange(8) / 8)
    with pytest.raises(ValueError):
        observation_angles(3)
    with pytest.raises(ValueError):
        incidence_angles(0)


def test_matrix_validation():
    entries = np.ones((6, 5), dtype=complex)
    ff = FarFieldMatrix(entries, K)
    assert ff.shape == (6, 5)
    np.testing.assert_array_equal(ff.theta, observation_angles(6))
    np.testing.assert_array_equal(ff.phi, incidence_angles(5))
    with pytest.raises(ValueError):
        FarFieldMatrix(entries, -1.0)
    with pytest.raises(ValueError):
        FarFieldMatrix(np.ones((3, 5)), K)
    bad = entries.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        FarFieldMatrix(bad, K)


def test_centered_disk_depends_on_angle_difference():
    """For a centered disk the entry is a function of theta - phi only."""
    ff = disk_farfield((0.0, 0.0), 1.0, K, 24, 24)
    for shift in (1, 5, 11):
        rolled = np.roll(np.roll(ff.entries, shift, axis=0), shift, axis=1)
        np.testing.assert_allclose(rolled, ff.entries, rtol=0, atol=1e-13)


def test_translation_leaves_singular_values():
    """Moving the obstacle only rotates the singular vectors.

    The tail singular values sit at the round-off floor of the matrix,
    so the comparison is relative to the largest one, which is the only
    scale the decomposition resolves against.
    """
    centered = disk_farfield((0.0, 0.0), 0.7, K, 40, 40)
    moved = disk_farfield((1.0, 0.5), 0.7, K, 40, 40)
    s0 = np.linalg.svd(centered.entries, compute_uv=False)
    s1 = np.linalg.svd(moved.entries, compute_uv=False)
    np.testing.assert_allclose(s1, s0, rtol=0, atol=1e-10 * s0[0])


def test_circulant_eigenvalues_match_closed_form():
    """Matrix eigenvalues x (2 pi / n) recover the operator eigenvalues.

    The centered-disk matrix with m = n is circulant, so its spectrum is
    the DFT of the first column; each mode p carries the closed-form
    lambda_p scaled by n/(2 pi).  The radius keeps lambda_15 well above
    the DFT round-off floor of the large modes, which is what limits
    how small an eigenvalue a 1e-8 relative comparison can reach.
    """
    n = 50
    radius = 1.5
    ff = disk_farfield((0.0, 0.0), radius, K, n, n)
    eig = np.fft.fft(ff.entries[:, 0]) * (2.0 * np.pi / n)
    lam = operator_eigenvalues_disk(radius, K, 15)
    for p in range(16):
        np.testing.assert_allclose(eig[(n - p) % n], lam[p], rtol=1e-8)
        np.testing.assert_allclose(eig[p], lam[p], rtol=1e-8)


def test_truncation_guard():
    """The series runs to N = ceil(kR) + 20, which the order cap bounds."""
    disk_farfield((0.0, 0.0), (ORDER_CAP - 20.5) / K, K, 8, 8)
    with pytest.raises(ValueError, match=f"exceeds cap {ORDER_CAP}"):
        disk_farfield((0.0, 0.0), (ORDER_CAP - 19.5) / K, K, 8, 8)


def _disks(count, seed, r_lo=0.05, r_hi=3.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-3.0, 3.0, size=(count, 2)), rng.uniform(r_lo, r_hi, size=count)


def _assert_matches_oracle(entries, centers, radii, k, m, n):
    assert entries.shape == (len(radii), m, n)
    for i, (center, radius) in enumerate(zip(centers, radii)):
        want = scalar_disk_farfield(center, radius, k, m, n)
        np.testing.assert_array_equal(entries[i], want, err_msg=f"disk {i}")


class TestBatchedDisks:
    def test_block_spanning_several_truncations_is_bitwise(self):
        # kR from 0.3 to 19: truncations 21 through 39 share one block.
        centers, radii = _disks(40, 0)
        assert len(set(np.ceil(K * radii).astype(int))) > 10
        entries = disk_farfields(centers, radii, K, 12, 12)
        _assert_matches_oracle(entries, centers, radii, K, 12, 12)

    def test_rectangular_grid_is_bitwise(self):
        centers, radii = _disks(9, 1)
        entries = disk_farfields(centers, radii, 1.7 * K, 10, 17)
        _assert_matches_oracle(entries, centers, radii, 1.7 * K, 10, 17)

    def test_partial_last_block_is_bitwise(self, monkeypatch):
        # Three disks per block: blocks of 3, 3, 3 and a last one of 1.
        monkeypatch.setattr(forward, "_BLOCK_ENTRIES", 3 * 8 * 8)
        centers, radii = _disks(10, 3)
        entries = disk_farfields(centers, radii, K, 8, 8)
        _assert_matches_oracle(entries, centers, radii, K, 8, 8)

    def test_one_ratio_table_serves_every_block(self, monkeypatch):
        # Three disks per block: four blocks, one ratio table for all ten.
        monkeypatch.setattr(forward, "_BLOCK_ENTRIES", 3 * 8 * 8)
        calls = []
        table = forward._ratio_table

        def spy(kr, orders):
            calls.append(kr.size)
            return table(kr, orders)

        monkeypatch.setattr(forward, "_ratio_table", spy)
        centers, radii = _disks(10, 13)
        entries = disk_farfields(centers, radii, K, 8, 8)
        assert calls == [10]
        disk_farfields(centers[:7], radii[:7], K, 8, 8)
        assert calls == [10, 7]
        _assert_matches_oracle(entries, centers, radii, K, 8, 8)

    def test_default_blocks_at_corpus_shape_are_bitwise(self):
        # More disks than one default block holds at 30 x 30.
        count = forward._BLOCK_ENTRIES // 900 + 5
        centers, radii = _disks(count, 4, r_lo=0.5, r_hi=1.5)
        entries = disk_farfields(centers, radii, K, 30, 30)
        _assert_matches_oracle(entries, centers, radii, K, 30, 30)

    def test_ratio_table_stops_at_each_disks_truncation(self):
        kr = np.array([0.4, 7.9, 3.0, 12.5])
        orders = np.array([21, 28, 23, 33])
        table = forward._ratio_table(kr, orders)
        assert table.shape == (4, 34)
        for row, x, top in zip(table, kr, orders):
            np.testing.assert_array_equal(row[:top + 1], _one_row(x, top))
            assert np.all(row[:top + 1] != 0.0) and np.all(row[top + 1:] == 0.0)

    def test_one_disk_call_is_the_batched_series(self):
        entries = disk_farfield((0.3, -1.2), 0.8, K, 9, 11).entries
        np.testing.assert_array_equal(
            entries, scalar_disk_farfield((0.3, -1.2), 0.8, K, 9, 11))

    def test_within_1e14_of_general_order_kernels(self, request):
        # The corpus radii, half to one and a half wavelengths: kR from
        # 3.1 to 9.4 and series orders up to N = 30.
        radii = np.linspace(0.5, 1.5, 41)
        centers = np.random.default_rng(7).uniform(-3.0, 3.0, size=(41, 2))
        assert math.ceil(K * radii[-1]) + 20 == 30
        got = disk_farfields(centers, radii, K, 30, 30)
        request.getfixturevalue("general_order_bessel")
        want = disk_farfields(centers, radii, K, 30, 30)
        gap = np.max(np.abs(got - want), axis=(1, 2))
        assert np.all(gap <= 1e-14 * np.max(np.abs(want), axis=(1, 2)))

    # The batched tests' disk sets, plus shapes whose difference grid is
    # coprime (L = m n), a multiple of one side (L = 24) and large (64 x 64).
    @pytest.mark.parametrize("count, seed, k, m, n", [
        (40, 0, K, 12, 12), (9, 1, 1.7 * K, 10, 17), (10, 3, K, 8, 8),
        (77, 4, K, 30, 30), (12, 8, K, 31, 17), (12, 9, 1.3 * K, 12, 24),
        (6, 10, K, 64, 64),
    ])
    def test_within_2e14_of_the_per_entry_sum(self, count, seed, k, m, n):
        centers, radii = _disks(count, seed)
        got = disk_farfields(centers, radii, k, m, n)
        for i, (center, radius) in enumerate(zip(centers, radii)):
            want = grid_disk_farfield(center, radius, k, m, n)
            gap = np.max(np.abs(got[i] - want))
            assert gap <= 2e-14 * np.max(np.abs(want)), f"disk {i}: {gap}"

    # Nine disks within a wavelength of the origin, held to 1e-14 of the
    # peak, and four farther out.  The translation phase k (d - x).c
    # reaches 2 k |c| and is rounded in double precision on any grid, so
    # its error grows with k |c|; far disks get 1e-14 per wavelength of
    # offset (the per-entry sum reads the same there).
    @pytest.mark.parametrize("center, radius, k, m, n", [
        ((0.0, 0.0), 0.5, K, 12, 12), ((0.4, -0.9), 1.1, K, 12, 12),
        ((-0.5, 0.7), 1.5, K, 10, 17), ((0.6, 0.6), 0.07, K, 10, 17),
        ((0.3, -0.4), 0.8, 1.7 * K, 9, 11), ((0.0, 0.0), 2.9, K, 8, 8),
        ((-0.6, -0.6), 0.9, 0.6 * K, 31, 17), ((0.0, 1.0), 1.3, K, 12, 24),
        ((0.5, -0.5), 1.0, K, 30, 30),
        ((-2.5, 1.7), 1.5, K, 10, 17), ((1.2, 2.8), 0.07, K, 10, 17),
        ((4.0, 4.0), 0.07, K, 12, 12), ((3.0, -3.0), 1.0, K, 30, 30),
    ])
    def test_within_1e14_of_a_40_digit_reference(self, center, radius, k, m, n):
        got = disk_farfield(center, radius, k, m, n).entries
        want = mpmath_disk_farfield(center, radius, k, m, n)
        wavelengths = max(1.0, k * math.hypot(*center) / (2.0 * np.pi))
        gap = np.max(np.abs(got - want))
        assert gap <= 1e-14 * wavelengths * np.max(np.abs(want))

    def test_eigenvalues_share_the_ratio_table(self):
        lam = operator_eigenvalues_disk(0.9, K, 25)
        ratios = _one_row(K * 0.9, 25)
        np.testing.assert_array_equal(
            lam, -np.sqrt(8.0 * np.pi / K) * np.exp(-1j * np.pi / 4.0) * ratios)

    # 1e-308 gave 16 of 16 entries NaN, silently, before kR had a floor.
    @pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -0.5, 1e-308, 5e-324])
    def test_refuses_bad_radius_by_index(self, radius):
        centers, radii = _disks(5, 5)
        radii[3] = radius
        with pytest.raises(ValueError, match="disk 3: "):
            disk_farfields(centers, radii, K, 8, 8)

    # k R overflowed to inf, then warned twice and failed in specialfn; a
    # finite kR past 2**63 was cast to a negative order and came out zeros.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_refuses_overflowing_kr_by_index(self):
        centers, radii = _disks(4, 7)
        radii[2] = 1e10
        with pytest.raises(ValueError, match=r"^disk 2: kR = inf is not finite$"):
            disk_farfields(centers, radii, 1e300, 8, 8)
        with pytest.raises(ValueError, match="disk 0: kR = inf is not finite"):
            disk_farfields([[0.0, 0.0]], [1e10], 1e300, 4, 4)
        radii[2] = 1e19
        with pytest.raises(ValueError, match=r"^disk 2: kR = 2e\+19 needs order "
                           rf"20000000000000000000, which exceeds cap {ORDER_CAP}$"):
            disk_farfields(centers, radii, 2.0, 8, 8)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_center_by_index(self, value):
        centers, radii = _disks(5, 6)
        centers[2, 1] = value
        with pytest.raises(ValueError, match="disk 2: "):
            disk_farfields(centers, radii, K, 8, 8)

    @pytest.mark.parametrize("centers, radii", [
        (np.zeros((4, 3)), np.ones(4)),
        (np.zeros(2), np.ones(1)),
        (np.zeros((4, 2)), np.ones(3)),
        ([[0.0, 0.0], [1.0]], [1.0, 1.0]),
    ])
    def test_refuses_malformed_centers(self, centers, radii):
        with pytest.raises(ValueError, match="centers"):
            disk_farfields(centers, radii, K, 8, 8)

    @pytest.mark.parametrize("center, radius, k, match", [
        ((0.0, 0.0, 0.0), 1.0, K, r"centers \(1, 3\)"),
        (0.5, 1.0, K, r"centers \(1,\)"),
        ((0.0, 0.0), 0.0, K, "disk 0: "),
        ((0.0, 0.0), np.nan, K, "disk 0: "),
        ((0.0, 0.0), 1.0, 0.0, "wavenumber must be positive"),
    ])
    def test_one_disk_call_refuses_what_the_batch_refuses(self, center, radius, k, match):
        with pytest.raises(ValueError, match=match):
            disk_farfield(center, radius, k, 8, 8)


@functools.lru_cache(maxsize=None)
def _mpmath_ratios(kr, order, digits=40):
    """J_p(kr)/H_p(kr), p = 0..order, from mpmath at `digits` digits."""
    with mpmath.workdps(digits):
        x = mpmath.mpf(kr)
        return np.array([complex(mpmath.besselj(p, x) / mpmath.hankel1(p, x))
                         for p in range(order + 1)])


def _first_overflowing_order(kr):
    """The lowest p at which |Y_p(kr)| exceeds the largest double."""
    with mpmath.workdps(30):
        x = mpmath.mpf(kr)
        return next(p for p in range(ORDER_CAP + 1)
                    if abs(mpmath.bessely(p, x)) > sys.float_info.max)


# kR from 0.05 to 179.4: each row with its own N = ceil(kR) + 20, up to
# the cap.  The bounds are the levels the SciPy table met before the
# recurrence replaced it; both are held to them.
_TABLE_KRS = [float(x) for x in np.concatenate([np.geomspace(0.05, 40.0, 16),
                                                np.linspace(47.3, 179.4, 8)])]


class TestRatioTable:
    @pytest.mark.parametrize("table", [forward._ratio_table, scipy_ratio_table],
                             ids=["recurrence", "scipy"])
    def test_within_the_fixed_bounds_of_40_digit_ratios(self, table):
        kr = np.array(_TABLE_KRS)
        orders = np.ceil(kr).astype(int) + 20
        assert orders.max() == ORDER_CAP
        got = table(kr, orders)
        for row, x, top in zip(got, kr, orders):
            want = _mpmath_ratios(float(x), int(top))
            error = np.abs(row[:top + 1] - want)
            peak = np.max(np.abs(want))
            assert np.max(error) <= (5e-15 if x <= 40.0 else 5e-14) * peak, x
            tail = np.arange(top + 1) >= x + 1.0
            assert np.all(error[tail] <= 1e-13 * np.abs(want[tail])), x

    # A short row's peak can sit far below the ratio's bound |J/H| <= 1;
    # its error is the rounding of about kR recurrence steps, so it is
    # held to the full rows' level at the cap, 5e-14, in absolute terms.
    @pytest.mark.parametrize("kr, p_max", [
        (0.3, 0), (5.0, 0), (100.0, 0), (100.0, 3), (179.9, 0), (150.3, 2),
    ])
    def test_short_rows_start_miller_past_kr(self, kr, p_max):
        radius = kr / K
        got = operator_eigenvalues_disk(radius, K, p_max)
        scale = -np.sqrt(8.0 * np.pi / K) * np.exp(-1j * np.pi / 4.0)
        assert got.shape == (p_max + 1,)
        np.testing.assert_allclose(got / scale, _mpmath_ratios(K * radius, p_max),
                                   rtol=0, atol=5e-14)

    def test_block_mixing_kr_is_each_row_alone(self):
        kr = np.geomspace(0.05, 179.9, 57)[::-1]
        orders = np.minimum(np.ceil(kr).astype(int) + 20, ORDER_CAP)
        orders[::7] = 0
        table = forward._ratio_table(kr, orders)
        for row, x, top in zip(table, kr, orders):
            assert row[:top + 1].tobytes() == _one_row(x, top).tobytes(), x
            assert np.all(row[top + 1:] == 0.0)

    # Radii 0.05 to 3 at three wavelengths and three shapes.
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("m, n", [(30, 30), (31, 17), (12, 24)])
    def test_far_fields_within_4e15_of_the_scipy_table(self, monkeypatch, lam, m, n):
        centers, radii = _disks(24, 11 + m + n)
        k = 2.0 * np.pi / lam
        got = disk_farfields(centers, radii, k, m, n)
        monkeypatch.setattr(forward, "_ratio_table", scipy_ratio_table)
        want = disk_farfields(centers, radii, k, m, n)
        gap = np.max(np.abs(got - want), axis=(1, 2))
        assert np.all(gap <= 4e-15 * np.max(np.abs(want), axis=(1, 2)))

    @pytest.mark.usefixtures("no_general_order")
    def test_corpus_and_eigenvalues_call_no_general_order_kernel(self):
        centers, radii = _disks(30, 12)
        assert np.all(np.isfinite(disk_farfields(centers, radii, K, 12, 12)))
        assert np.all(np.isfinite(operator_eigenvalues_disk(0.7, K, ORDER_CAP)))

    def test_order_cap_is_refused_by_name(self):
        operator_eigenvalues_disk(0.5, K, ORDER_CAP)
        with pytest.raises(ValueError,
                           match=f"^p_max: order {ORDER_CAP + 1} exceeds cap {ORDER_CAP}$"):
            operator_eigenvalues_disk(0.5, K, ORDER_CAP + 1)


# Before the recurrence these radii gave NaN from orders 126, 158 and 188.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("radius", [0.05, 0.2, 0.5, 1.0, 3.0])
def test_eigenvalues_to_the_order_cap_are_finite_and_vanish(radius):
    lam = operator_eigenvalues_disk(radius, K, ORDER_CAP)
    assert lam.shape == (ORDER_CAP + 1,) and np.all(np.isfinite(lam))
    zero = np.flatnonzero(lam == 0.0)
    first_zero = zero[0] if zero.size else lam.size
    assert np.all(lam[:first_zero] != 0.0) and np.all(lam[first_zero:] == 0.0)
    # |J_p/H_p| ~ pi p J_p^2 underflows before Y_p overflows.
    if radius <= 0.5:
        assert first_zero <= _first_overflowing_order(K * radius)
    mags = np.abs(lam[math.ceil(K * radius + 1.0):])
    assert np.all(np.diff(mags) <= 0.0)


# A kR of MIN_KR next to kR = 179 (N = 199, Miller's highest start).  The
# old NaN floor was 2 * 38 / DBL_MAX, about 4.2e-307, for a row alone, and
# 500 / DBL_MAX in such a table: kR = 1e-306 was finite alone, NaN there.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kr_floor_holds_next_to_the_highest_miller_start():
    centers, radii = _disks(3, 14)
    radii[:2] = forward.MIN_KR, 179.0
    entries = disk_farfields(centers, radii, 1.0, 8, 8)
    assert np.all(np.isfinite(entries))
    for i, (center, radius) in enumerate(zip(centers, radii)):
        alone = disk_farfields([center], [radius], 1.0, 8, 8)[0]
        assert entries[i].tobytes() == alone.tobytes(), i
    for p_max in (3, ORDER_CAP):
        lam = operator_eigenvalues_disk(forward.MIN_KR, 1.0, p_max)
        assert np.all(np.isfinite(lam)) and lam[0] != 0.0
    radii[0] = 1e-306
    with pytest.raises(ValueError, match="disk 0: kR = 1e-306 is below 1e-300"):
        disk_farfields(centers, radii, 1.0, 8, 8)


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_wavenumber_and_wavelength_operands_are_refused_by_name(value):
    with pytest.raises(ValueError, match="wavenumber must be positive and finite"):
        check_wavenumber(value)
    with pytest.raises(ValueError, match="wavenumber must be positive and finite"):
        check_wavelength(1.0, value)
    with pytest.raises(ValueError, match="wavelength must be positive and finite"):
        check_wavelength(value, K)


def test_wavelength_check_passes_the_model_wavelength_only():
    check_wavelength(1.0, K)
    check_wavenumber(K)
    with pytest.raises(ValueError, match=r"training set at wavelength 0\.5 fed "
                                         r"to a model built for 1\b"):
        check_wavelength(1.0, 2.0 * K, "training set")
    # A wavenumber so small that 2 pi / k overflows is a mismatch, not a pass.
    with pytest.raises(ValueError, match="at wavelength inf"):
        check_wavelength(1.0, 1e-320)


@pytest.mark.parametrize("radius, k, match", [
    (np.nan, K, "radius must be positive and finite, got nan"),
    (np.inf, K, "radius must be positive and finite, got inf"),
    (0.0, K, "radius must be positive and finite, got 0.0"),
    (1e-308, K, r"disk 0: kR = 6\.28\d*e-308 is below 1e-300"),
    (np.nextafter(forward.MIN_KR, 0.0), 1.0, r"disk 0: kR = 9\.9+e-301 is below"),
    (1e300, 1e300, "disk 0: kR = inf is not finite"),
    (0.5, np.nan, "wavenumber must be positive and finite, got nan"),
    (0.5, np.inf, "wavenumber must be positive and finite, got inf"),
    (0.5, -1.0, "wavenumber must be positive and finite, got -1.0"),
])
def test_eigenvalues_refuse_bad_radius_and_wavenumber_by_name(radius, k, match):
    with pytest.raises(ValueError, match=match):
        operator_eigenvalues_disk(radius, k, 5)


def test_eigenvalue_decay_and_tail():
    """Super-exponential decay beyond p ~ kR, and lambda_0 -> 0 with kR.

    The small-obstacle limit is logarithmic (J_0/H_0 dies like 1/ln kR
    while the prefactor is fixed by k), so the vanishing is asserted as
    a strictly decreasing sequence over shrinking radii, not a tight
    absolute bound.
    """
    lam = operator_eigenvalues_disk(0.5, K, 15)
    mags = np.abs(lam)
    start = math.ceil(K * 0.5) + 1
    assert np.all(np.diff(mags[start:]) < 0.0)
    assert mags[15] < 1e-6 * mags[0]
    shrinking = [abs(operator_eigenvalues_disk(r, K, 0)[0])
                 for r in (1.0, 1e-2, 1e-4, 1e-6, 1e-8)]
    assert np.all(np.diff(shrinking) < 0.0)
    assert shrinking[-1] < 0.25


def test_eigenvalue_large_order_asymptotics():
    """lambda_p approaches its factorial/power closed form.

    At k = 1 (kR = 0.5) order 12 is deep in the asymptotic regime and
    the ratio is within 10%.  At k = 2 pi the prefactor error at p = 12
    is still tens of percent, so there the test asserts convergence:
    the ratio error shrinks monotonically over p = 12..15.
    """
    radius = 0.5

    def ratio_error(k, p):
        lam = operator_eigenvalues_disk(radius, k, p)[p]
        closed = -math.sqrt(8.0 * math.pi ** 3 / k) * np.exp(1j * np.pi / 4) \
            / (math.factorial(p) * math.factorial(p - 1)) \
            * (k * radius / 2.0) ** (2 * p)
        return abs(lam / closed - 1.0)

    assert ratio_error(1.0, 12) < 0.10
    errors = [ratio_error(K, p) for p in range(12, 31)]
    assert np.all(np.diff(errors) < 0.0)


def test_noise_zero_eta():
    ff = disk_farfield((0.0, 0.0), 1.0, K, 12, 12)
    noisy, realization = add_noise(ff, 0.0, seed=3)
    np.testing.assert_array_equal(noisy.entries, ff.entries)
    assert realization.delta == 0.0


@pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf])
def test_noise_refuses_non_finite_level_by_name(eta):
    ff = disk_farfield((0.0, 0.0), 1.0, K, 8, 8)
    with pytest.raises(ValueError, match=f"noise level must be nonnegative and finite, got {eta}"):
        add_noise(ff, eta, seed=3)


def test_noise_seed_determinism():
    ff = disk_farfield((0.2, 0.0), 0.8, K, 10, 14)
    first, r1 = add_noise(ff, 0.1, seed=42)
    second, r2 = add_noise(ff, 0.1, seed=42)
    np.testing.assert_array_equal(first.entries, second.entries)
    assert r1.delta == r2.delta
    third, _ = add_noise(ff, 0.1, seed=43)
    assert not np.array_equal(third.entries, first.entries)


def test_noise_mean_square_level():
    """E ||perturbation||_F^2 = 2 eta^2 ||F||_F^2 within 10% over seeds."""
    ff = disk_farfield((0.0, 0.0), 1.0, K, 20, 20)
    eta = 0.1
    reference = 2.0 * eta ** 2 * np.linalg.norm(ff.entries, "fro") ** 2
    total = 0.0
    for seed in range(200):
        noisy, _ = add_noise(ff, eta, seed=seed)
        total += np.linalg.norm(noisy.entries - ff.entries, "fro") ** 2
    assert abs(total / 200.0 / reference - 1.0) < 0.10


def test_noise_delta_positive_and_stable():
    ff = disk_farfield((0.0, 0.0), 1.0, K, 16, 16)
    deltas = []
    for seed in range(24):
        noisy, realization = add_noise(ff, 0.05, seed=seed)
        assert realization.delta > 0.0
        assert realization.delta == pytest.approx(
            spectral_norm(noisy.entries - ff.entries), rel=1e-12)
        deltas.append(realization.delta)
    assert max(deltas) / min(deltas) < 2.0


def test_resample_constant():
    entries = np.full((8, 8), 2.0 - 1.0j)
    ff = FarFieldMatrix(entries, K)
    up = fourier_resample(ff, 12, 20)
    np.testing.assert_allclose(up.entries, 2.0 - 1.0j, rtol=0, atol=1e-13)
    assert up.shape == (12, 20)


def test_resample_band_limited_exact():
    """A single Fourier mode resamples to its exact values on any grid."""
    theta = observation_angles(8)
    phi = incidence_angles(8)
    entries = np.exp(1j * theta)[:, None] * np.exp(-2j * phi)[None, :]
    ff = FarFieldMatrix(entries, K)
    up = fourier_resample(ff, 16, 16)
    theta2 = observation_angles(16)
    phi2 = incidence_angles(16)
    expected = np.exp(1j * theta2)[:, None] * np.exp(-2j * phi2)[None, :]
    np.testing.assert_allclose(up.entries, expected, rtol=0, atol=1e-12)


def test_resample_round_trip():
    rng = np.random.default_rng(0)
    entries = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    ff = FarFieldMatrix(entries, K)
    back = fourier_resample(fourier_resample(ff, 60, 60), 30, 30)
    np.testing.assert_allclose(back.entries, entries, rtol=0, atol=1e-12)


def test_resample_preserves_dc():
    rng = np.random.default_rng(5)
    entries = rng.standard_normal((12, 10)) + 1j * rng.standard_normal((12, 10))
    ff = FarFieldMatrix(entries, K)
    down = fourier_resample(ff, 6, 4)
    assert np.mean(down.entries) == pytest.approx(np.mean(entries),
                                                  rel=1e-12)


def test_resample_same_shape_copies():
    ff = disk_farfield((0.0, 0.0), 1.0, K, 10, 10)
    same = fourier_resample(ff, 10, 10)
    np.testing.assert_array_equal(same.entries, ff.entries)
    assert same.entries is not ff.entries


def _interpolant(entries, shape, cut=False):
    """Samples, on the canonical grids of `shape`, of the trigonometric
    interpolant through `entries`, summed term by term from its modes.

    DFT bin i of an N-point axis is the signed frequency i or i - N; an
    even N's bin N/2 is the cosine pair +-N/2 at half weight each.  With
    `cut`, an axis going down to M points keeps only the terms |p| <= M//2.
    """
    coeff = np.fft.fft2(entries)
    for axis, new in enumerate(shape):
        old = coeff.shape[axis]
        top = new // 2 if cut and new < old else old
        t = 2.0 * np.pi * np.arange(new) / new
        basis = np.zeros((new, old), dtype=complex)
        for i in range(old):
            p = i if i < old / 2 else i - old
            for freq, weight in ([(p, 0.5), (-p, 0.5)] if 2 * i == old else [(p, 1.0)]):
                if abs(freq) <= top:
                    basis[:, i] += weight * np.exp(1j * freq * t)
        coeff = np.moveaxis(np.tensordot(basis, coeff, axes=(1, axis)), 0, axis)
    return coeff / entries.size


# Even and odd source axes, each going up and down, onto even and odd
# targets: every shared +-N/2 bin is exercised.  In the last case a fold
# puts three or four modes into every bin of the 40 -> 12 axis, so there
# the order in which the aligned rows are summed shows.
RESAMPLING_CASES = [((12, 9), (20, 6)), ((12, 9), (8, 14)),
                    ((12, 9), (7, 5)), ((11, 10), (16, 21)),
                    ((40, 9), (12, 4))]


def test_fold_samples_the_interpolant():
    rng = np.random.default_rng(11)
    for source, target in RESAMPLING_CASES:
        entries = rng.standard_normal(source) + 1j * rng.standard_normal(source)
        folded = fold_to_shape(FarFieldMatrix(entries, K), *target)
        np.testing.assert_allclose(folded.entries, _interpolant(entries, target),
                                   rtol=0, atol=1e-13)


def test_resample_samples_the_cut_interpolant():
    rng = np.random.default_rng(12)
    for source, target in RESAMPLING_CASES:
        entries = rng.standard_normal(source) + 1j * rng.standard_normal(source)
        resampled = fourier_resample(FarFieldMatrix(entries, K), *target)
        np.testing.assert_allclose(resampled.entries,
                                   _interpolant(entries, target, cut=True),
                                   rtol=0, atol=1e-13)


def test_resamplers_refuse_a_grid_below_four_angles():
    ff = disk_farfield((0.0, 0.0), 1.0, K, 12, 12)
    for resample in (fourier_resample, fold_to_shape):
        for shape in ((3, 12), (12, 2)):
            with pytest.raises(ValueError, match="at least 4 angles per axis"):
                resample(ff, *shape)
