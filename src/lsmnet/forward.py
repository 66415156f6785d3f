"""Far-field data: analytic disk fields, noise injection, resampling.

The far-field matrix discretizes the far-field operator on equispaced
angle grids: rows are observation directions theta_i = 2*pi*i/m, columns
are incidence directions phi_j = 2*pi*j/n.  All entries are complex and
the wavenumber k travels with the matrix so that downstream solvers never
have to guess it; `check_wavenumber` and `check_wavelength` are the one
home of the rules every module applies to k and to a model's wavelength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specialfn import bessel_y

# Name recorded in run manifests so a reader can reproduce noise draws.
PRNG_NAME = "PCG64"

_MIN_ANGLES = 4


def observation_angles(m: int) -> np.ndarray:
    """Equispaced observation angles theta_i = 2*pi*i/m, i = 0..m-1."""
    if m < _MIN_ANGLES:
        raise ValueError(f"need at least {_MIN_ANGLES} observation angles, got {m}")
    return 2.0 * np.pi * np.arange(m) / m


def incidence_angles(n: int) -> np.ndarray:
    """Equispaced incidence angles phi_j = 2*pi*j/n, j = 0..n-1."""
    if n < _MIN_ANGLES:
        raise ValueError(f"need at least {_MIN_ANGLES} incidence angles, got {n}")
    return 2.0 * np.pi * np.arange(n) / n


def check_wavenumber(k: float) -> None:
    """Refuse a wavenumber that is not positive and finite (NaN included)."""
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"wavenumber must be positive and finite, got {k}")


def check_wavelength(lam: float, k: float, what: str = "far field") -> None:
    """Refuse data at wavenumber k for a model built at wavelength lam."""
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"wavelength must be positive and finite, got {lam}")
    check_wavenumber(k)
    wavelength = 2.0 * math.pi / k
    if abs(wavelength - lam) > 1e-6 * lam:
        raise ValueError(f"{what} at wavelength {wavelength:.6g} fed to a "
                         f"model built for {lam:.6g}")


@dataclass(frozen=True)
class FarFieldMatrix:
    """entries[i, j] = u_inf(theta_i; phi_j) on the canonical grids of its shape."""

    entries: np.ndarray
    k: float

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 2 or min(entries.shape) < _MIN_ANGLES:
            raise ValueError(f"entries must be a 2-d array with at least "
                             f"{_MIN_ANGLES} angles per axis")
        check_wavenumber(self.k)
        if not np.all(np.isfinite(entries)):
            raise ValueError("far-field entries contain non-finite values")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "k", float(self.k))

    @property
    def shape(self) -> tuple:
        return self.entries.shape

    @property
    def theta(self) -> np.ndarray:
        return observation_angles(self.shape[0])

    @property
    def phi(self) -> np.ndarray:
        return incidence_angles(self.shape[1])


@dataclass(frozen=True)
class NoiseRealization:
    """Record of one multiplicative noise draw and its exact operator norm."""

    eta: float
    seed: int
    delta: float


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of a nonempty matrix."""
    return float(np.linalg.svd(a, compute_uv=False)[0])


# Disks per block of disk_farfields' translation product: about this many
# entries (72 disks at 30 x 30); 1 << 14 to 1 << 18 timed alike.
_BLOCK_ENTRIES = 1 << 16

# Far beyond any series truncation needed for kR <= 2*pi*1.5*4.
ORDER_CAP = 200

# Miller's coefficients 2p/kR overflow to NaN rows below 2p/DBL_MAX for a
# table's highest start p (up to 3e-306 under the cap); refuse well above.
MIN_KR = 1e-300


def _ratio_table(kr: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Row i holds J_p(kr_i)/H_p(kr_i) for p = 0..orders[i], zeros beyond.

    Y_p runs forward from Y_0 and Y_1 (the ratio is its limit 0 where Y_p
    overflows); J_p is Miller's backward recurrence (DLMF 3.6(vi)) normalized
    by 1 = J_0 + 2 sum J_2k (A&S 9.1.46), started per row at an even order
    16 + 6 kr^(1/3) past max(orders[i], kr_i + 20): a row ignores the
    others.  A row with kr below MIN_KR or not finite is refused by its index.
    """
    bad = np.flatnonzero(~(np.isfinite(kr) & (kr >= MIN_KR)))
    if bad.size:
        i = bad[0]
        why = (f"is below {MIN_KR:g}, where the J_p recurrence overflows"
               if kr[i] < MIN_KR else "is not finite")
        raise ValueError(f"disk {i}: kR = {float(kr[i])!r} {why}")
    top = max(int(orders.max()), 1)
    if top > ORDER_CAP:
        raise ValueError(f"order {top} exceeds cap {ORDER_CAP}")
    reach = np.maximum(orders, np.ceil(kr) + 20) + np.floor(6.0 * np.cbrt(kr)) + 16
    start = 2 * np.ceil(reach / 2.0).astype(int)
    j = np.zeros((kr.size, top + 1))
    y = np.empty_like(j)
    y[:, 0], y[:, 1] = bessel_y(0, kr), bessel_y(1, kr)
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(1, top):
            y[:, p + 1] = (2.0 * p / kr) * y[:, p] - y[:, p - 1]
        above, here, evens = np.zeros((3, kr.size))
        for p in range(int(start.max()), 0, -1):
            here += start == p
            if p <= top:
                j[:, p] = here
            if p % 2 == 0:
                evens += here
            above, here = here, (2.0 * p / kr) * here - above
            if np.abs(here).max() > 1e150:  # scale rows near overflow to 1
                scale = np.where(np.abs(here) > 1e150, np.abs(here), 1.0)
                for state in (here, above, evens, j.T):
                    state /= scale
        j[:, 0] = here
        j /= (here + 2.0 * evens)[:, None]
        table = j / (j + 1j * y)
    table[~np.isfinite(y) | (np.arange(top + 1) > orders[:, None])] = 0.0
    return table


def disk_farfields(centers, radii, k: float, m: int, n: int) -> np.ndarray:
    """Far-field entries of many sound-soft disks, (count, m, n).

    The scattered field of a disk of radius R centered at c is known in
    closed form; the far field under incidence direction d and observation
    direction x is

        u_inf = -sqrt(2/(k*pi)) * exp(-i*pi/4) * exp(i*k*(d - x).c)
                * sum_{|p| <= N} (J_p(kR)/H_p(kR)) * exp(i*p*(theta - phi))

    where H_p is the first-kind Hankel function.  The series is symmetric
    in p, so it collapses to a cosine sum over p >= 0.  On the canonical
    grids theta - phi takes only the L = lcm(m, n) values 2*pi*l/L, so a
    disk's series is summed once per l and gathered at l = (i*L/m - j*L/n)
    mod L; exp(i*k*(d - x).c) then moves it to center c.  Each disk is
    summed to its own N = ceil(kR) + 20, well past the eight orders beyond
    kR that full double accuracy needs.  One ratio table (its rows run their
    own recurrences, exact zeros past each disk's N) and one cos(p*psi) table
    serve the whole call, and each disk sums over p in the order it would
    alone, so no entry depends on the other disks; blocks of _BLOCK_ENTRIES
    entries bound only the (count, m, n) translation product and its gather.
    """
    try:
        centers = np.asarray(centers, dtype=float)
        radii = np.asarray(radii, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"centers and radii must be numeric arrays: {exc}") from None
    if (centers.ndim != 2 or centers.shape[1] != 2
            or radii.shape != (centers.shape[0],)):
        raise ValueError(f"centers {centers.shape} and radii {radii.shape} must "
                         f"be (count, 2) and (count,)")
    # Written so that NaN fails: ceil(NaN) has no truncation.
    bad = np.flatnonzero(~(np.isfinite(centers).all(axis=1) & (radii > 0.0)
                           & np.isfinite(radii)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"disk {i}: center {centers[i].tolist()} and radius "
                         f"{radii[i]!r} must be finite, the radius positive")
    check_wavenumber(k)
    with np.errstate(over="ignore"):    # _ratio_table refuses an infinite kR
        kr = k * radii
    # Orders stay floats, so no integer cast runs before that check.
    ratios = _ratio_table(kr, np.ceil(kr) + 20)
    L = math.lcm(m, n)
    psi = 2.0 * np.pi * np.arange(L) / L
    cosines = np.cos(np.arange(ratios.shape[1])[:, None] * psi)
    series = np.full((kr.size, L), ratios[:, :1])
    for p in range(1, ratios.shape[1]):
        series += (2.0 * ratios[:, p])[:, None] * cosines[p]
    # exp(i*k*(d - x).c) factors into an outer product per disk.
    theta = observation_angles(m)
    phi = incidence_angles(n)
    xhat_dot_c = centers[:, :1] * np.cos(theta) + centers[:, 1:] * np.sin(theta)
    dhat_dot_c = centers[:, :1] * np.cos(phi) + centers[:, 1:] * np.sin(phi)
    receive = np.exp(-1j * k * xhat_dot_c)
    send = np.exp(1j * k * dhat_dot_c)
    index = np.arange(m)[:, None] * (L // m) - np.arange(n) * (L // n)
    amplitude = -np.sqrt(2.0 / (k * np.pi)) * np.exp(-1j * np.pi / 4.0)
    out = np.empty((kr.size, m, n), dtype=complex)
    size = max(1, _BLOCK_ENTRIES // (m * n))
    for lo in range(0, kr.size, size):
        block = slice(lo, lo + size)
        shift = receive[block, :, None] * send[block, None, :]
        # Gather series[l mod L] ("wrap"), then amplitude * shift * series in
        # that operand order: the fused complex product is not bitwise commutative.
        np.multiply(amplitude, shift, out=shift)
        np.take(series[block], index, axis=1, out=out[block], mode="wrap")
        np.multiply(shift, out[block], out=out[block])
    return out


def disk_farfield(center, radius: float, k: float, m: int, n: int) -> FarFieldMatrix:
    """Far-field matrix of one sound-soft disk; see disk_farfields."""
    return FarFieldMatrix(disk_farfields([center], [radius], k, m, n)[0], k)


def operator_eigenvalues_disk(radius: float, k: float, p_max: int) -> np.ndarray:
    """Eigenvalues of the continuous far-field operator for a centered disk.

    lambda_p = -sqrt(8*pi/k) * exp(-i*pi/4) * J_p(kR)/H_p(kR), p = 0..p_max.
    The eigenvalue of order -p coincides with that of order p.
    """
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    check_wavenumber(k)
    if p_max < 0:
        raise ValueError(f"p_max must be nonnegative, got {p_max}")
    ratios = _ratio_table(np.array([k * radius]), np.array([p_max]))[0, :p_max + 1]
    return -np.sqrt(8.0 * np.pi / k) * np.exp(-1j * np.pi / 4.0) * ratios


def add_noise(farfield: FarFieldMatrix, eta: float, seed: int):
    """Multiplicative complex Gaussian noise with exact recorded norm.

    Perturbs each entry as F * (1 + eta * (X + iY)) with independent
    standard normals X, Y.  The real block is drawn before the imaginary
    block so a fixed seed pins the realization bit for bit.  The recorded
    delta is the spectral norm of the actual perturbation, not a bound.
    """
    if not (np.isfinite(eta) and eta >= 0.0):
        raise ValueError(f"noise level must be nonnegative and finite, got {eta}")
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.standard_normal(farfield.shape)
    y = rng.standard_normal(farfield.shape)
    perturbation = eta * farfield.entries * (x + 1j * y)
    noisy = FarFieldMatrix(farfield.entries + perturbation, farfield.k)
    delta = spectral_norm(perturbation)
    return noisy, NoiseRealization(eta=float(eta), seed=int(seed), delta=delta)


def _fold_axis(spectrum: np.ndarray, new_size: int, axis: int) -> np.ndarray:
    """Map DFT coefficients of one axis onto new_size bins by congruence.

    This samples the trigonometric interpolant at the new nodes: every
    source mode lands on its frequency mod new_size, and an even source's
    shared +-old/2 bin enters as a half-weight cosine pair.  Upsampling is
    zero padding.  Downsampling discards nothing, so white noise keeps its
    mean per-entry variance, but it stays white only when old is a
    multiple of new_size (at 50 -> 30, twenty bins get two modes, ten one).
    """
    old = spectrum.shape[axis]
    coeff = np.moveaxis(spectrum, axis, 0).copy()
    freqs = np.rint(np.fft.fftfreq(old) * old).astype(int)
    out = np.zeros((new_size,) + coeff.shape[1:], dtype=complex)
    if old % 2 == 0:
        coeff[old // 2] *= 0.5
    np.add.at(out, np.mod(freqs, new_size), coeff)
    if old % 2 == 0:
        out[(old // 2) % new_size] += coeff[old // 2]
    out *= new_size / old
    return np.moveaxis(out, 0, axis)


def _cut_axis(spectrum: np.ndarray, new_size: int, axis: int) -> np.ndarray:
    """The new_size lowest signed frequencies of one axis, unscaled.

    An even new_size keeps the -new_size/2 mode alone, so every kept bin
    holds exactly one source mode.
    """
    freqs = np.rint(np.fft.fftfreq(new_size) * new_size).astype(int)
    return np.take(spectrum, np.mod(freqs, spectrum.shape[axis]), axis=axis)


def fourier_resample(farfield: FarFieldMatrix, m_new: int, n_new: int) -> FarFieldMatrix:
    """Resample onto new canonical angle grids by trigonometric interpolation.

    Entries are periodic in both angles, so resampling acts on the 2-d DFT
    mode by mode: upsampling zero-pads, and downsampling keeps the lowest
    frequencies, summing the +-N/2 pair of an even target into one bin.
    Requesting the current shape returns an identical copy, which makes
    the operation idempotent.  An upsample followed by the matching
    downsample reproduces the original matrix to rounding.
    """
    if m_new < _MIN_ANGLES or n_new < _MIN_ANGLES:
        raise ValueError(f"resampled grid needs at least {_MIN_ANGLES} angles per axis")
    if (m_new, n_new) == farfield.shape:
        return FarFieldMatrix(farfield.entries.copy(), farfield.k)
    spectrum = np.fft.fft2(farfield.entries)
    for axis, new in enumerate((m_new, n_new)):
        old = spectrum.shape[axis]
        if new > old:
            spectrum = _fold_axis(spectrum, new, axis)
        elif new < old:
            cut = _cut_axis(spectrum, new, axis)
            if new % 2 == 0:
                shared = (slice(None),) * axis + (new // 2,)
                cut[shared] += spectrum[shared]
            spectrum = cut * (new / old)
    return FarFieldMatrix(np.fft.ifft2(spectrum), farfield.k)


def fold_to_shape(farfield: FarFieldMatrix, m0: int, n0: int) -> FarFieldMatrix:
    """Samples of the trigonometric interpolant on the m0 x n0 angle grids.

    Upsampling coincides with ``fourier_resample``.  Downsampling differs
    from its frequency cut: it keeps all the high-frequency energy by
    folding it onto the coarse grid.  When a source axis is a multiple of
    the target this is exact subsampling and white noise stays white;
    for other sizes the coarse bins collect unequal numbers of modes, so
    norm estimates only transfer after the cut in ``estimator_input``.
    """
    spectrum = np.fft.fft2(farfield.entries)
    for axis, new in enumerate((m0, n0)):
        if new != spectrum.shape[axis]:
            spectrum = _fold_axis(spectrum, new, axis)
    return FarFieldMatrix(np.fft.ifft2(spectrum), farfield.k)


def estimator_input(farfield: FarFieldMatrix, m0: int,
                    n0: int) -> tuple[FarFieldMatrix, float]:
    """The m0 x n0 matrix a norm estimator sees, and its noise-norm correction.

    An axis of m > m0 angles is first cut to its m' = m0 * floor(m/m0)
    lowest frequencies; folding m' onto m0 is then exact subsampling, so
    every coarse bin collects the same number of modes and white noise
    arrives white.  The cut keeps m'/m of the noise variance per axis, so
    a norm estimated on the native matrix is scaled back to the
    measurement by the returned factor sqrt(m n / (m' n')).  Axes that
    are already multiples of the native size, and axes that are
    upsampled, skip the cut and get a factor of exactly 1.
    """
    m, n = farfield.shape
    kept = tuple(size if size <= native else native * (size // native)
                 for size, native in ((m, m0), (n, n0)))
    if kept != (m, n):
        spectrum = np.fft.fft2(farfield.entries)
        for axis, size in enumerate(kept):
            spectrum = _cut_axis(spectrum, size, axis) * (size / spectrum.shape[axis])
        farfield = FarFieldMatrix(np.fft.ifft2(spectrum), farfield.k)
    return fold_to_shape(farfield, m0, n0), math.sqrt(m * n / (kept[0] * kept[1]))
