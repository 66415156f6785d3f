"""Far-field data: analytic disk fields, noise injection, resampling.

The far-field matrix discretizes the far-field operator on equispaced
angle grids: rows are observation directions theta_i = 2*pi*i/m, columns
are incidence directions phi_j = 2*pi*j/n.  All entries are complex and
the wavenumber k travels with the matrix so that downstream solvers never
have to guess it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .specialfn import bessel_j, hankel1

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


@dataclass(frozen=True)
class FarFieldMatrix:
    """Sampled far-field operator: entries[i, j] = u_inf(theta_i; phi_j)."""

    entries: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    k: float

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 2:
            raise ValueError("entries must be a 2-d array")
        m, n = entries.shape
        theta = np.asarray(self.theta, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        if theta.shape != (m,) or phi.shape != (n,):
            raise ValueError("angle grids do not match entry shape")
        if not np.allclose(theta, observation_angles(m), rtol=0.0, atol=1e-12):
            raise ValueError("observation angles are not the canonical equispaced grid")
        if not np.allclose(phi, incidence_angles(n), rtol=0.0, atol=1e-12):
            raise ValueError("incidence angles are not the canonical equispaced grid")
        if not np.isfinite(self.k) or self.k <= 0.0:
            raise ValueError(f"wavenumber must be positive, got {self.k}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("far-field entries contain non-finite values")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "k", float(self.k))

    @property
    def shape(self) -> tuple:
        return self.entries.shape

    @classmethod
    def from_entries(cls, entries: np.ndarray, k: float) -> "FarFieldMatrix":
        """Attach the canonical angle grids implied by the entry shape."""
        entries = np.asarray(entries, dtype=complex)
        m, n = entries.shape
        return cls(entries, observation_angles(m), incidence_angles(n), k)


@dataclass(frozen=True)
class NoiseRealization:
    """Record of one multiplicative noise draw and its exact operator norm."""

    eta: float
    seed: int
    delta: float


def spectral_norm(a) -> float:
    """Largest singular value; accepts a FarFieldMatrix or plain array."""
    entries = a.entries if isinstance(a, FarFieldMatrix) else np.asarray(a)
    if entries.size == 0:
        return 0.0
    return float(np.linalg.svd(entries, compute_uv=False)[0])


def disk_farfield(center, radius: float, k: float, m: int, n: int,
                  truncation: int | None = None) -> FarFieldMatrix:
    """Far-field matrix of a sound-soft disk via the separated series.

    The scattered field of a disk of radius R centered at c is known in
    closed form; the far field under incidence direction d and observation
    direction x is

        u_inf = -sqrt(2/(k*pi)) * exp(-i*pi/4) * exp(i*k*(d - x).c)
                * sum_{|p| <= N} (J_p(kR)/H_p(kR)) * exp(i*p*(theta - phi))

    where H_p is the first-kind Hankel function.  The series is symmetric
    in p, so it collapses to a cosine sum over p >= 0.  The translation
    factor exp(i*k*(d - x).c) moves the centered solution to center c.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != (2,):
        raise ValueError("center must be a 2-vector")
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    if k <= 0.0:
        raise ValueError(f"wavenumber must be positive, got {k}")
    if truncation is None:
        truncation = int(np.ceil(k * radius)) + 20
    # The tail of the series decays super-exponentially once p > kR; eight
    # extra orders is the minimum margin for full double accuracy.
    if k * radius > truncation - 8:
        raise ValueError(
            f"truncation {truncation} too small for k*R = {k * radius:.3g}; "
            f"need at least ceil(k*R) + 8")

    theta = observation_angles(m)
    phi = incidence_angles(n)
    kr = k * radius
    ratios = np.array([bessel_j(p, kr) / hankel1(p, kr)
                       for p in range(truncation + 1)])

    diff = theta[:, None] - phi[None, :]
    series = np.full((m, n), ratios[0], dtype=complex)
    for p in range(1, truncation + 1):
        series += 2.0 * ratios[p] * np.cos(p * diff)

    # exp(i*k*(d - x).c) factors into an outer product over the two grids.
    xhat_dot_c = center[0] * np.cos(theta) + center[1] * np.sin(theta)
    dhat_dot_c = center[0] * np.cos(phi) + center[1] * np.sin(phi)
    shift = np.exp(-1j * k * xhat_dot_c)[:, None] * np.exp(1j * k * dhat_dot_c)[None, :]

    amplitude = -np.sqrt(2.0 / (k * np.pi)) * np.exp(-1j * np.pi / 4.0)
    return FarFieldMatrix(amplitude * shift * series, theta, phi, k)


def operator_eigenvalues_disk(radius: float, k: float, p_max: int) -> np.ndarray:
    """Eigenvalues of the continuous far-field operator for a centered disk.

    lambda_p = -sqrt(8*pi/k) * exp(-i*pi/4) * J_p(kR)/H_p(kR), p = 0..p_max.
    The eigenvalue of order -p coincides with that of order p.
    """
    if radius <= 0.0 or k <= 0.0:
        raise ValueError("radius and wavenumber must be positive")
    if p_max < 0:
        raise ValueError(f"p_max must be nonnegative, got {p_max}")
    kr = k * radius
    ratios = np.array([bessel_j(p, kr) / hankel1(p, kr) for p in range(p_max + 1)])
    return -np.sqrt(8.0 * np.pi / k) * np.exp(-1j * np.pi / 4.0) * ratios


def add_noise(farfield: FarFieldMatrix, eta: float, seed: int):
    """Multiplicative complex Gaussian noise with exact recorded norm.

    Perturbs each entry as F * (1 + eta * (X + iY)) with independent
    standard normals X, Y.  The real block is drawn before the imaginary
    block so a fixed seed pins the realization bit for bit.  The recorded
    delta is the spectral norm of the actual perturbation, not a bound.
    """
    if eta < 0.0:
        raise ValueError(f"noise level must be nonnegative, got {eta}")
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.standard_normal(farfield.shape)
    y = rng.standard_normal(farfield.shape)
    perturbation = eta * farfield.entries * (x + 1j * y)
    noisy = FarFieldMatrix(farfield.entries + perturbation,
                           farfield.theta, farfield.phi, farfield.k)
    delta = spectral_norm(perturbation)
    return noisy, NoiseRealization(eta=float(eta), seed=int(seed), delta=delta)


def _resample_axis(spectrum: np.ndarray, new_size: int, axis: int) -> np.ndarray:
    """Map DFT coefficients of one axis onto a grid of new_size points.

    Coefficients are matched by signed frequency.  On upsampling, an even
    source axis has a shared Nyquist bin whose content is split equally
    between the +N/2 and -N/2 slots; on downsampling those two slots fold
    back into one.  The new coefficients are scaled by new/old so that the
    trigonometric interpolant through the samples is preserved.
    """
    old = spectrum.shape[axis]
    if new_size == old:
        return spectrum * 1.0
    spectrum = np.moveaxis(spectrum, axis, 0)
    out = np.zeros((new_size,) + spectrum.shape[1:], dtype=complex)
    if new_size > old:
        pos = (old + 1) // 2          # count of strictly positive-side bins
        out[:pos] = spectrum[:pos]
        neg = old - pos if old % 2 else old // 2 - 1
        if neg:
            out[new_size - neg:] = spectrum[old - neg:]
        if old % 2 == 0:
            half = 0.5 * spectrum[old // 2]
            out[old // 2] += half
            out[new_size - old // 2] += half
    else:
        pos = (new_size + 1) // 2
        out[:pos] = spectrum[:pos]
        neg = new_size - pos if new_size % 2 else new_size // 2 - 1
        if neg:
            out[pos + (0 if new_size % 2 else 1):] = spectrum[old - neg:]
        if new_size % 2 == 0:
            out[new_size // 2] = spectrum[new_size // 2] + spectrum[old - new_size // 2]
    out *= new_size / old
    return np.moveaxis(out, 0, axis)


def fourier_resample(farfield: FarFieldMatrix, m_new: int, n_new: int) -> FarFieldMatrix:
    """Resample onto new canonical angle grids by trigonometric interpolation.

    Entries are periodic in both angles, so resampling acts on the 2-d DFT
    mode by mode.  Requesting the current shape returns an identical copy,
    which makes the operation idempotent.  An upsample followed by the
    matching downsample reproduces the original matrix to rounding.
    """
    if m_new < _MIN_ANGLES or n_new < _MIN_ANGLES:
        raise ValueError(f"resampled grid needs at least {_MIN_ANGLES} angles per axis")
    m, n = farfield.shape
    if (m_new, n_new) == (m, n):
        return FarFieldMatrix(farfield.entries.copy(), farfield.theta.copy(),
                              farfield.phi.copy(), farfield.k)
    spectrum = np.fft.fft2(farfield.entries)
    spectrum = _resample_axis(spectrum, m_new, 0)
    spectrum = _resample_axis(spectrum, n_new, 1)
    entries = np.fft.ifft2(spectrum)
    return FarFieldMatrix.from_entries(entries, farfield.k)

