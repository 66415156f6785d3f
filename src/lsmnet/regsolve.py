"""Linear sampling reconstruction with pluggable regularization.

For every sampling point z the far-field equation F g = phi_z is solved
in Tikhonov-regularized form, and the reconstruction indicator is the
reciprocal density norm 1/||g_z||.  Everything is expressed through one
SVD of the far-field matrix, so the per-point work reduces to filter
factors applied to projected right-hand sides.  On the canonical grid
of an even number m of angles, theta_(j+m/2) = theta_j + pi, so the test
function at one angle of each antipodal pair is the conjugate of the
other's; the projections then come from one real matrix product over
half the angles, in real arithmetic only.

The regularization parameter comes from a strategy object: a discrepancy
match against a known perturbation norm, a fixed constant, or a
precomputed spatial field; strategies solved together share each
projection.  The discrepancy's out-of-range energy is read off the
orthogonal complement of U, empty for square data.  Its root is found
in log alpha on the bracket described at ALPHA_BRACKET: one matrix
product over shared alpha nodes puts each point in a cell (Hansen 1998),
and Chandrupatla's bracketed hybrid (Adv. Eng. Softw. 28, 1997),
vectorized over points and seeded with the node beyond the cell, polishes
it to the discrepancy's rounding floor in about four steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import archive
from .forward import FarFieldMatrix, check_wavenumber

# Bracket for the discrepancy root, relative to sigma_1^2: 22 decades, on
# which a missing sign change means a rootless instance.  A block of points
# without out-of-range energy is searched on [delta s_r / 2, 2 delta s_1]
# clipped to it; every discrepancy term is negative at the one end and
# positive at the other, so each moved end has the sign the wide end has
# and the rootless verdict is the wide bracket's.  The search polishes one
# cell of _ROOT_GRID nodes in a few steps, so the step cap only bounds a
# point that never settles.
ALPHA_BRACKET = (1e-16, 1e6)
BISECT_ITERATIONS = 60

# Nodes per bracket, and the rounding floor in ulps at which a root stops:
# 4 kept every kite root in the tests within 10 ulps of its conditioning
# of the bisection root, 8 let some reach 21.
_ROOT_GRID = 32
_FLOOR_ULPS = 4.0

# Points per block of test functions, rounded down to whole grid rows.
# On a 2-vCPU Xeon, 2048-point blocks made the discrepancy solve at 200^2
# points 35% slower (twice the blocks to step the root finder over), and
# 8192-point blocks made a field solve right after it 29% slower than this
# size.
_CHUNK = 4096


class NoRootError(ArithmeticError):
    """The discrepancy function has no sign change on the search bracket."""


def _check_positive(value: float, what: str) -> None:
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{what} must be finite and positive, got {value}")


def tensor_points(axis: np.ndarray) -> np.ndarray:
    """Row-major points of the square grid axis x axis, x varying fastest."""
    xs, ys = np.meshgrid(axis, axis)
    return np.column_stack([xs.ravel(), ys.ravel()])


@dataclass(frozen=True)
class SamplingGrid:
    """Uniform square grid on [-halfwidth, halfwidth]^2, row-major points.

    Point p = iy * resolution + ix sits at (axis[ix], axis[iy]): x varies
    fastest and y runs bottom to top.  The sampling paths evaluate
    through per-axis factors, so only the two scalars are stored.
    """

    halfwidth: float
    resolution: int

    def __post_init__(self):
        _check_positive(self.halfwidth, "halfwidth")
        if self.resolution < 2:
            raise ValueError(f"resolution must be at least 2, got {self.resolution}")

    @classmethod
    def make(cls, halfwidth: float, resolution: int) -> "SamplingGrid":
        return cls(float(halfwidth), int(resolution))

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.halfwidth, self.halfwidth, self.resolution)

    @cached_property
    def points(self) -> np.ndarray:
        return tensor_points(self.axis)

    @cached_property
    def csv_prefixes(self) -> list:
        """`x,y,` of every point in grid order, as the CSV writer prints it."""
        axis = [f"{a:.17g}," for a in self.axis.tolist()]
        return [x + y for y in axis for x in axis]


@dataclass(frozen=True)
class SvdTriple:
    """Thin SVD with F = u @ diag(s) @ vh; factors validated on build."""

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray

    def __post_init__(self):
        u, s, vh = self.u, self.s, self.vh
        r = s.size
        if u.ndim != 2 or vh.ndim != 2 or u.shape[1] != r or vh.shape[0] != r:
            raise ValueError("inconsistent SVD factor shapes")
        if np.any(s < 0.0) or np.any(np.diff(s) > 0.0):
            raise ValueError("singular values must be nonnegative and non-increasing")
        eye = np.eye(r)
        if (np.max(np.abs(u.conj().T @ u - eye)) > 1e-10
                or np.max(np.abs(vh @ vh.conj().T - eye)) > 1e-10):
            raise ValueError("SVD factors are not orthonormal")

    @cached_property
    def complement(self) -> np.ndarray:
        """U_perp: orthonormal columns spanning the complement of range(u)."""
        return np.linalg.qr(self.u, mode="complete")[0][:, self.s.size:]

    def outside(self, rhs: np.ndarray):
        """||(I - U U^H) rhs||^2 per column, as ||U_perp^H rhs||^2."""
        return np.linalg.norm(self.complement.conj().T @ rhs, axis=0) ** 2


def svd(farfield) -> SvdTriple:
    """Thin SVD of a far-field matrix (or a plain 2-d array)."""
    entries = farfield.entries if isinstance(farfield, FarFieldMatrix) else np.asarray(farfield)
    u, s, vh = np.linalg.svd(entries, full_matrices=False)
    return SvdTriple(u, s, vh)


def testfunction_rhs(z, theta: np.ndarray, k: float) -> np.ndarray:
    """Right-hand side of the far-field equation for sampling point z.

    phi_z(x_i) = exp(i*pi/4)/sqrt(8*pi*k) * exp(-i*k*xhat_i.z); this is
    the far field of the free-space point source at z.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (2,):
        raise ValueError("sampling point must be a 2-vector")
    check_wavenumber(k)
    xhat = np.column_stack([np.cos(theta), np.sin(theta)])
    amplitude = np.exp(1j * np.pi / 4.0) / np.sqrt(8.0 * np.pi * k)
    return amplitude * np.exp(-1j * k * (xhat @ z[:, None]))[:, 0]


def tikhonov_solve(svdt: SvdTriple, rhs: np.ndarray, alpha: float) -> np.ndarray:
    """Minimizer of ||F g - rhs||^2 + alpha ||g||^2 through filter factors."""
    _check_positive(alpha, "regularization parameter")
    beta = svdt.u.conj().T @ rhs
    factors = svdt.s / (svdt.s ** 2 + alpha)
    return svdt.vh.conj().T @ (factors * beta)


def discrepancy(svdt: SvdTriple, rhs: np.ndarray, alpha: float, delta: float) -> float:
    """d(alpha) = ||F g_alpha - rhs||^2 - delta^2 ||g_alpha||^2, in closed form.

    With beta = U^H rhs the two norms share the SVD expansion and the
    difference telescopes to

        sum_i (alpha^2 - delta^2 s_i^2)/(s_i^2 + alpha)^2 |beta_i|^2
        + ||(I - U U^H) rhs||^2.

    The function is strictly increasing in alpha, so it has at most one
    root.  The out-of-range term is ||U_perp^H rhs||^2 over the complement
    of U: unlike the difference of norms it cannot cancel when rhs is
    nearly in range, and for square U it is exactly 0 at no cost.
    """
    _check_positive(alpha, "regularization parameter")
    if not (np.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"perturbation norm must be finite and nonnegative, got {delta}")
    beta2 = np.abs(svdt.u.conj().T @ rhs) ** 2
    s2 = svdt.s ** 2
    terms = (alpha ** 2 - delta ** 2 * s2) / (s2 + alpha) ** 2
    return float(terms @ beta2 + svdt.outside(rhs))


def _discrepancies(alpha: np.ndarray, s2: np.ndarray, d2s2: np.ndarray,
                   beta2: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """Discrepancy of every point p at alpha[p]; s2 and d2s2 are (r, 1)."""
    return np.sum((alpha ** 2 - d2s2) / (s2 + alpha) ** 2 * beta2, axis=0) + outside


def _root_alpha(s: np.ndarray, beta2: np.ndarray, outside: np.ndarray,
                delta: float):
    """Vectorized discrepancy roots for many points, in log alpha.

    beta2 is (r, P) with squared projections per point, outside is the
    (P,) out-of-range energy.  Returns the root array and a mask of
    points without a sign change on ALPHA_BRACKET (searched as described there).

    The discrepancy is linear in beta2, so one matrix product evaluates
    it, and its negative terms' sum, at _ROOT_GRID log-spaced nodes of the
    block's bracket for every point (Hansen 1998); a point's cell is where
    the product changes sign.  Elementwise evaluations at the cell's ends
    alone decide the bracket and the rootless verdict (the first and last
    cells end on the bracket's own ends); a cell that misses its root to
    the product's rounding falls back to the whole bracket.

    Chandrupatla's step then keeps x1 (newest) and x2 on opposite sides of
    the root and x3 (the end just dropped; at first, the node beyond x1
    with the product's value).  The next abscissa is x1 + t (x2 - x1): t
    is the inverse-quadratic estimate where the three points make it
    monotone, 1/2 (bisection) otherwise, clipped to [tl, 1 - tl] so every
    step moves at least tol/2 into the bracket.  A point stops once |d| at
    its nearer end is within _FLOOR_ULPS eps of a bound on sum_i |term_i|
    + outside over its cell, or once its bracket is narrower than a few
    ulps of log alpha; stopped points are frozen in place, and the loop
    ends when all have stopped or after BISECT_ITERATIONS steps.
    """
    s2 = (s ** 2)[:, None]
    d2s2 = (delta ** 2) * s2
    wide = np.array(ALPHA_BRACKET) * s[0] ** 2
    lo, hi = (wide if (outside > 0.0).any()
              else np.clip(delta * np.array([0.5 * s[-1], 2.0 * s[0]]), *wide))
    xs = np.linspace(np.log(lo), np.log(hi), _ROOT_GRID)
    nodes = np.exp(xs)
    nodes[[0, -1]] = lo, hi
    # Rows: d at every node, then its negative terms' sum, for every point.
    terms = (nodes[:, None] ** 2 - d2s2.T) / (s2.T + nodes[:, None]) ** 2
    both = np.vstack([terms, np.minimum(terms, 0.0)]) @ beta2
    d, fall = both[:_ROOT_GRID], both[_ROOT_GRID:]
    d += outside
    points = np.arange(outside.size)
    cell = np.clip(np.count_nonzero(d < 0.0, axis=0) - 1, 0, _ROOT_GRID - 2)
    # x1 is the cell end with a node beyond it, that node x3: the lower
    # end, or the upper one in the first cell.
    up = cell == 0
    beyond = np.where(up, 2, cell - 1)
    x3, f3 = xs[beyond], d[beyond, points]
    # Terms rise with alpha, so on the cell sum_i |term_i| + outside is at
    # most d(b) - fall(b) - fall(a): positive terms at b, negative at a.
    floor = _FLOOR_ULPS * np.finfo(float).eps * (
        d[cell + 1, points] - fall[cell + 1, points] - fall[cell, points])
    del both, d, fall                   # freed before the elementwise passes
    f_lo = _discrepancies(nodes[cell], s2, d2s2, beta2, outside)
    f_hi = _discrepancies(nodes[cell + 1], s2, d2s2, beta2, outside)
    no_root = (((cell == 0) & (f_lo > 0.0))
               | ((cell == _ROOT_GRID - 2) & (f_hi < 0.0)))
    x1, f1 = xs[cell + up], np.where(up, f_hi, f_lo)
    x2, f2 = xs[cell + 1 - up], np.where(up, f_lo, f_hi)
    # A cell whose ends do not bracket the root (a rounding miss of the
    # product) falls back to the whole bracket, bisected first, with no floor.
    miss = np.flatnonzero(~no_root & ((f_lo > 0.0) | (f_hi < 0.0)))
    if miss.size:
        ends = [_discrepancies(np.full(miss.size, end), s2, d2s2, beta2[:, miss],
                               outside[miss]) for end in (lo, hi)]
        no_root[miss] = (ends[0] > 0.0) | (ends[1] < 0.0)
        x1[miss], f1[miss], x2[miss], f2[miss] = xs[0], ends[0], xs[-1], ends[1]
        f3[miss], floor[miss] = np.nan, 0.0
    active = ~no_root
    for _ in range(BISECT_ITERATIONS):
        # Stopped: |d| at the nearer end within its rounding floor (an exact
        # zero included), or a bracket within 4 ulps of log alpha (of 1 near 0).
        nearer = np.abs(f1) < np.abs(f2)
        xm, fm = np.where(nearer, x1, x2), np.where(nearer, f1, f2)
        tol = 4.0 * np.finfo(float).eps * np.maximum(np.abs(xm), 1.0)
        active &= (np.abs(x2 - x1) >= tol) & (np.abs(fm) > floor)
        if not active.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            quadratic = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            t = np.where(quadratic,
                         f1 / (f1 - f2) * f3 / (f3 - f2)
                         - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3),
                         0.5)
            tl = 0.5 * tol / np.abs(x2 - x1)
        x = x1 + np.clip(t, tl, 1.0 - tl) * (x2 - x1)
        f = _discrepancies(np.exp(x), s2, d2s2, beta2, outside)
        # The new point replaces the bracket end of its own sign; the end
        # it replaces becomes x3.  Stopped points keep their bracket.
        same = np.sign(f) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same | ~active, x2, x1), np.where(same | ~active, f2, f1)
        x1, f1 = np.where(active, x, x1), np.where(active, f, f1)
    return np.exp(np.where(np.abs(f1) < np.abs(f2), x1, x2)), no_root


def morozov_alpha(svdt: SvdTriple, rhs: np.ndarray, delta: float) -> float:
    """Unique root of the discrepancy function for one right-hand side.

    Raises NoRootError when the discrepancy has no sign change on the
    bracket, which happens when the perturbation norm is too small (or
    too large) relative to the data.
    """
    _check_positive(delta, "perturbation norm")
    beta2 = np.abs(svdt.u.conj().T @ rhs[:, None]) ** 2
    alpha, no_root = _root_alpha(svdt.s, beta2, svdt.outside(rhs[:, None]), delta)
    if no_root[0]:
        raise NoRootError(
            f"discrepancy has no root for delta = {delta:.6g} on bracket "
            f"[{ALPHA_BRACKET[0]:.0e}, {ALPHA_BRACKET[1]:.0e}] * sigma_1^2")
    return float(alpha[0])


@dataclass(frozen=True)
class Morozov:
    """Choose alpha per point by matching the recorded perturbation norm."""

    delta: float

    def __post_init__(self):
        _check_positive(self.delta, "perturbation norm")


@dataclass(frozen=True)
class Constant:
    """One fixed alpha for every sampling point."""

    alpha: float

    def __post_init__(self):
        _check_positive(self.alpha, "regularization parameter")


@dataclass(frozen=True)
class RegField:
    """Spatially varying regularization parameter on a sampling grid."""

    grid: SamplingGrid
    alpha: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.shape != (self.grid.resolution ** 2,):
            raise ValueError("alpha field does not match the grid")
        if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0.0):
            raise ValueError("alpha field must be finite and positive")
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class Field:
    """Use a precomputed regularization field (one alpha per point)."""

    field: RegField


@dataclass(frozen=True)
class IndicatorField:
    """Nonnegative reconstruction indicator sampled on a grid."""

    grid: SamplingGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.resolution ** 2,):
            raise ValueError("indicator values do not match the grid")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise ValueError("indicator values must be finite and nonnegative")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class LsmResult:
    indicator: IndicatorField
    alpha: RegField
    fallback_count: int


def lsm_indicators(farfield: FarFieldMatrix, grid: SamplingGrid, strategies,
                   svdt: SvdTriple) -> list:
    """Sampling indicators 1/||g_z|| on the grid, one LsmResult per strategy.

    ||g_z||^2 = sum_i (s_i/(s_i^2 + alpha_z))^2 |beta_i|^2 with beta = U^H phi_z
    from svdt, the SVD of the same far field (checked for shape only).  The
    test functions factor over the axes, exp(-ik xhat.z) = exp(-ik x cos theta)
    exp(-ik y sin theta), so they take 2 h res exponentials, where h = m/2
    for even m (the antipodal angle's value is the conjugate) and h = m for
    odd m.  One real (2m x 2h) matrix of Q^H = [U | U_perp]^H, folded over
    the antipodal pairs, projects the real and imaginary parts of a block
    of whole grid rows in one real GEMM; squared and summed, its first r
    rows are |beta|^2 and the rest give the out-of-range energy
    ||U_perp^H phi_z||^2, empty for square data.  That is done once per
    block for all strategies; each then picks its alpha and sums its
    filter factors in place, which all come from the one SVD (Hansen
    1998).  Morozov points without a discrepancy root fall back to
    alpha = delta * sigma_1 and are counted.
    """
    if svdt.u.shape[0] != farfield.shape[0]:
        raise ValueError("decomposition does not match the far-field shape")
    if svdt.s[0] <= 0.0:
        raise ValueError("far-field matrix is identically zero")
    for strategy in strategies:
        if not isinstance(strategy, (Morozov, Constant, Field)):
            raise TypeError(f"unknown regularization strategy {type(strategy).__name__}")
        if isinstance(strategy, Field) and strategy.field.grid != grid:
            raise ValueError("regularization field lives on a different grid")

    alphas = np.empty((len(strategies), grid.resolution ** 2))
    gnorm2 = np.empty_like(alphas)
    fallbacks = [0] * len(strategies)
    s = svdt.s
    r, (m, _), res, k = s.size, farfield.shape, grid.resolution, farfield.k
    # phi_z = A e with |A|^2 = 1/(8 pi k); the phase of A drops out of every
    # |.|^2.  The columns of Q^H multiply a and ib of e = a + ib, and on
    # even m angle j + m/2 has e = a - ib, so its column folds onto j's.
    basis = np.hstack([svdt.u, svdt.complement]).conj().T / np.sqrt(8.0 * np.pi * k)
    on_a, on_b, h = basis, basis, m
    if m % 2 == 0:
        h = m // 2
        on_a, on_b = basis[:, :h] + basis[:, h:], basis[:, :h] - basis[:, h:]
    weights = np.stack([on_a, 1j * on_b], axis=-1).reshape(m, 2 * h)
    weights = np.vstack([weights.real, weights.imag])
    theta = farfield.theta[:h]
    ex = np.exp(-1j * k * np.outer(grid.axis, np.cos(theta)))
    ey = np.exp(-1j * k * np.outer(grid.axis, np.sin(theta)))
    rows = max(1, _CHUNK // res)
    for first in range(0, res, rows):
        start, stop = first * res, min(first + rows, res) * res
        e = (ey[first:first + rows, None, :] * ex[None, :, :]).reshape(stop - start, h)
        y = weights @ e.view(float).T
        np.square(y, out=y)
        y[:m] += y[m:]
        beta2, outside = y[:r], y[r:m].sum(axis=0)
        filters = y[m:m + r]            # spent rows, reused for the filter sum
        for i, strategy in enumerate(strategies):
            if isinstance(strategy, Morozov):
                alpha, no_root = _root_alpha(s, beta2, outside, strategy.delta)
                alpha[no_root] = strategy.delta * s[0]
                fallbacks[i] += int(no_root.sum())
            elif isinstance(strategy, Constant):
                alpha = np.full(stop - start, strategy.alpha)
            else:
                alpha = strategy.field.alpha[start:stop]
            alphas[i, start:stop] = alpha
            np.add(s[:, None] ** 2, alpha[None, :], out=filters)
            np.divide(s[:, None], filters, out=filters)
            np.square(filters, out=filters)
            filters *= beta2
            filters.sum(axis=0, out=gnorm2[i, start:stop])

    return [LsmResult(IndicatorField(grid, 1.0 / np.sqrt(norm2)),
                      RegField(grid, alpha), count)
            for alpha, norm2, count in zip(alphas, gnorm2, fallbacks)]


def lsm_indicator(farfield: FarFieldMatrix, grid: SamplingGrid, strategy,
                  svdt: SvdTriple) -> LsmResult:
    """Sampling indicator under one alpha strategy: lsm_indicators of one."""
    return lsm_indicators(farfield, grid, (strategy,), svdt)[0]


def normalized(values: np.ndarray) -> np.ndarray:
    """Scale a nonnegative field to peak 1 for display and thresholding."""
    peak = float(np.max(values))
    if peak <= 0.0:
        return np.zeros_like(values)
    return values / peak


def _grid_values(grid: SamplingGrid, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size != grid.resolution ** 2:
        raise ValueError(f"field has {values.size} values, the "
                         f"{grid.resolution}x{grid.resolution} grid needs "
                         f"{grid.resolution ** 2}")
    return values


def write_field_csv(path, grid: SamplingGrid, values: np.ndarray) -> None:
    """Raw field dump, one `x,y,value` row per grid point in grid order."""
    values = _grid_values(grid, values)
    # Prefixes and values interleaved for one C-level format call.
    flat = [None] * (2 * values.size)
    flat[::2] = grid.csv_prefixes
    flat[1::2] = values.tolist()
    rows = ("%s%.17g\n" * values.size)[:-1] % tuple(flat)
    archive.write_lines(path, ("x,y,value", rows))


def write_field_pgm(path, grid: SamplingGrid, values: np.ndarray) -> None:
    """Binary PGM rendering, min-max scaled; the top image row is y = +halfwidth."""
    res = grid.resolution
    image = _grid_values(grid, values).reshape(res, res)
    low, high = float(image.min()), float(image.max())
    if high > low:
        scaled = np.round((image - low) / (high - low) * 255.0).astype(np.uint8)
    else:
        scaled = np.full((res, res), 128, dtype=np.uint8)
    header = f"P5\n{res} {res}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(scaled[::-1, :].tobytes())
