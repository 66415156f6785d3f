"""Operator network mapping far-field matrices to indicator fields.

The network has a fixed, interpretable decoder: a trunk of Gaussian
radial basis functions on a uniform grid of centers covering the search
domain, so the learned part is only the branch that maps measurement
data to nonnegative basis coefficients.  Training data is synthetic and
fully deterministic: disks of random radius on a dense grid of centers,
labeled by their own characteristic function at the trunk centers.

The same trained object also supplies the spatial profile for learned
regularization: the indicator is scaled by an estimated perturbation
norm to produce a per-point Tikhonov parameter.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import archive, nn, noisenet
from .forward import (FarFieldMatrix, check_wavelength, check_wavenumber,
                      disk_farfields, fourier_resample)
from .regsolve import IndicatorField, RegField, SamplingGrid, tensor_points

logger = logging.getLogger(__name__)

MAGIC_MODEL = b"RDON"
MAGIC_DATASET = b"RDS1"

# Width floor for the basis: below exp(-2) neighboring bumps decouple and
# the trunk Gram matrix turns numerically singular.
S_MIN = math.exp(-2.0)

# Keeps learned regularization fields strictly positive where the
# indicator underflows; relative to the estimated perturbation norm.
ALPHA_FLOOR_REL = 1e-8

_HIDDEN_FACTOR = 3
_POSITION_REFINEMENT = 4
# Disks per broadcast of the label test.
_LABEL_BLOCK = 256


@dataclass(frozen=True)
class RbfTrunk:
    """Gaussian basis exp(-epsilon r^2) on an n_h x n_h grid of centers.

    The shape parameter is tied to the grid: epsilon = -ln(s)/h^2, so a
    basis function evaluated at the neighboring center equals s.  Centers
    cover [-lam*L, lam*L]^2 row-major with x varying fastest.  Only the
    four scalars are stored; the centers are built on first use.
    """

    lam: float
    L: float
    h: float
    s: float

    @property
    def n_h(self) -> int:
        return int(math.floor(2.0 * (self.lam * self.L) / self.h)) + 1

    @property
    def p_h(self) -> int:
        return self.n_h * self.n_h

    @property
    def epsilon(self) -> float:
        return -math.log(self.s) / self.h ** 2

    @property
    def axis(self) -> np.ndarray:
        halfwidth = self.lam * self.L
        return np.linspace(-halfwidth, halfwidth, self.n_h)

    @cached_property
    def centers(self) -> np.ndarray:
        return tensor_points(self.axis)


def make_trunk(lam: float, L: float, h: float, s: float,
               allow_low_s: bool = False) -> RbfTrunk:
    """Build the basis grid for a domain halfwidth lam*L and spacing h."""
    for name, value in (("wavelength lam", lam), ("domain factor L", L), ("spacing h", h)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if not math.isfinite(2.0 * lam * L / h):
        raise ValueError(f"trunk lam={lam!r}, L={L!r}, h={h!r} has no finite grid")
    if not 0.0 < s < 1.0:
        raise ValueError(f"neighbor value s must lie in (0, 1), got {s}")
    # h ** 2 is tested before it divides: it can underflow to 0, or be so
    # small that the shape parameter overflows.
    if not (h ** 2 > 0.0 and math.isfinite(-math.log(s) / h ** 2)):
        raise ValueError(f"spacing h={h!r} gives no finite shape parameter "
                         f"-ln(s)/h**2 for s={s!r}")
    if s < S_MIN:
        if not allow_low_s:
            raise ValueError(
                f"s = {s:.4g} is below the conditioning floor {S_MIN:.4g}; "
                f"pass allow_low_s=True to override")
        logger.warning("basis neighbor value s = %.4g below recommended floor %.4g",
                       s, S_MIN)
    return RbfTrunk(float(lam), float(L), float(h), float(s))


def trunk_eval(trunk: RbfTrunk, points) -> np.ndarray:
    """Basis matrix at query points: row p, column i is exp(-eps |z_p - c_i|^2)."""
    points = np.asarray(points, dtype=float)
    single = points.ndim == 1
    if single:
        points = points[None, :]
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("query points must be 2-vectors")
    sq = ((points[:, None, :] - trunk.centers[None, :, :]) ** 2).sum(axis=2)
    values = np.exp(-trunk.epsilon * sq)
    return values[0] if single else values


@dataclass
class RbfDeepOnet:
    """Branch network plus trunk; input is a far field on the m0 x n0 grid."""

    trunk: RbfTrunk
    branch: nn.Mlp
    m0: int
    n0: int

    def __post_init__(self):
        expected = (2 * self.m0 * self.n0,
                    _HIDDEN_FACTOR * self.trunk.p_h, self.trunk.p_h)
        if self.branch.sizes != expected:
            raise ValueError(f"branch sizes {self.branch.sizes} do not match "
                             f"the required {expected}")
        if self.branch.activation != "tanh" or self.branch.output != "square":
            raise ValueError("branch must use tanh hidden layers and a squared output")


def make_deeponet(trunk: RbfTrunk, m0: int, n0: int, seed: int) -> RbfDeepOnet:
    branch = nn.init_mlp(
        (2 * m0 * n0, _HIDDEN_FACTOR * trunk.p_h, trunk.p_h),
        "tanh", "square", seed)
    return RbfDeepOnet(trunk, branch, int(m0), int(n0))


def branch_features(farfield: FarFieldMatrix) -> np.ndarray:
    """Real input vector: row-major real parts then row-major imaginary parts."""
    return np.concatenate([farfield.entries.real.ravel(),
                           farfield.entries.imag.ravel()])


@dataclass(frozen=True)
class TrainingSet:
    """Disk far fields with their characteristic functions at trunk centers."""

    matrices: np.ndarray
    centers: np.ndarray
    radii: np.ndarray
    labels: np.ndarray
    k: float

    def __post_init__(self):
        count = self.matrices.shape[0]
        if self.matrices.ndim != 3:
            raise ValueError("matrices must be (count, m0, n0)")
        if (self.centers.shape != (count, 2) or self.radii.shape != (count,)
                or self.labels.shape[0] != count):
            raise ValueError("training arrays disagree on sample count")
        if self.labels.ndim != 2 or not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValueError("labels must be a binary (count, p_h) array")
        if np.any(self.radii <= 0.0):
            raise ValueError("radii must be positive")
        check_wavenumber(self.k)

    @property
    def count(self) -> int:
        return self.matrices.shape[0]


def gen_training_set(trunk: RbfTrunk, k: float, m0: int, n0: int, seed: int,
                     radius_range=None) -> TrainingSet:
    """Deterministic clean disk corpus: 16 samples per basis function.

    Disk centers run over a position grid refined 4x from the trunk grid
    (so 16 p_h samples), radii are uniform on radius_range (default half
    to one and a half wavelengths) and are the only draws, and labels
    mark which trunk centers fall inside the disk, boundary included.
    """
    if radius_range is None:
        radius_range = (0.5 * trunk.lam, 1.5 * trunk.lam)
    r_lo, r_hi = radius_range
    if not 0.0 < r_lo <= r_hi < np.inf:
        raise ValueError(f"radius range {radius_range} must be finite, 0 < low <= high")
    rng = np.random.Generator(np.random.PCG64(seed))
    halfwidth = trunk.lam * trunk.L
    positions = tensor_points(np.linspace(-halfwidth, halfwidth,
                                          _POSITION_REFINEMENT * trunk.n_h))
    count = positions.shape[0]

    radii = rng.uniform(r_lo, r_hi, size=count)
    matrices = disk_farfields(positions, radii, k, m0, n0)
    labels = np.empty((count, trunk.p_h), dtype=np.uint8)
    for lo in range(0, count, _LABEL_BLOCK):
        block = slice(lo, lo + _LABEL_BLOCK)
        # sqrt(dx^2 + dy^2), rounded as np.linalg.norm over the last axis.
        dx = trunk.centers[:, 0] - positions[block, 0, None]
        dy = trunk.centers[:, 1] - positions[block, 1, None]
        labels[block] = np.sqrt(dx * dx + dy * dy) <= radii[block, None]
    return TrainingSet(matrices, positions, radii, labels, float(k))


def train_deeponet(model: RbfDeepOnet, training_set: TrainingSet, seed: int,
                   epochs: int = 300, batch_size: int = 64,
                   lr_start: float = 1e-3, lr_end: float = 1e-5,
                   weight_decay: float = 5e-5, decoupled: bool = True) -> list:
    """Train the branch in place; returns the per-epoch mean losses.

    The loss is the mean squared error between predicted indicator values
    at the trunk centers and the binary labels, averaged over both the
    batch and the centers.  Minibatches are drawn by a seeded shuffle each
    epoch, the learning rate follows a half-cosine over all steps, and a
    non-finite loss aborts with the failing epoch in the message.  A
    corpus at another wavelength than the trunk's raises ValueError.
    """
    check_wavelength(model.trunk.lam, training_set.k, "training set")
    if training_set.labels.shape[1] != model.trunk.p_h:
        raise ValueError("training labels do not match the trunk size")
    if training_set.matrices.shape[1:] != (model.m0, model.n0):
        raise ValueError("training matrices do not match the model input shape")
    if epochs < 0 or batch_size < 1:
        raise ValueError("epochs must be nonnegative and batch size positive")
    if epochs == 0:
        return []

    count = training_set.count
    params = nn.parameters(model.branch)
    steps_per_epoch = -(-count // batch_size)
    schedule = nn.LrSchedule(lr_start, lr_end, epochs * steps_per_epoch)
    state = nn.make_adam(params, lr_start, weight_decay=weight_decay,
                         decoupled=decoupled)
    features = np.concatenate(
        [training_set.matrices.real.reshape(count, -1),
         training_set.matrices.imag.reshape(count, -1)], axis=1)
    targets = training_set.labels.astype(float)
    gram = trunk_eval(model.trunk, model.trunk.centers)
    rng = np.random.Generator(np.random.PCG64(seed))

    losses = []
    for epoch in range(epochs):
        order = rng.permutation(count)
        squared_sum = 0.0
        for start in range(0, count, batch_size):
            idx = order[start:start + batch_size]
            xb = features[idx]
            trace = nn.forward_trace(model.branch, xb)
            predicted = trace[1][-1] @ gram
            err = predicted - targets[idx]
            squared_sum += float(np.sum(err ** 2))
            upstream = (2.0 / err.size) * (err @ gram)
            grads = nn.parameter_grads(model.branch, xb, upstream, trace=trace)
            nn.adam_step(state, params, grads, nn.lr_at(schedule, state.step))
        mean_loss = squared_sum / (count * model.trunk.p_h)
        if not np.isfinite(mean_loss):
            raise RuntimeError(f"training diverged at epoch {epoch + 1}: "
                               f"loss {mean_loss}")
        losses.append(mean_loss)
    return losses


def indicator_eval(model: RbfDeepOnet, farfield: FarFieldMatrix,
                   grid: SamplingGrid) -> IndicatorField:
    """Indicator field of one measurement: trunk combination of branch outputs.

    A far field whose wavelength 2 pi/k is not the trunk's raises
    ValueError; one on another grid than the model's native m0 x n0 is
    brought there by trigonometric resampling.  The branch runs once;
    evaluation over the grid is a basis expansion with nonnegative
    coefficients, so the field is nonnegative by construction.  The
    sampling grid and the trunk centers are both tensor grids and each
    Gaussian factors per axis, so the expansion is E C E^T with
    E[i, j] = exp(-eps (a_i - c_j)^2) over the two axes and C the
    n_h x n_h coefficient grid: 2 res n_h exponentials instead of one per
    point and center.
    """
    check_wavelength(model.trunk.lam, farfield.k)
    native = fourier_resample(farfield, model.m0, model.n0)
    coefficients = nn.forward(model.branch, branch_features(native))
    trunk = model.trunk
    factor = np.exp(-trunk.epsilon * (grid.axis[:, None] - trunk.axis[None, :]) ** 2)
    values = factor @ coefficients.reshape(trunk.n_h, trunk.n_h) @ factor.T
    return IndicatorField(grid, values.ravel())


def learned_regularizer(model: RbfDeepOnet, noise_model, farfield: FarFieldMatrix,
                        grid: SamplingGrid) -> RegField:
    """Spatial Tikhonov parameter: estimated perturbation norm times indicator."""
    return indicator_alpha(noisenet.predict_delta(noise_model, farfield),
                           indicator_eval(model, farfield, grid))


def indicator_alpha(delta: float, indicator: IndicatorField) -> RegField:
    """The learned rule max(delta I, ALPHA_FLOOR_REL delta) on the indicator's grid."""
    alpha = np.maximum(delta * indicator.values, ALPHA_FLOOR_REL * delta)
    return RegField(indicator.grid, alpha)


def save_deeponet(path, model: RbfDeepOnet) -> None:
    """Model archive: trunk scalars, input grid shape, then the branch blob."""
    trunk = model.trunk
    archive.write(path, MAGIC_MODEL, "5d2I",
                  (trunk.lam, trunk.L, trunk.h, trunk.s, trunk.epsilon,
                   model.m0, model.n0), tail=nn.mlp_to_bytes(model.branch))


def load_deeponet(path) -> RbfDeepOnet:
    """Inverse of save_deeponet.

    The trunk holds only its scalars, so it is built from the header and
    checked against the branch before any center exists.
    """
    with archive.read(path, MAGIC_MODEL) as reader:
        lam, L, h, s, epsilon, m0, n0 = reader.header("5d2I")
        branch = nn.read_mlp(reader)
        trunk = make_trunk(lam, L, h, s, allow_low_s=True)
        if trunk.p_h != branch.sizes[-1]:
            raise ValueError(f"trunk geometry lam={lam!r}, L={L!r}, h={h!r} does "
                             f"not give the branch's {branch.sizes[-1]} outputs")
        if not abs(trunk.epsilon - epsilon) <= 1e-12 * max(epsilon, 1.0):
            raise ValueError("archived shape parameter disagrees with trunk geometry")
        return RbfDeepOnet(trunk, branch, m0, n0)


def save_training_set(path, training_set: TrainingSet) -> None:
    """Dataset archive: counts and k, then the arrays in declaration order."""
    count, m0, n0 = training_set.matrices.shape
    archive.write(path, MAGIC_DATASET, "4Id",
                  (count, m0, n0, training_set.labels.shape[1], training_set.k),
                  [(training_set.matrices, "<c16"), (training_set.centers, "<f8"),
                   (training_set.radii, "<f8"), (training_set.labels, np.uint8)])


def load_training_set(path) -> TrainingSet:
    with archive.read(path, MAGIC_DATASET) as reader:
        count, m0, n0, p_h, k = reader.header("4Id")
        return TrainingSet(reader.array("<c16", (count, m0, n0)),
                           reader.array("<f8", (count, 2)),
                           reader.array("<f8", (count,)),
                           reader.array(np.uint8, (count, p_h)), k)


def write_loss_csv(path, losses) -> None:
    archive.write_lines(path, ["epoch,loss"] + [
        f"{epoch},{loss:.17g}" for epoch, loss in enumerate(losses, start=1)])
