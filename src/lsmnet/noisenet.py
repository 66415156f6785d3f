"""Perturbation-norm estimation from the singular-value profile.

Multiplicative noise lifts the decaying tail of the far-field spectrum to
a plateau whose height tracks the perturbation norm, so the log spectrum
of the noisy matrix is enough to recover that norm without clean data.
A small network regresses ln(delta/(sqrt(m)+sqrt(n))) from the log
singular values; the normalization makes the label transfer across
measurement-grid sizes, since the operator norm of an i.i.d. perturbation
scales like sqrt(m)+sqrt(n).  ``forward.estimator_input`` cuts inputs on
finer grids to the lowest multiple-of-native frequencies and then folds
them to the native training shape, so white noise reaches the network
white; the scale factor uses the original shape, corrected for the noise
variance the cut removed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import archive, nn
# fold_to_shape is re-exported for callers; the estimator reads estimator_input.
from .forward import (FarFieldMatrix, add_noise, check_range, check_wavenumber,
                      disk_farfields, estimator_input, fold_to_shape)

logger = logging.getLogger(__name__)

MAGIC_ESTIMATOR = b"NNET"
MAGIC_DATASET = b"NDS1"

# Training labels live in a narrow band of nats; a prediction this far
# outside it means the input spectrum looks nothing like the training
# distribution.
LABEL_MARGIN = 0.5

# The network and the features see only min(m0, n0) of the native shape.
# Its longer side is held to this many times the shorter, so the native
# matrix a measurement is folded onto stays within NATIVE_ASPECT * p^2
# entries for a network of p inputs, whatever an archive's header says.
NATIVE_ASPECT = 4

_HIDDEN = 100
_SV_FLOOR = 1e-300


def _check_native_shape(m0: int, n0: int) -> None:
    """Refuse a native shape the estimator cannot have."""
    if not 1 <= min(m0, n0) or max(m0, n0) > NATIVE_ASPECT * min(m0, n0):
        raise ValueError(f"native shape (m0, n0) = ({m0}, {n0}): both sides "
                         f"must be positive and the longer at most "
                         f"{NATIVE_ASPECT} times the shorter")


@dataclass
class NoiseNet:
    """Spectrum regressor with the label range seen during training."""

    mlp: nn.Mlp
    m0: int
    n0: int
    label_min: float = float("nan")
    label_max: float = float("nan")

    def __post_init__(self):
        _check_native_shape(self.m0, self.n0)
        expected = (min(self.m0, self.n0), _HIDDEN, 1)
        if self.mlp.sizes != expected:
            raise ValueError(f"network sizes {self.mlp.sizes} do not match "
                             f"the required {expected}")
        if self.mlp.activation != "relu" or self.mlp.output != "identity":
            raise ValueError("estimator must use relu hidden layers and a "
                             "plain linear output")


def make_noisenet(m0: int, n0: int, seed: int) -> NoiseNet:
    mlp = nn.init_mlp((min(m0, n0), _HIDDEN, 1), "relu", "identity", seed)
    return NoiseNet(mlp, int(m0), int(n0))


def spectrum_features(farfield: FarFieldMatrix) -> np.ndarray:
    """Log singular values of the matrix, floored to stay finite."""
    values = np.linalg.svd(farfield.entries, compute_uv=False)
    return np.log(np.maximum(values, _SV_FLOOR))


@dataclass(frozen=True)
class NoiseDataset:
    """Noisy centered-disk spectra with normalized log-norm labels."""

    features: np.ndarray
    labels: np.ndarray
    etas: np.ndarray
    radii: np.ndarray
    deltas: np.ndarray
    m0: int
    n0: int
    k: float

    def __post_init__(self):
        _check_native_shape(self.m0, self.n0)
        count = self.features.shape[0]
        if self.features.ndim != 2:
            raise ValueError("features must be (count, n_features)")
        for arr in (self.labels, self.etas, self.radii, self.deltas):
            if arr.shape != (count,):
                raise ValueError("dataset arrays disagree on sample count")
        if np.any(self.etas <= 0.0) or np.any(self.radii <= 0.0):
            raise ValueError("noise levels and radii must be positive")
        check_wavenumber(self.k)

    @property
    def count(self) -> int:
        return self.features.shape[0]


def gen_noise_dataset(k: float, m0: int, n0: int, seed: int, count: int = 400,
                      eta_range=(5e-3, 3e-1), radius_range=(0.5, 1.5)) -> NoiseDataset:
    """Deterministic corpus of noisy centered-disk spectra.

    Noise levels are log-uniform on eta_range, radii uniform on
    radius_range, and each sample gets its own noise seed.  Draw order is
    fixed (all levels, all radii, all seeds) so one master seed pins the
    whole corpus.  The label is the log perturbation norm normalized by
    sqrt(m0) + sqrt(n0).
    """
    check_range("noise", eta_range)
    check_range("radius", radius_range)
    e_lo, e_hi = eta_range
    r_lo, r_hi = radius_range
    if count < 1:
        raise ValueError(f"need at least one sample, got {count}")
    _check_native_shape(m0, n0)
    rng = np.random.Generator(np.random.PCG64(seed))
    etas = np.exp(rng.uniform(np.log(e_lo), np.log(e_hi), size=count))
    radii = rng.uniform(r_lo, r_hi, size=count)
    seeds = rng.integers(0, 2 ** 63, size=count)

    scale = np.sqrt(m0) + np.sqrt(n0)
    features = np.empty((count, min(m0, n0)))
    deltas = np.empty(count)
    clean = disk_farfields(np.zeros((count, 2)), radii, k, m0, n0)
    for i in range(count):
        noisy, realization = add_noise(FarFieldMatrix(clean[i], k), etas[i],
                                       int(seeds[i]))
        features[i] = spectrum_features(noisy)
        deltas[i] = realization.delta
    labels = np.log(deltas / scale)
    return NoiseDataset(features, labels, etas, radii, deltas,
                        int(m0), int(n0), float(k))


def train_noisenet(net: NoiseNet, dataset: NoiseDataset, epochs: int = 300,
                   lr: float = 5e-3, weight_decay: float = 1e-4,
                   decoupled: bool = True) -> list:
    """Full-batch training in place; returns per-epoch mean squared errors.

    Full-batch gradients make the run deterministic without a shuffle
    seed.  The label range of the dataset is recorded on the net up
    front, so even a zero-epoch call leaves the extrapolation guard
    armed while the parameters stay untouched.
    """
    if dataset.features.shape[1] != net.mlp.sizes[0]:
        raise ValueError("dataset features do not match the network input")
    if epochs < 0:
        raise ValueError(f"epochs must be nonnegative, got {epochs}")
    params = nn.parameters(net.mlp)
    state = nn.make_adam(params, lr, weight_decay=weight_decay, decoupled=decoupled)
    net.label_min = float(dataset.labels.min())
    net.label_max = float(dataset.labels.max())

    targets = dataset.labels[:, None]
    losses = []
    for epoch in range(epochs):
        trace = nn.forward_trace(net.mlp, dataset.features)
        err = trace[1][-1] - targets
        loss = float(np.mean(err ** 2))
        if not np.isfinite(loss):
            raise RuntimeError(f"training diverged at epoch {epoch + 1}: loss {loss}")
        upstream = (2.0 / err.size) * err
        grads = nn.parameter_grads(net.mlp, dataset.features, upstream,
                                   trace=trace)
        nn.adam_step(state, params, grads)
        losses.append(loss)
    return losses


def predict_delta(net: NoiseNet, farfield: FarFieldMatrix) -> float:
    """Estimated perturbation norm of one measurement.

    The spectrum is taken on the native-shape matrix from
    ``estimator_input``, but the returned norm is rescaled with the
    original grid shape, matching how operator norms of i.i.d.
    perturbations grow with matrix size, and with the correction for the
    noise variance the frequency cut removed.  Predictions outside the
    recorded label range (plus a margin) log a warning: the estimate is
    an extrapolation.
    """
    native, correction = estimator_input(farfield, net.m0, net.n0)
    output = float(nn.forward(net.mlp, spectrum_features(native))[0])
    if np.isfinite(net.label_min) and not (
            net.label_min - LABEL_MARGIN <= output <= net.label_max + LABEL_MARGIN):
        logger.warning("norm estimate %.4g nats outside the training range "
                       "[%.4g, %.4g]", output, net.label_min, net.label_max)
    m, n = farfield.shape
    return (np.sqrt(m) + np.sqrt(n)) * np.exp(output) * correction


def save_noisenet(path, net: NoiseNet) -> None:
    archive.write(path, MAGIC_ESTIMATOR, "2I2d",
                  (net.m0, net.n0, net.label_min, net.label_max),
                  tail=nn.mlp_to_bytes(net.mlp))


def load_noisenet(path) -> NoiseNet:
    with archive.read(path, MAGIC_ESTIMATOR) as reader:
        m0, n0, label_min, label_max = reader.header("2I2d")
        _check_native_shape(m0, n0)
        return NoiseNet(nn.read_mlp(reader), m0, n0, label_min, label_max)


def save_noise_dataset(path, dataset: NoiseDataset) -> None:
    archive.write(path, MAGIC_DATASET, "3Id",
                  (dataset.count, dataset.m0, dataset.n0, dataset.k),
                  [(values, "<f8") for values in (dataset.features, dataset.labels,
                                                  dataset.etas, dataset.radii,
                                                  dataset.deltas)])


def load_noise_dataset(path) -> NoiseDataset:
    with archive.read(path, MAGIC_DATASET) as reader:
        count, m0, n0, k = reader.header("3Id")
        _check_native_shape(m0, n0)
        features = reader.array("<f8", (count, min(m0, n0)))
        labels, etas, radii, deltas = (reader.array("<f8", (count,))
                                       for _ in range(4))
        return NoiseDataset(features, labels, etas, radii, deltas, m0, n0, k)
