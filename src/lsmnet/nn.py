"""Dense networks with exact reverse-mode gradients and Adam training.

Everything here is deliberately self-contained: forward, backward, the
optimizer, the learning-rate schedule, and the embedded serialization
format are all in this module, with no framework underneath.  That keeps
training runs reproducible bit for bit from a seed and makes the gradient
path small enough to verify against finite differences in the test suite.

A network is a stack of affine layers: hidden layers share one
activation, the final layer applies an output transform (identity or
elementwise square; the square keeps downstream quantities nonnegative
without giving up smoothness).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC_NETWORK = b"MLP1"

ACTIVATIONS = ("tanh", "relu")
OUTPUTS = ("identity", "square")


@dataclass
class Mlp:
    """Fully connected network; weights[l] has shape (sizes[l], sizes[l+1])."""

    sizes: tuple
    weights: list
    biases: list
    activation: str
    output: str

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"need at least two positive layer sizes, got {sizes}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.output not in OUTPUTS:
            raise ValueError(f"unknown output transform {self.output!r}")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("layer count does not match sizes")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[l], sizes[l + 1]) or b.shape != (sizes[l + 1],):
                raise ValueError(f"layer {l} parameter shapes do not match sizes")
        self.sizes = sizes


def init_mlp(sizes, activation: str, output: str, seed: int) -> Mlp:
    """Glorot-uniform weights, zero biases, drawn layer by layer from seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    sizes = tuple(int(s) for s in sizes)
    weights, biases = [], []
    for d_in, d_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-limit, limit, size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    return Mlp(sizes, weights, biases, activation, output)


def parameters(mlp: Mlp) -> list:
    """Trainable arrays in a fixed order: W0, b0, W1, b1, ...

    The returned arrays are the live model parameters, so optimizer
    updates applied to them train the model in place.
    """
    return [p for pair in zip(mlp.weights, mlp.biases) for p in pair]


def _as_batch(x: np.ndarray, d_in: int):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape[0] != d_in:
            raise ValueError(f"input has size {x.shape[0]}, network expects {d_in}")
        return x[None, :], True
    if x.ndim == 2 and x.shape[1] == d_in:
        return x, False
    raise ValueError(f"input shape {x.shape} does not match input size {d_in}")


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    return np.tanh(z) if name == "tanh" else np.maximum(z, 0.0)


def _activate_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    # relu slope at exactly zero is taken as zero
    return 1.0 - a ** 2 if name == "tanh" else (z > 0.0).astype(float)


def forward_trace(mlp: Mlp, x: np.ndarray):
    """All intermediate states of a forward pass.

    Returns (pre_activations, activations): activations[0] is the input
    batch, activations[-1] the network output after the output transform,
    and pre_activations[l] the affine output of layer l.  Input of any
    shape (d,) is treated as a single-row batch.
    """
    batch, _ = _as_batch(x, mlp.sizes[0])
    pre, act = [], [batch]
    current = batch
    last = len(mlp.weights) - 1
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = current @ w + b
        pre.append(z)
        if l < last:
            current = _activate(mlp.activation, z)
        elif mlp.output == "square":
            current = z ** 2
        else:
            current = z
        act.append(current)
    return pre, act


def forward(mlp: Mlp, x: np.ndarray) -> np.ndarray:
    """Network output for a single input vector or a batch of rows."""
    _, single = _as_batch(x, mlp.sizes[0])
    out = forward_trace(mlp, x)[1][-1]
    return out[0] if single else out


def backward(mlp: Mlp, x: np.ndarray, upstream: np.ndarray, trace=None,
             input_grad: bool = True):
    """Exact gradients of sum(upstream * forward(x)) in the batch sense.

    Returns (weight_grads, bias_grads, input_grad).  For a batch input the
    parameter gradients accumulate over rows, so the caller controls the
    loss scaling entirely through upstream.  A (pre, act) pair from
    forward_trace on the same input may be passed to skip the recompute.
    With input_grad=False the last product through the first layer's
    weights is skipped and None takes the input gradient's place.
    """
    batch, single = _as_batch(x, mlp.sizes[0])
    upstream = np.asarray(upstream, dtype=float)
    if single:
        upstream = upstream[None, :]
    if upstream.shape != (batch.shape[0], mlp.sizes[-1]):
        raise ValueError(f"upstream shape {upstream.shape} does not match output")

    pre, act = forward_trace(mlp, batch) if trace is None else trace
    delta = upstream
    if mlp.output == "square":
        delta = delta * (2.0 * pre[-1])
    weight_grads = [None] * len(mlp.weights)
    bias_grads = [None] * len(mlp.weights)
    for l in range(len(mlp.weights) - 1, -1, -1):
        weight_grads[l] = act[l].T @ delta
        bias_grads[l] = delta.sum(axis=0)
        if l == 0 and not input_grad:
            return weight_grads, bias_grads, None
        delta = delta @ mlp.weights[l].T
        if l > 0:
            delta = delta * _activate_grad(mlp.activation, pre[l - 1], act[l])
    return weight_grads, bias_grads, delta[0] if single else delta


def parameter_grads(mlp: Mlp, x: np.ndarray, upstream: np.ndarray,
                    trace=None) -> list:
    """Gradients in the order of `parameters`, without the input gradient."""
    weight_grads, bias_grads, _ = backward(mlp, x, upstream, trace=trace,
                                           input_grad=False)
    return [g for pair in zip(weight_grads, bias_grads) for g in pair]


@dataclass
class LrSchedule:
    """Half-cosine learning-rate profile over a fixed step count."""

    lr_start: float
    lr_end: float
    total_steps: int

    def __post_init__(self):
        for name in ("lr_start", "lr_end"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.lr_end > self.lr_start:
            raise ValueError("schedule must not increase the learning rate")
        if self.total_steps < 1:
            raise ValueError("schedule needs at least one step")


def lr_at(schedule: LrSchedule, step: int) -> float:
    """Learning rate before optimizer step `step` (0-based, up to total_steps)."""
    if step < 0 or step > schedule.total_steps:
        raise ValueError(f"step {step} outside [0, {schedule.total_steps}]")
    span = schedule.lr_start - schedule.lr_end
    return schedule.lr_end + 0.5 * span * (1.0 + np.cos(np.pi * step / schedule.total_steps))


# Adam's moment decay rates and denominator offset (Kingma & Ba's values).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Optimizer state; moment arrays mirror the parameter shapes."""

    base_lr: float
    weight_decay: float = 0.0
    decoupled: bool = True
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def make_adam(params: list, base_lr: float, weight_decay: float = 0.0,
              decoupled: bool = True) -> AdamState:
    if not (np.isfinite(base_lr) and base_lr > 0.0):
        raise ValueError(f"learning rate must be positive and finite, got {base_lr}")
    if not (np.isfinite(weight_decay) and weight_decay >= 0.0):
        raise ValueError(f"weight decay must be nonnegative and finite, "
                         f"got {weight_decay}")
    state = AdamState(base_lr=float(base_lr), weight_decay=float(weight_decay),
                      decoupled=bool(decoupled))
    state.m = [np.zeros_like(p) for p in params]
    state.v = [np.zeros_like(p) for p in params]
    return state


def adam_step(state: AdamState, params: list, grads: list,
              lr: float | None = None) -> None:
    """One in-place Adam update with bias correction.

    Decoupled weight decay multiplies parameters by (1 - lr*wd) alongside
    the moment update; the coupled variant folds wd*p into the gradient
    instead.  Non-finite gradients abort before any state is touched.
    """
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ValueError("parameter/gradient lists do not match optimizer state")
    # One pass per gradient; a sum that overflows on finite entries is
    # confirmed entry by entry before it is refused.
    with np.errstate(over="ignore", invalid="ignore"):
        for g in grads:
            if not np.isfinite(np.sum(g)) and not np.isfinite(g).all():
                raise ValueError("non-finite gradient passed to optimizer")
    lr = state.base_lr if lr is None else float(lr)
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if not state.decoupled and state.weight_decay > 0.0:
            g = g + state.weight_decay * p
        # Blocks of whole rows, ~32k elements, keep the passes in cache.
        rows = max(1, (1 << 15) // max(1, p[:1].size))
        scratch = np.empty_like(p[:rows])
        for lo in range(0, len(p), rows):
            pb, gb, mb, vb = (a[lo:lo + rows] for a in (p, g, m, v))
            work = scratch[:len(pb)]
            mb *= BETA1
            mb += np.multiply(1.0 - BETA1, gb, out=work)
            vb *= BETA2
            vb += np.multiply(1.0 - BETA2, np.square(gb, out=work), out=work)
            np.sqrt(vb, out=work)
            work *= 1.0 / np.sqrt(bc2)
            work += EPS
            np.divide(mb, work, out=work)
            if state.decoupled and state.weight_decay > 0.0:
                pb *= 1.0 - lr * state.weight_decay
            work *= lr / bc1
            pb -= work


def mlp_to_bytes(mlp: Mlp) -> bytes:
    """Embedded form: magic, layer sizes, activation/output codes, f64 payload."""
    parts = [MAGIC_NETWORK,
             struct.pack("<I", len(mlp.sizes)),
             struct.pack(f"<{len(mlp.sizes)}I", *mlp.sizes),
             struct.pack("<BB", ACTIVATIONS.index(mlp.activation),
                         OUTPUTS.index(mlp.output))]
    for p in parameters(mlp):
        parts.append(np.ascontiguousarray(p, dtype="<f8").tobytes())
    return b"".join(parts)


def read_mlp(reader) -> Mlp:
    """Inverse of mlp_to_bytes at an `archive.Reader`'s position."""
    reader.magic(MAGIC_NETWORK)
    (count,) = reader.header("I")
    sizes = tuple(int(size) for size in reader.array("<u4", (count,)))
    act_code, out_code = reader.header("BB")
    if act_code >= len(ACTIVATIONS) or out_code >= len(OUTPUTS):
        raise ValueError("network blob has unknown activation or output code")
    weights, biases = [], []
    for d_in, d_out in zip(sizes[:-1], sizes[1:]):
        weights.append(reader.array("<f8", (d_in, d_out)))
        biases.append(reader.array("<f8", (d_out,)))
    return Mlp(sizes, weights, biases, ACTIVATIONS[act_code], OUTPUTS[out_code])
