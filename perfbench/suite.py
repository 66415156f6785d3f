"""Set-up, workloads, output checks and metrics of the lsmnet benchmark.

Imported by `run.py` only after the BLAS thread count is pinned, because
NumPy starts its thread pool on import.

Every workload is a closed loop with one client: the next operation
starts when the previous one has returned.  The first operation of each
kind is a warm-up: it is checked but not timed.  Timed operations cycle
through the kinds until the run's time budget is spent, and each kind
reports the median of its samples.

Every timed operation is bracketed by two runs of a fixed reference
kernel (`Reference`), and the gated figure is the operation's time over
the mean of those two.  The cores of a shared host swing in throughput
by up to 1.6x over spans of seconds to minutes, so raw medians of the
same code spread by a quarter between runs; the paired ratio cancels
the swing and spreads by a few percent.  Raw seconds are still reported.
"""

from __future__ import annotations

import contextlib
import math
import os
import statistics
from statistics import median
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from lsmnet import (cli, deeponet, forward, geometry, nn, noisenet, nystrom,
                    regsolve)

from spans import Layer, Tracer, coverage, layer_totals

# Set-up builds the same networks in every run, whatever the workload seed.
SETUP_SEED = 0
SETUP_REPEATS = 5
# Output-check sample: grid points re-solved by the Tikhonov oracle per
# operation, and corpus entries recomputed per generation.
CHECK_POINTS = 8
CHECK_DISKS = 4
# Relative step either side of a Morozov alpha at which the discrepancy
# must have opposite signs.
DISCREPANCY_STEP = 1e-4
# Timed rounds over all kinds, whatever the time budget: a traced run
# needs one untraced and one traced sample of each kind.
MIN_ROUNDS = 2
# Domain factor of the trunk whose positions each timed corpus generation
# covers: 16 x 16 = 256 disks at the shipped k, m0, n0 and radius range,
# so a run times some thirty generations and epochs, where the shipped
# 4,624-disk corpus (7 to 12 s each) allowed two.
CORPUS_L = 0.75
REFERENCE_SEED = 0
REFERENCE_CHUNKS = 3


@dataclass(frozen=True)
class Scale:
    """Problem sizes: the shipped defaults, or a toy for the self-test."""

    config: cli.RunConfig
    sweep_sizes: tuple


def scale(toy: bool) -> Scale:
    if not toy:
        return Scale(cli.default_config(), (50, 200))
    # The reduced geometry of the release gate's rerun criterion.
    config = replace(cli.default_config(), L=1.5, grid_resolution=10,
                     m0=12, n0=12, trunk_h=1.0, noisenet_epochs=4,
                     noise_count=10, raw_m=16, raw_n=16, nystrom_q=32)
    return Scale(config, (10, 20))


class Reference:
    """Fixed work that no lsmnet change touches, in the three kinds the
    workloads do: interpreted loops of small NumPy steps on a 30 x 30
    measurement, a dense product of a branch-layer shape, and a winding
    sum over freshly allocated (256, 2048) arrays, which spill out of L2
    as the truth mask's do.  A call runs `REFERENCE_CHUNKS` chunks and
    returns the median chunk time, so a single preemption does not skew
    it; about 11 ms a chunk on a 2-vCPU Xeon VM."""

    def __init__(self):
        rng = np.random.default_rng(REFERENCE_SEED)
        self.angles = np.linspace(0.0, 1.0, 900).reshape(30, 30)
        self.a = rng.standard_normal((64, 1800))
        self.b = rng.standard_normal((1800, 867))
        self.x = rng.standard_normal((256, 2048))
        self.y = rng.standard_normal((256, 2048))

    def __call__(self) -> float:
        chunks = []
        for _ in range(REFERENCE_CHUNKS):
            started = time.perf_counter()
            for _ in range(3):
                acc = np.zeros((30, 30), dtype=complex)
                for p in range(30):
                    acc += math.cos(0.1 * p) * np.cos(p * self.angles)
            self.a @ self.b
            np.sum(np.arctan2(self.x * self.y - self.y, self.x + self.y),
                   axis=1)
            chunks.append(time.perf_counter() - started)
        return median(chunks)


# -- set-up ---------------------------------------------------------------

@dataclass
class Models:
    model: deeponet.RbfDeepOnet
    noise_model: noisenet.NoiseNet
    deeponet_path: Path
    noisenet_path: Path


def set_up(config: cli.RunConfig, work: Path) -> Models:
    """Untrained operator network plus a noise estimator trained at the
    configured defaults, both saved as archives.  The operator network's
    weights do not change the cost of anything timed."""
    trunk = deeponet.make_trunk(config.lam, config.L, config.trunk_h,
                                config.trunk_s)
    model = deeponet.make_deeponet(trunk, config.m0, config.n0,
                                   seed=SETUP_SEED)
    dataset = noisenet.gen_noise_dataset(
        config.k, config.m0, config.n0, seed=SETUP_SEED + 1,
        count=config.noise_count,
        eta_range=(config.eta_min, config.eta_max),
        radius_range=(config.radius_min, config.radius_max))
    net = noisenet.make_noisenet(config.m0, config.n0, seed=SETUP_SEED)
    noisenet.train_noisenet(net, dataset, epochs=config.noisenet_epochs,
                            lr=config.noisenet_lr,
                            weight_decay=config.noisenet_weight_decay,
                            decoupled=not config.coupled_decay)
    models = Models(model, net, work / "deeponet_model.bin",
                    work / "noisenet_model.bin")
    deeponet.save_deeponet(models.deeponet_path, model)
    noisenet.save_noisenet(models.noisenet_path, net)
    return models


# -- shared helpers -------------------------------------------------------

def _measurement(config: cli.RunConfig, seed: int):
    scene = geometry.Scene(obstacles=config.obstacles,
                           domain_halfwidth=config.L)
    farfield = nystrom.nystrom_farfield(scene, config.k, config.raw_m,
                                        config.raw_n,
                                        quadrature_points=config.nystrom_q)
    return forward.add_noise(farfield, config.eta, seed=seed)


def _check_tikhonov(measured, svdt, grid, indicator, alpha, rng) -> None:
    """Re-solve sampled points explicitly and compare 1/||g_z||."""
    for p in rng.choice(grid.points.shape[0], size=CHECK_POINTS,
                        replace=False):
        rhs = regsolve.testfunction_rhs(grid.points[p], measured.theta,
                                        measured.k)
        g = regsolve.tikhonov_solve(svdt, rhs, float(alpha[p]))
        expected = 1.0 / np.linalg.norm(g)
        if not math.isclose(indicator[p], expected, rel_tol=1e-8):
            raise AssertionError(f"indicator at point {p} is {indicator[p]!r}"
                                 f", Tikhonov oracle gives {expected!r}")


def _check_positive(name: str, values) -> None:
    if not (np.all(np.isfinite(values)) and np.all(values > 0.0)):
        raise AssertionError(f"{name} has non-finite or non-positive values")


def _read_field(path: Path, grid) -> np.ndarray:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (grid.points.shape[0], 3):
        raise AssertionError(f"{path.name} has shape {table.shape}")
    return table[:, 2]


def _read_metric(path: Path, key: str) -> float:
    for line in path.read_text(encoding="utf-8").splitlines():
        name, _, value = line.partition("=")
        if name.strip() == key:
            return float(value)
    raise AssertionError(f"{path.name} has no {key!r}")


# -- workloads ------------------------------------------------------------

class ReconstructKite:
    """One `lsmnet reconstruct` at the shipped defaults per operation."""

    kinds = ("reconstruct",)

    def __init__(self, problem: Scale, seed: int, models: Models,
                 work: Path):
        self.out = work / "reconstruct"
        self.config = replace(problem.config, out_dir=str(self.out))
        self.seed = seed
        self.models = models

    def run(self, kind: str, index: int):
        config = replace(self.config, seed=self.seed * 10_000 + index)
        cli.cmd_reconstruct(config,
                            deeponet_path=self.models.deeponet_path,
                            noisenet_path=self.models.noisenet_path)
        return config

    def check(self, kind: str, index: int, config) -> dict:
        measured, realization = _measurement(config, config.seed)
        svdt = regsolve.svd(measured)
        grid = regsolve.SamplingGrid.make(config.L, config.grid_resolution)
        fields = {stem: _read_field(self.out / f"indicator_{stem}.csv", grid)
                  for stem in ("morozov", "constant", "learned", "deeponet")}
        for stem, values in fields.items():
            _check_positive(f"indicator_{stem}", values)
        rng = np.random.default_rng([self.seed, index])
        alpha_morozov = _read_field(self.out / "alpha_morozov.csv", grid)
        _check_tikhonov(measured, svdt, grid, fields["morozov"],
                        alpha_morozov, rng)

        delta_est = noisenet.predict_delta(self.models.noise_model, measured)
        alpha_learned = _read_field(self.out / "alpha_learned.csv", grid)
        expected = np.maximum(delta_est * fields["deeponet"],
                              1e-8 * delta_est)
        if not np.allclose(alpha_learned, expected, rtol=1e-12, atol=0.0):
            raise AssertionError("alpha_learned is not max(delta_est * "
                                 "I_deeponet, 1e-8 * delta_est)")
        return {"iou_morozov": _read_metric(self.out / "metrics_morozov.txt",
                                            "iou_at_half"),
                "delta_rel_err": abs(delta_est - realization.delta)
                / realization.delta}


class SamplingSweep:
    """Morozov against learned regularization on a small and a large grid,
    all on one noisy kite measurement and its shared SVD.  The clock covers
    regularizer construction plus the indicator solve, as in
    `lsmnet benchmark`."""

    def __init__(self, problem: Scale, seed: int, models: Models,
                 work: Path):
        self.config = problem.config
        self.models = models
        self.seed = seed
        self.measured, self.realization = _measurement(self.config, seed)
        self.svdt = regsolve.svd(self.measured)
        self.grids = {size: regsolve.SamplingGrid.make(self.config.L, size)
                      for size in problem.sweep_sizes}
        self.kinds = tuple(f"{strategy}.{size}"
                           for size in problem.sweep_sizes
                           for strategy in ("morozov", "learned"))

    def run(self, kind: str, index: int):
        strategy, size = kind.split(".")
        grid = self.grids[int(size)]
        if strategy == "morozov":
            return None, regsolve.lsm_indicator(
                self.measured, grid, regsolve.Morozov(self.realization.delta),
                svdt=self.svdt)
        reg = deeponet.learned_regularizer(self.models.model,
                                           self.models.noise_model,
                                           self.measured, grid)
        return reg, regsolve.lsm_indicator(self.measured, grid,
                                           regsolve.Field(reg),
                                           svdt=self.svdt)

    def check(self, kind: str, index: int, output) -> dict:
        reg, result = output
        strategy, size = kind.split(".")
        grid = self.grids[int(size)]
        alpha = result.alpha.alpha
        indicator = result.indicator.values
        _check_positive(kind, indicator)
        rng = np.random.default_rng([self.seed, index])
        _check_tikhonov(self.measured, self.svdt, grid, indicator, alpha, rng)
        if reg is not None:
            if not np.array_equal(alpha, reg.alpha):
                raise AssertionError("solve did not use the learned field")
            return {}
        delta = self.realization.delta
        fallback = alpha == delta * self.svdt.s[0]
        rooted = np.flatnonzero(~fallback)
        for p in rng.choice(rooted, size=min(CHECK_POINTS, rooted.size),
                            replace=False):
            rhs = regsolve.testfunction_rhs(grid.points[p],
                                            self.measured.theta,
                                            self.measured.k)
            below = regsolve.discrepancy(
                self.svdt, rhs, alpha[p] * (1.0 - DISCREPANCY_STEP), delta)
            above = regsolve.discrepancy(
                self.svdt, rhs, alpha[p] * (1.0 + DISCREPANCY_STEP), delta)
            if not below < 0.0 < above:
                raise AssertionError(f"discrepancy does not change sign "
                                     f"around alpha at point {p}")
        return {}


def _labels(trunk, centers, radii) -> np.ndarray:
    """The benchmark's own inside test: trunk centers in each disk."""
    gaps = np.hypot(trunk.centers[None, :, 0] - centers[:, None, 0],
                    trunk.centers[None, :, 1] - centers[:, None, 1])
    return (gaps <= radii[:, None]).astype(np.uint8)


class TrainDeeponet:
    """Operator-corpus generation and single training epochs, alternating.

    A generation covers the positions of a `CORPUS_L` trunk; each epoch
    trains the shipped-size network on the latest generation, relabelled
    on the shipped trunk, continuing from the weights the previous epoch
    left."""

    kinds = ("gen", "epoch")

    def __init__(self, problem: Scale, seed: int, models: Models,
                 work: Path):
        self.config = config = problem.config
        self.model = models.model
        self.corpus_trunk = deeponet.make_trunk(config.lam, CORPUS_L,
                                                config.trunk_h,
                                                config.trunk_s)
        self.seed = seed
        self.corpus = None

    def run(self, kind: str, index: int):
        config = self.config
        seed = self.seed * 10_000 + index
        if kind == "gen":
            self.corpus = deeponet.gen_training_set(
                self.corpus_trunk, config.k, config.m0, config.n0, seed=seed,
                radius_range=(config.radius_min, config.radius_max))
            return self.corpus
        corpus = self.corpus
        training = replace(corpus, labels=_labels(
            self.model.trunk, corpus.centers, corpus.radii))
        return deeponet.train_deeponet(
            self.model, training, seed=seed, epochs=1,
            batch_size=config.deeponet_batch,
            lr_start=config.deeponet_lr_start,
            lr_end=config.deeponet_lr_end,
            weight_decay=config.deeponet_weight_decay,
            decoupled=not config.coupled_decay)

    def check(self, kind: str, index: int, output) -> dict:
        if kind == "epoch":
            if len(output) != 1 or not np.isfinite(output[0]):
                raise AssertionError(f"epoch losses {output!r}")
            for param in nn.parameters(self.model.branch):
                if not np.all(np.isfinite(param)):
                    raise AssertionError("non-finite network parameter")
            return {}
        corpus, config = output, self.config
        rng = np.random.default_rng([self.seed, index])
        picked = rng.choice(corpus.count, size=CHECK_DISKS, replace=False)
        for i in picked:
            entries = forward.disk_farfield(corpus.centers[i],
                                            corpus.radii[i], config.k,
                                            config.m0, config.n0).entries
            peak = np.max(np.abs(entries))
            if np.max(np.abs(corpus.matrices[i] - entries)) > 1e-12 * peak:
                raise AssertionError(f"corpus matrix {i} differs from its "
                                     f"disk far field")
        expected = _labels(self.corpus_trunk, corpus.centers[picked],
                           corpus.radii[picked])
        if not np.array_equal(corpus.labels[picked], expected):
            raise AssertionError("corpus labels disagree with the disk "
                                 "membership test")
        return {}


WORKLOADS = {"reconstruct-kite": ReconstructKite,
             "sampling-sweep": SamplingSweep,
             "train-deeponet": TrainDeeponet}


# -- traced layers --------------------------------------------------------

def _strategy(args) -> str:
    return type(args["strategy"]).__name__.lower()


def _winding_evals(args, result):
    curves = sum(not isinstance(ob, geometry.Disk)
                 for ob in args["scene"].obstacles)
    points = np.asarray(args["points"]).reshape(-1, 2).shape[0]
    return [("geometry.winding_evals", points * args["samples"] * curves)]


def _discrepancy_evals(args, result):
    if not isinstance(args["strategy"], regsolve.Morozov):
        return []
    rank = min(args["farfield"].shape)
    points = args["grid"].points.shape[0]
    return [("regsolve.discrepancy_evals",
             (regsolve.BISECT_ITERATIONS + 2) * points * rank),
            ("regsolve.fallbacks", result.fallback_count)]


def _csv_bytes(args, result):
    return [("regsolve.csv_bytes", os.path.getsize(args["path"]))]


def _trunk_bytes(args, result):
    points = np.asarray(args["points"]).reshape(-1, 2).shape[0]
    return [("deeponet.trunk_bytes", points * args["trunk"].p_h * 2 * 8)]


def _adam_bytes(args, result):
    # parameters, gradients and both moment arrays, float64 each
    return [("nn.adam_bytes", 4 * 8 * sum(p.size for p in args["params"]))]


LAYERS = (
    Layer("cli.cmd_reconstruct"),
    Layer("deeponet.load_deeponet"),
    Layer("noisenet.load_noisenet"),
    Layer("nystrom.nystrom_farfield"),
    Layer("forward.add_noise"),
    Layer("forward.spectral_norm"),
    Layer("regsolve.svd"),
    Layer("geometry.contains_mask", counter=_winding_evals),
    Layer("regsolve.lsm_indicator", suffix=_strategy,
          counter=_discrepancy_evals),
    Layer("regsolve.write_field_csv", counter=_csv_bytes),
    Layer("regsolve.write_field_pgm"),
    Layer("deeponet.learned_regularizer"),
    Layer("deeponet.indicator_eval"),
    Layer("deeponet.trunk_eval", counter=_trunk_bytes),
    Layer("noisenet.predict_delta"),
    Layer("noisenet.fold_to_shape"),
    Layer("noisenet.spectrum_features"),
    Layer("forward.fourier_resample"),
    Layer("nn.init_mlp"),
    Layer("nn.forward"),
    Layer("nn.forward_trace"),
    Layer("nn.backward"),
    Layer("nn.adam_step", counter=_adam_bytes),
    Layer("forward.disk_farfield"),
    Layer("deeponet.gen_training_set"),
    Layer("deeponet.train_deeponet"),
    Layer("noisenet.gen_noise_dataset"),
    Layer("noisenet.train_noisenet"),
    Layer("deeponet.save_deeponet"),
    Layer("noisenet.save_noisenet"),
)
# `lsm_indicator` spans are named by strategy, since each has its own cost.
SPAN_NAMES = tuple(name for layer in LAYERS for name in (
    [f"{layer.target}.{strategy}"
     for strategy in ("morozov", "field", "constant")]
    if layer.suffix else [layer.target]))
# Set-up share is reported for the layers set-up actually runs.
SETUP_SPANS = ("nn.init_mlp", "noisenet.gen_noise_dataset",
               "forward.disk_farfield", "forward.add_noise",
               "noisenet.spectrum_features", "noisenet.train_noisenet",
               "nn.forward_trace", "nn.backward", "nn.adam_step",
               "deeponet.save_deeponet")
COUNTERS = ("geometry.winding_evals", "regsolve.discrepancy_evals",
            "regsolve.fallbacks", "regsolve.csv_bytes",
            "deeponet.trunk_bytes", "nn.adam_bytes")


def per_layer_names() -> list:
    """(metric, unit) for every per-layer metric a traced run reports."""
    names = []
    for span in SPAN_NAMES:
        names += [(f"{span}.calls", "count"), (f"{span}.self_pct", "%")]
    names += [(f"setup.{span}.self_pct", "%") for span in SETUP_SPANS]
    names += [(counter, "count") for counter in COUNTERS]
    names += [("trace_coverage", "ratio"), ("trace_overhead_ratio", "ratio")]
    return names


# -- the run --------------------------------------------------------------

def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return {"percentile": 100.0 * rank / len(ordered),
            "value": ordered[rank - 1]}


@dataclass
class Outcome:
    attempted: int
    failed: int
    setup_s: list
    times: dict           # kind -> seconds of untraced timed operations
    traced_times: dict    # kind -> seconds of traced timed operations
    rel: dict             # kind -> untraced seconds / reference seconds
    traced_rel: dict      # kind -> traced seconds / reference seconds
    reference_s: list     # seconds of every reference run
    quality: dict         # name -> values over checked operations
    bench: object
    tracer: Tracer | None
    traced_ops: list      # operation ids of traced timed operations
    op_roots: list        # root span indices of traced timed operations


def run(workload: str, seed: int, seconds: float, traced: bool, toy: bool,
        work: Path) -> Outcome:
    problem = scale(toy)
    modules = (cli, deeponet, forward, geometry, nn, noisenet, nystrom,
               regsolve)
    tracer = Tracer(modules) if traced else None

    setup_s = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        if tracer:
            with tracer.installed(LAYERS), \
                    tracer.operation("setup", "setup"):
                models = set_up(problem.config, work)
        else:
            models = set_up(problem.config, work)
        setup_s.append(time.perf_counter() - started)

    bench = WORKLOADS[workload](problem, seed, models, work)
    kinds = bench.kinds
    def per_kind():
        return {k: [] for k in kinds}

    outcome = Outcome(0, 0, setup_s, times=per_kind(),
                      traced_times=per_kind(), rel=per_kind(),
                      traced_rel=per_kind(), reference_s=[], quality={},
                      bench=bench, tracer=tracer, traced_ops=[], op_roots=[])
    reference = Reference()
    reference()

    def bracketed(call):
        """Seconds of `call` and their ratio to the reference around it."""
        before = reference()
        started = time.perf_counter()
        output = call()
        elapsed = time.perf_counter() - started
        after = reference()
        outcome.reference_s += [before, after]
        return output, elapsed, elapsed / (0.5 * (before + after))

    def attempt(kind: str, timed: bool) -> None:
        index = outcome.attempted
        outcome.attempted += 1
        done = outcome.times[kind] + outcome.traced_times[kind]
        # A traced run alternates untraced and traced operations per kind,
        # so the overhead ratio compares like with like.
        trace_this = tracer is not None and timed and len(done) % 2 == 1

        def call():
            if not trace_this:
                return bench.run(kind, index), None
            with tracer.operation(index, f"op:{kind}") as root:
                return bench.run(kind, index), root

        try:
            with contextlib.redirect_stdout(sys.stderr):
                with (tracer.installed(LAYERS) if trace_this
                      else contextlib.nullcontext()):
                    if timed:
                        (output, root), elapsed, rel = bracketed(call)
                    else:
                        output, root = call()
                quality = bench.check(kind, index, output)
        except Exception:
            outcome.failed += 1
            print(f"operation {index} ({kind}) failed:", file=sys.stderr)
            traceback.print_exc()
            return
        for name, value in quality.items():
            outcome.quality.setdefault(name, []).append(value)
        if trace_this:
            outcome.traced_times[kind].append(elapsed)
            outcome.traced_rel[kind].append(rel)
            outcome.traced_ops.append(index)
            outcome.op_roots.append(root)
        elif timed:
            outcome.times[kind].append(elapsed)
            outcome.rel[kind].append(rel)

    for kind in kinds:
        attempt(kind, timed=False)
    deadline = time.perf_counter() + seconds
    turn = 0
    while (time.perf_counter() < deadline
           or turn < MIN_ROUNDS * len(kinds)):
        attempt(kinds[turn % len(kinds)], timed=True)
        turn += 1
    return outcome


# -- metrics --------------------------------------------------------------

def end_to_end(outcome: Outcome, peak_rss_mb: float) -> dict:
    medians = [median(v) for v in outcome.rel.values()]
    return {"op_rel": (_geomean(medians), "ref"),
            "setup_s": (median(outcome.setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB")}


def per_layer(outcome: Outcome) -> dict:
    tracer = outcome.tracer
    ops = set(outcome.traced_ops)
    count = len(ops)
    wall = sum(sum(v) for v in outcome.traced_times.values())
    totals = layer_totals(tracer.spans, ops)
    setup = layer_totals(tracer.spans, {"setup"})
    setup_wall = sum(outcome.setup_s)
    metrics = {}
    for span in SPAN_NAMES:
        calls, busy, own = totals.get(span, (0, 0.0, 0.0))
        metrics[f"{span}.calls"] = (calls / count, "count")
        metrics[f"{span}.self_pct"] = (100.0 * own / wall, "%")
    for span in SETUP_SPANS:
        own = setup.get(span, (0, 0.0, 0.0))[2]
        metrics[f"setup.{span}.self_pct"] = (100.0 * own / setup_wall, "%")
    for counter in COUNTERS:
        value = sum(tracer.counters.get((op, counter), 0.0) for op in ops)
        metrics[counter] = (value / count, "count")
    metrics["trace_coverage"] = (coverage(tracer.spans, outcome.op_roots),
                                 "ratio")
    ratios = [median(outcome.traced_rel[k]) / median(outcome.rel[k])
              for k in outcome.rel
              if outcome.rel[k] and outcome.traced_rel[k]]
    metrics["trace_overhead_ratio"] = (_geomean(ratios), "ratio")
    return metrics


def layer_seconds(outcome: Outcome) -> dict:
    """Calls, busy and self seconds per traced operation, by span name."""
    ops = set(outcome.traced_ops)
    return {name: {"calls": calls / len(ops), "busy_s": busy / len(ops),
                   "self_s": own / len(ops)}
            for name, (calls, busy, own)
            in layer_totals(outcome.tracer.spans, ops).items()}


def report(workload: str, outcome: Outcome) -> dict:
    """Workload-specific figures by name, with units and sample counts.

    These are printed with every run but are not gated: the gate needs
    one metric set that every workload reports."""
    times = {k: v for k, v in outcome.times.items() if v}
    lines = {"failed_ops_ratio": (outcome.failed / outcome.attempted,
                                  "failed/attempted"),
             "op_s": (_geomean([median(v) for v in times.values()]), "s"),
             "reference_s": (median(outcome.reference_s), "s")}
    bench = outcome.bench
    if workload == "reconstruct-kite":
        values = times["reconstruct"]
        lines["reconstruct_s"] = (median(values), "s")
        lines["reconstruct_tail_s"] = (tail(values), "s")
        for name in ("iou_morozov", "delta_rel_err"):
            lines[name] = (statistics.fmean(outcome.quality[name]), "mean")
    elif workload == "sampling-sweep":
        for size in bench.grids:
            seconds = {strategy: median(times[f"{strategy}.{size}"])
                       for strategy in ("morozov", "learned")}
            for strategy, value in seconds.items():
                lines[f"{strategy}_pts_per_s.{size}"] = (size * size / value,
                                                         "points/s")
            # Not gated: a faster Morozov would lower it.
            lines[f"learned_speedup.{size}"] = (
                seconds["morozov"] / seconds["learned"], "ratio")
    else:
        disks = bench.corpus.count
        steps = -(-disks // bench.config.deeponet_batch)
        lines["gen_samples_per_s"] = (disks / median(times["gen"]),
                                      "disks/s")
        lines["train_steps_per_s"] = (steps / median(times["epoch"]),
                                      "steps/s")
    return {"metrics": lines,
            "samples": {kind: len(values) for kind, values in times.items()},
            "kind_median_s": {k: median(v) for k, v in times.items()},
            "samples_s": times,
            "samples_rel": {k: v for k, v in outcome.rel.items() if v},
            "reference_samples_s": outcome.reference_s,
            "setup_samples_s": outcome.setup_s}
