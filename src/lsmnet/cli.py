"""Command-line driver for the full reconstruction pipeline.

Verbs: `gen` writes the training corpora, `train` fits either network,
`reconstruct` runs the sampling method on a configured scene under any
of the regularization strategies, `noise-eval` sweeps the perturbation
estimator over reference obstacles, `ntk` emits tangent-kernel spectra
for a range of trunk overlaps, and `benchmark` times the per-point
regularization strategies against each other.

Configuration is a flat `key = value` text file with scenes spelled as
`obstacle.N.type` and friends; every run echoes its effective
configuration and a metadata file into the output directory, and the
data files a run writes are a pure function of that configuration, so
a rerun is byte-identical.  Wall-clock numbers go to stdout only.

This module imports nothing heavy at the top level on purpose: the
`--threads` flag (or config key) must pin the BLAS pool sizes before
the numerical stack loads, so all package imports happen inside the
command functions, and `main` reads a config file once, into raw text
entries, pins threads from them and only then builds the config.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from dataclasses import MISSING, dataclass, fields, replace
from os import environ
from pathlib import Path

# "deeponet-only" is a CLI spelling; files use the bare network name.
STRATEGIES = ("morozov", "constant", "learned", "deeponet-only")

DEFAULT_NTK_SWEEP = (0.05, 0.15, 0.4, 0.8)
DEFAULT_BENCHMARK_SIZES = (10, 20, 50, 100, 200, 500)
BENCHMARK_REPEATS = 3
# Tangent-kernel diagnostics use their own fixed trunk geometry: unit
# wavelength, half-wavelength spacing, 11x11 centers.  The point of the
# command is the overlap sweep at a standard size, not the scene.
_NTK_LAM = 1.0
_NTK_HALFWIDTH = 2.5
_NTK_H = 0.5

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

_NOISE_EVAL_ETAS = (0.01, 0.05, 0.1, 0.2)
_NOISE_EVAL_SIZES = (50, 100)
_NOISE_EVAL_SEEDS = 50


@dataclass
class RunConfig:
    """Every knob of the pipeline with its standard value.

    The defaults reproduce the reference setup end to end: unit
    wavelength (k = 2 pi / lam is derived, not set), a sampling square of
    halfwidth 4 probed at 100 x 100 points, 30 x 30 canonical far-field
    shape, half-wavelength trunk spacing with overlap 0.15, and the
    optimizer settings both networks were tuned with.  Raw measurements
    are 50 x 50, folded to the canonical shape where used.
    """

    lam: float = 1.0
    L: float = 4.0
    grid_resolution: int = 100
    m0: int = 30
    n0: int = 30
    trunk_h: float = 0.5
    trunk_s: float = 0.15
    deeponet_epochs: int = 300
    deeponet_batch: int = 64
    deeponet_lr_start: float = 1e-3
    deeponet_lr_end: float = 1e-5
    deeponet_weight_decay: float = 5e-5
    noisenet_epochs: int = 300
    noisenet_lr: float = 5e-3
    noisenet_weight_decay: float = 1e-4
    noise_count: int = 400
    eta_min: float = 5e-3
    eta_max: float = 0.3
    radius_min: float = 0.5
    radius_max: float = 1.5
    raw_m: int = 50
    raw_n: int = 50
    eta: float = 0.1
    nystrom_q: int = 128
    coupled_decay: bool = False
    seed: int = 0
    threads: int = 0
    out_dir: str = "out"
    obstacles: tuple = ()

    @property
    def k(self) -> float:
        return 2.0 * math.pi / self.lam


def default_config() -> RunConfig:
    """Standard configuration: one kite of scale 0.8 at the origin."""
    from . import geometry

    return RunConfig(obstacles=(geometry.Kite(center=(0.0, 0.0),
                                              scale=0.8),))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _obstacle_kinds() -> dict:
    from . import geometry

    return {"disk": geometry.Disk, "ellipse": geometry.Ellipse,
            "kite": geometry.Kite}


def _obstacle_keys(cls) -> dict:
    """Config keys of an obstacle class in field order, mapped to whether
    each is required; the center splits into center_x and center_y."""
    keys = {}
    for spec in fields(cls):
        names = ("center_x", "center_y") if spec.name == "center" \
            else (spec.name,)
        keys.update((name, spec.default is MISSING) for name in names)
    return keys


def _obstacle_lines(index: int, obstacle) -> list:
    kind = {cls: name for name, cls in _obstacle_kinds().items()}.get(
        type(obstacle))
    if kind is None:
        raise ValueError(f"cannot serialize obstacle of type "
                         f"{type(obstacle).__name__}")
    values = []
    for spec in fields(obstacle):
        value = getattr(obstacle, spec.name)
        values.extend(value if spec.name == "center" else (value,))
    prefix = f"obstacle.{index}."
    return [f"{prefix}type = {kind}"] + [
        f"{prefix}{key} = {float(value)!r}"
        for key, value in zip(_obstacle_keys(type(obstacle)), values)]


def write_config(path, config: RunConfig) -> None:
    """Serialize a configuration as flat `key = value` text.

    Floats are written with repr so a parse round-trips bit for bit;
    there are no timestamps or environment-dependent values, which is
    what makes rerun outputs comparable byte by byte.
    """
    from . import archive

    lines = []
    for spec in fields(RunConfig):
        if spec.name == "obstacles":
            continue
        lines.append(f"{spec.name} = "
                     f"{_format_value(getattr(config, spec.name))}")
    for index, obstacle in enumerate(config.obstacles):
        lines.extend(_obstacle_lines(index, obstacle))
    archive.write_lines(path, lines)


def _int_list(text: str) -> tuple:
    """Comma-separated integers; empty tokens are skipped."""
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_scalar(name: str, kind, text: str):
    try:
        if kind is bool:
            lowered = text.lower()
            if lowered not in ("true", "false"):
                raise ValueError
            return lowered == "true"
        return kind(text)
    except ValueError:
        raise ValueError(f"bad value {text!r} for configuration key "
                         f"{name!r}") from None


def _build_obstacle(index: int, entries: dict):
    kinds = _obstacle_kinds()
    kind = entries.pop("type", None)
    if kind is None:
        raise ValueError(f"obstacle.{index} has no type key")
    if kind not in kinds:
        raise ValueError(f"obstacle.{index}.type = {kind!r} is not one of "
                         f"{sorted(kinds)}")
    expected = _obstacle_keys(kinds[kind])
    for key in entries:
        if key not in expected:
            raise ValueError(f"unknown configuration key "
                             f"'obstacle.{index}.{key}'")
    missing = [key for key, required in expected.items()
               if required and key not in entries]
    if missing:
        raise ValueError(f"obstacle.{index} is missing {missing}")
    values = {key: _parse_scalar(f"obstacle.{index}.{key}", float, raw)
              for key, raw in entries.items()}
    center = (values.pop("center_x"), values.pop("center_y"))
    return kinds[kind](center=center, **values)


def _read_entries(path) -> dict:
    """Raw `key = value` text of a configuration file, keyed by name.

    This is the one read of the file: it checks the line grammar and
    refuses a repeated key, and imports nothing numeric, so `main` can
    pin threads from the entries before the config is built.
    """
    entries, lines = {}, {}
    with open(path, encoding="utf-8") as fh:
        for number, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{number}: expected 'key = value', "
                                 f"got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in lines:
                raise ValueError(f"{path}:{number}: configuration key "
                                 f"{key!r} repeats line {lines[key]}")
            lines[key] = number
            entries[key] = value.strip()
    return entries


def _config_from_entries(entries: dict) -> RunConfig:
    """Typed configuration from raw entries, rejecting anything unknown."""
    known = {spec.name: spec for spec in fields(RunConfig)
             if spec.name != "obstacles"}
    scalars = {}
    obstacle_entries = {}
    for key, value in entries.items():
        if key.startswith("obstacle."):
            parts = key.split(".")
            # Only canonical ASCII indices: obstacle.01, or an index in
            # another script's digits, would silently override obstacle.1.
            if (len(parts) != 3 or not parts[1].isdecimal()
                    or str(int(parts[1])) != parts[1]):
                raise ValueError(f"unknown configuration key {key!r}")
            obstacle_entries.setdefault(int(parts[1]), {})[parts[2]] = value
        elif key in known:
            scalars[key] = _parse_scalar(key, type(known[key].default), value)
        else:
            raise ValueError(f"unknown configuration key {key!r}")
    obstacles = tuple(_build_obstacle(index, obstacle_entries[index])
                      for index in sorted(obstacle_entries))
    return RunConfig(obstacles=obstacles, **scalars)


def parse_config(path) -> RunConfig:
    """Read a flat configuration file, rejecting anything unknown."""
    return _config_from_entries(_read_entries(path))


def _scene(config: RunConfig):
    from . import geometry

    if not config.obstacles:
        raise ValueError("configuration defines no obstacles")
    return geometry.Scene(obstacles=config.obstacles,
                          domain_halfwidth=config.L)


def _measurement(config: RunConfig, scene):
    """The scene's far field with the configured noise, and the noise's
    norm delta; clean data and delta 0 when eta is 0, and `add_noise`
    refuses a negative eta."""
    from . import forward, nystrom

    farfield = nystrom.nystrom_farfield(
        scene, config.k, config.raw_m, config.raw_n,
        quadrature_points=config.nystrom_q)
    if config.eta == 0.0:
        return farfield, 0.0
    measured, realization = forward.add_noise(farfield, config.eta,
                                              seed=config.seed)
    return measured, realization.delta


def _outdir(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# Inputs a command reads from the output directory unless given a path:
# the message prefix and the hint for a missing file.
_INPUTS = {
    "deeponet_dataset.bin": ("", "run `lsmnet gen` first"),
    "noise_dataset.bin": ("", "run `lsmnet gen` first"),
    "deeponet_model.bin": ("operator model ", "train it or pass --deeponet"),
    "noisenet_model.bin": ("noise model ", "train it or pass --noisenet"),
}


def _input(config: RunConfig, name: str, given=None) -> Path:
    """The given path, else `name` in the output directory; it must be a
    regular file (a directory or a FIFO is refused before it is opened)."""
    path = Path(given) if given else Path(config.out_dir) / name
    if not path.is_file():
        what, hint = _INPUTS[name]
        problem = "is not a regular file" if path.exists() else "not found"
        raise FileNotFoundError(f"{what}{path} {problem}; {hint}")
    return path


def _write_meta(out: Path, command: str, config: RunConfig,
                extra=()) -> None:
    """Metadata echo: command, versions, PRNG, plus command specifics.

    Everything written here is deterministic for a fixed configuration
    and environment; timing numbers deliberately never appear.
    """
    import numpy
    import scipy

    from . import __version__, archive
    from .forward import PRNG_NAME

    lines = [f"command = {command}",
             f"package = lsmnet {__version__}",
             f"python = {sys.version.split()[0]}",
             f"numpy = {numpy.__version__}",
             f"scipy = {scipy.__version__}",
             f"prng = {PRNG_NAME}",
             f"seed = {config.seed}"]
    lines.extend(f"{key} = {value}" for key, value in extra)
    archive.write_lines(out / f"run_meta_{command}.txt", lines)
    write_config(out / "config.txt", config)


def cmd_gen(config: RunConfig) -> None:
    """Draw both training corpora, then write them and a manifest of the draws."""
    from . import deeponet, noisenet

    out = _outdir(config)
    trunk = deeponet.make_trunk(config.lam, config.L, config.trunk_h,
                                config.trunk_s)
    training = deeponet.gen_training_set(
        trunk, config.k, config.m0, config.n0, seed=config.seed,
        radius_range=(config.radius_min, config.radius_max))
    noise_seed = config.seed + 1
    dataset = noisenet.gen_noise_dataset(
        config.k, config.m0, config.n0, seed=noise_seed,
        count=config.noise_count,
        eta_range=(config.eta_min, config.eta_max),
        radius_range=(config.radius_min, config.radius_max))
    deeponet.save_training_set(out / "deeponet_dataset.bin", training)
    noisenet.save_noise_dataset(out / "noise_dataset.bin", dataset)

    _write_meta(out, "gen", config, extra=(
        ("deeponet_dataset", "deeponet_dataset.bin"),
        ("deeponet_count", training.count),
        ("deeponet_seed", config.seed),
        ("noise_dataset", "noise_dataset.bin"),
        ("noise_count", dataset.count),
        ("noise_seed", noise_seed),
    ))
    print(f"wrote {training.count} operator samples and {dataset.count} "
          f"noise samples to {out}")


def cmd_train(config: RunConfig, which: str) -> None:
    """Fit one of the networks from the generated corpora."""
    from . import deeponet, forward, noisenet

    out = _outdir(config)
    if which == "deeponet":
        training = deeponet.load_training_set(
            _input(config, "deeponet_dataset.bin"))
        trunk = deeponet.make_trunk(config.lam, config.L, config.trunk_h,
                                    config.trunk_s)
        model = deeponet.make_deeponet(trunk, config.m0, config.n0,
                                       seed=config.seed)
        started = time.perf_counter()
        losses = deeponet.train_deeponet(
            model, training, seed=config.seed + 1,
            epochs=config.deeponet_epochs,
            batch_size=config.deeponet_batch,
            lr_start=config.deeponet_lr_start,
            lr_end=config.deeponet_lr_end,
            weight_decay=config.deeponet_weight_decay,
            decoupled=not config.coupled_decay)
        elapsed = time.perf_counter() - started
        deeponet.save_deeponet(out / "deeponet_model.bin", model)
        deeponet.write_loss_csv(out / "deeponet_loss.csv", losses)
        extra = (("model", "deeponet_model.bin"),
                 ("epochs", config.deeponet_epochs),
                 ("samples", training.count))
    elif which == "noisenet":
        dataset = noisenet.load_noise_dataset(
            _input(config, "noise_dataset.bin"))
        forward.check_wavelength(config.lam, dataset.k, "noise corpus")
        net = noisenet.make_noisenet(config.m0, config.n0,
                                     seed=config.seed)
        started = time.perf_counter()
        losses = noisenet.train_noisenet(
            net, dataset, epochs=config.noisenet_epochs,
            lr=config.noisenet_lr,
            weight_decay=config.noisenet_weight_decay,
            decoupled=not config.coupled_decay)
        elapsed = time.perf_counter() - started
        noisenet.save_noisenet(out / "noisenet_model.bin", net)
        deeponet.write_loss_csv(out / "noisenet_loss.csv", losses)
        extra = (("model", "noisenet_model.bin"),
                 ("epochs", config.noisenet_epochs),
                 ("samples", dataset.count))
    else:
        raise ValueError(f"unknown training target {which!r}")

    _write_meta(out, f"train_{which}", config, extra=extra)
    final = losses[-1] if losses else float("nan")
    print(f"trained {which} in {elapsed:.1f} s, final loss {final:.6g}")


def _load_models(config: RunConfig, deeponet_path, noisenet_path,
                 need_noise: bool):
    from . import deeponet, forward, noisenet

    model = deeponet.load_deeponet(
        _input(config, "deeponet_model.bin", deeponet_path))
    forward.check_wavelength(model.trunk.lam, config.k)
    noise_model = noisenet.load_noisenet(
        _input(config, "noisenet_model.bin", noisenet_path)) \
        if need_noise else None
    return model, noise_model


def _field_metrics(values, inside, predicted):
    import numpy as np

    outside_mean = float(np.mean(values[~inside])) if (~inside).any() \
        else 0.0
    inside_mean = float(np.mean(values[inside])) if inside.any() else 0.0
    contrast = inside_mean / outside_mean if outside_mean > 0.0 \
        else float("inf")
    union = np.logical_or(predicted, inside).sum()
    intersection = np.logical_and(predicted, inside).sum()
    iou = float(intersection / union) if union else 0.0
    return contrast, iou


def cmd_reconstruct(config: RunConfig, strategies=None, deeponet_path=None,
                    noisenet_path=None) -> None:
    """Run the sampling reconstruction under the selected strategies.

    The operator network runs once, for `deeponet-only` and the learned
    alpha; one pass solves the other strategies, each once.  Each writes
    its indicator as CSV and PGM, its alpha field as CSV (if it has one),
    and metrics: contrast, intersection-over-union against the true
    obstacle mask at threshold 0.5, and the discrepancy-fallback count.
    """
    from . import archive, deeponet, geometry, noisenet, regsolve

    chosen = tuple(dict.fromkeys(strategies)) if strategies else STRATEGIES
    for name in chosen:
        if name not in STRATEGIES:
            raise ValueError(f"unknown strategy {name!r}")
    if "morozov" in chosen and config.eta == 0.0:
        raise ValueError("discrepancy matching needs eta > 0")

    out = _outdir(config)
    scene = _scene(config)
    needs_model = bool({"learned", "deeponet-only"} & set(chosen))
    model, noise_model = (None, None)
    if needs_model:
        model, noise_model = _load_models(
            config, deeponet_path, noisenet_path,
            need_noise="learned" in chosen)

    measured, delta = _measurement(config, scene)

    grid = regsolve.SamplingGrid.make(config.L, config.grid_resolution)
    svdt = regsolve.svd(measured) if set(chosen) - {"deeponet-only"} else None
    inside = geometry.contains_mask(scene, grid.points)
    network = deeponet.indicator_eval(model, measured, grid) \
        if needs_model else None
    rules = {}
    if "morozov" in chosen:
        rules["morozov"] = regsolve.Morozov(delta)
    if "constant" in chosen:
        rules["constant"] = regsolve.Constant(svdt.s[0] / 100.0)
    if "learned" in chosen:
        rules["learned"] = regsolve.Field(deeponet.indicator_alpha(
            noisenet.predict_delta(noise_model, measured), network))
    solved = dict(zip(rules, regsolve.lsm_indicators(
        measured, grid, tuple(rules.values()), svdt))) if rules else {}

    meta_extra = [("eta", repr(config.eta)), ("delta", repr(delta)),
                  ("raw_shape", f"{config.raw_m}x{config.raw_n}"),
                  ("grid_resolution", config.grid_resolution),
                  ("strategies", ",".join(chosen))]
    for name in chosen:
        stem = name.removesuffix("-only")
        result = solved.get(name)
        if result is None:
            values, fallbacks = network.values, None
            predicted = values >= 0.5
        else:
            values, fallbacks = result.indicator.values, result.fallback_count
            predicted = regsolve.normalized(values) >= 0.5
            regsolve.write_field_csv(out / f"alpha_{stem}.csv", grid,
                                     result.alpha.alpha)
        regsolve.write_field_csv(out / f"indicator_{stem}.csv", grid,
                                 values)
        regsolve.write_field_pgm(out / f"indicator_{stem}.pgm", grid,
                                 values)
        contrast, iou = _field_metrics(values, inside, predicted)
        metric_lines = [f"strategy = {name}",
                        f"contrast = {repr(contrast)}",
                        f"iou_at_half = {repr(iou)}"]
        if fallbacks is not None:
            metric_lines.append(f"fallbacks = {fallbacks}")
        archive.write_lines(out / f"metrics_{stem}.txt", metric_lines)
        meta_extra.append((f"fallbacks_{stem}",
                           "-" if fallbacks is None else fallbacks))
        print(f"{name}: contrast {contrast:.3g}, iou {iou:.3f}"
              + ("" if fallbacks is None else f", fallbacks {fallbacks}"))

    _write_meta(out, "reconstruct", config, extra=tuple(meta_extra))


def cmd_noise_eval(config: RunConfig, noisenet_path=None) -> None:
    """Sweep the perturbation estimator over reference obstacles.

    Three obstacles (disks of radius 0.6 and 1.3, kite of scale 0.8),
    two raw measurement shapes, four noise levels, fifty realizations
    each; writes one CSV row per realization and prints the mean
    relative error per obstacle, shape, and level.
    """
    from . import archive, forward, geometry, noisenet, nystrom

    out = _outdir(config)
    noise_model = noisenet.load_noisenet(
        _input(config, "noisenet_model.bin", noisenet_path))

    cases = (("disk06", geometry.Disk(center=(0.0, 0.0), radius=0.6)),
             ("disk13", geometry.Disk(center=(0.0, 0.0), radius=1.3)),
             ("kite08", geometry.Kite(center=(0.0, 0.0), scale=0.8)))

    lines = ["obstacle,shape,eta,seed,delta_true,delta_pred,rel_err"]
    summary = []
    counter = 0
    for label, obstacle in cases:
        for size in _NOISE_EVAL_SIZES:
            if isinstance(obstacle, geometry.Disk):
                farfield = forward.disk_farfield(
                    obstacle.center, obstacle.radius, config.k, size, size)
            else:
                scene = geometry.Scene(obstacles=(obstacle,),
                                       domain_halfwidth=config.L)
                farfield = nystrom.nystrom_farfield(
                    scene, config.k, size, size,
                    quadrature_points=config.nystrom_q)
            for eta in _NOISE_EVAL_ETAS:
                errors = []
                for _ in range(_NOISE_EVAL_SEEDS):
                    seed = config.seed + counter
                    counter += 1
                    noisy, realization = forward.add_noise(farfield, eta,
                                                           seed=seed)
                    predicted = noisenet.predict_delta(noise_model, noisy)
                    rel = abs(predicted - realization.delta) / \
                        realization.delta
                    errors.append(rel)
                    lines.append(f"{label},{size}x{size},{eta:g},{seed},"
                                 f"{realization.delta:.17g},"
                                 f"{predicted:.17g},{rel:.17g}")
                mean = sum(errors) / len(errors)
                summary.append((label, size, eta, mean))
                print(f"{label} {size}x{size} eta={eta:<4g} "
                      f"mean rel err {mean:.4f}")

    archive.write_lines(out / "noise_eval.csv", lines)
    _write_meta(out, "noise_eval", config, extra=(
        ("realizations", counter),
        ("csv", "noise_eval.csv"),
    ))


def cmd_ntk(config: RunConfig, s_values=None) -> None:
    """Tangent-kernel spectra of an untrained operator network.

    Builds the fixed 11 x 11 trunk (121 outputs), the operator network's
    fresh branch in its identity-output form, and a single-sample batch
    from one clean centered-disk far field, then for each overlap writes
    the three spectra and a verdict summary, plus a sweep table of trunk
    condition numbers.
    """
    from . import archive, deeponet, forward, ntk

    out = _outdir(config)
    sweep = tuple(sorted(set(s_values))) if s_values else DEFAULT_NTK_SWEEP
    template = deeponet.make_trunk(_NTK_LAM, _NTK_HALFWIDTH, _NTK_H,
                                   0.15)
    outputs = template.p_h

    farfield = forward.disk_farfield((0.0, 0.0), _NTK_LAM,
                                     2.0 * math.pi / _NTK_LAM,
                                     config.m0, config.n0)
    features = deeponet.branch_features(farfield)
    branch = replace(deeponet.make_deeponet(template, config.m0, config.n0,
                                            config.seed).branch,
                     output="identity")

    gram = ntk.branch_ntk(branch, features)
    verdicts = []
    for index, s in enumerate(sweep):
        trunk = deeponet.make_trunk(_NTK_LAM, _NTK_HALFWIDTH, _NTK_H, s,
                                    allow_low_s=True)
        kernel = ntk.deeponet_ntk(trunk, branch, features)
        trunk_matrix = ntk.trunk_gram(trunk)
        report = ntk.verify_spectrum_bounds(
            kernel, gram, trunk_matrix,
            config={"s": s, "h": _NTK_H, "p": outputs, "batch": 1})
        ntk.write_spectrum_csv(out / f"ntk_spectrum_{index}.csv", report)
        ntk.write_summary_txt(out / f"ntk_summary_{index}.txt", report)
        ok = report.bound_lower_ok and report.bound_upper_ok
        verdicts.append(ok)
        print(f"s={s:g}: cond(K)={report.cond_kernel:.3e} "
              f"cond(P)={report.cond_trunk:.3e} "
              f"bounds {'ok' if ok else 'VIOLATED'}")

    rows = ntk.condition_sweep(template, sweep)
    lines = ["s,epsilon,condition"]
    lines.extend(f"{s:.17g},{eps:.17g},{kappa:.17g}"
                 for s, eps, kappa in rows)
    archive.write_lines(out / "ntk_sweep.csv", lines)

    _write_meta(out, "ntk", config, extra=(
        ("p", outputs),
        ("batch", 1),
        ("s_values", ",".join(f"{s:g}" for s in sweep)),
        ("bounds_ok", str(all(verdicts)).lower()),
    ))
    print(f"p = {outputs}, all bounds "
          + ("hold" if all(verdicts) else "VIOLATED"))


def cmd_benchmark(config: RunConfig, sizes=None, deeponet_path=None,
                  noisenet_path=None) -> None:
    """Time the per-point regularization strategies against each other.

    The clock runs around regularizer construction plus the indicator
    solve only; far-field assembly and the singular value decomposition
    are shared by both strategies and excluded.  Each region is repeated,
    alternating between the strategies, and the median kept.
    """
    from . import archive, deeponet, regsolve

    out = _outdir(config)
    model, noise_model = _load_models(config, deeponet_path, noisenet_path,
                                      need_noise=True)
    measured, delta = _measurement(config, _scene(config))
    svdt = regsolve.svd(measured)

    chosen = tuple(sizes) if sizes else DEFAULT_BENCHMARK_SIZES
    records = []
    for size in chosen:
        grid = regsolve.SamplingGrid.make(config.L, size)
        morozov = regsolve.Morozov(delta)

        def run_morozov():
            regsolve.lsm_indicator(measured, grid, morozov, svdt=svdt)

        def run_learned():
            reg = deeponet.learned_regularizer(model, noise_model,
                                               measured, grid)
            regsolve.lsm_indicator(measured, grid, regsolve.Field(reg),
                                   svdt=svdt)

        # Repeats alternate between the strategies so that a drift in
        # machine throughput lands on both rather than on one.
        runners = {"morozov": run_morozov, "learned": run_learned}
        samples = {name: [] for name in runners}
        for _ in range(BENCHMARK_REPEATS):
            for name, runner in runners.items():
                started = time.perf_counter()
                runner()
                samples[name].append(time.perf_counter() - started)
        morozov_s = statistics.median(samples["morozov"])
        learned_s = statistics.median(samples["learned"])
        speedup = morozov_s / learned_s
        records.append((size, morozov_s, learned_s, speedup))
        print(f"{size:4d}^2 points: morozov {morozov_s:.4f} s, learned "
              f"{learned_s:.4f} s, speedup {speedup:.2f}x")

    lines = ["grid,morozov_seconds,learned_seconds,speedup"]
    lines.extend(f"{size},{morozov_s:.6e},{learned_s:.6e},{speedup:.6e}"
                 for size, morozov_s, learned_s, speedup in records)
    archive.write_lines(out / "benchmark.csv", lines)
    _write_meta(out, "benchmark", config, extra=(
        ("repeats", BENCHMARK_REPEATS),
        ("sizes", ",".join(str(size) for size in chosen)),
    ))


def _pin_threads(count: int) -> None:
    # Must happen before numpy loads anywhere in this process.
    if count > 0:
        for name in _THREAD_VARS:
            environ[name] = str(count)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="flat key = value configuration file")
    common.add_argument("--seed", type=int, metavar="N",
                        help="override the configured master seed")
    common.add_argument("--out", metavar="DIR",
                        help="override the configured output directory")
    common.add_argument("--threads", type=int, metavar="N",
                        help="pin BLAS/OpenMP worker count")

    parser = argparse.ArgumentParser(
        prog="lsmnet",
        description="acoustic obstacle reconstruction by linear sampling "
                    "with learned regularization")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen", parents=[common],
                   help="generate the training corpora")
    train = sub.add_parser("train", parents=[common],
                           help="train one of the networks")
    train.add_argument("which", choices=("deeponet", "noisenet"))
    rec = sub.add_parser("reconstruct", parents=[common],
                         help="run the sampling reconstruction")
    rec.add_argument("--strategy", action="append", choices=STRATEGIES,
                     help="repeatable; default is all strategies")
    rec.add_argument("--deeponet", metavar="PATH",
                     help="operator model archive")
    rec.add_argument("--noisenet", metavar="PATH",
                     help="noise estimator archive")
    noise = sub.add_parser("noise-eval", parents=[common],
                           help="evaluate the perturbation estimator")
    noise.add_argument("--noisenet", metavar="PATH",
                       help="noise estimator archive")
    ntk_cmd = sub.add_parser("ntk", parents=[common],
                             help="tangent-kernel spectra and bounds")
    ntk_cmd.add_argument("--s", dest="s_values", type=float,
                         action="append", metavar="S",
                         help="repeatable overlap value; default sweep "
                              + ",".join(f"{s:g}" for s in
                                         DEFAULT_NTK_SWEEP))
    bench = sub.add_parser("benchmark", parents=[common],
                           help="time the regularization strategies")
    bench.add_argument("--sizes", type=_int_list, metavar="N,N,...",
                       help="comma-separated sampling resolutions")
    bench.add_argument("--deeponet", metavar="PATH")
    bench.add_argument("--noisenet", metavar="PATH")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    # One read of the file: threads are pinned from its entries before
    # building the config loads numpy.
    entries = _read_entries(args.config) if args.config else {}
    threads = args.threads
    if threads is None:
        threads = _parse_scalar("threads", int, entries.get("threads", "0"))
    _pin_threads(threads)

    config = _config_from_entries(entries) if args.config \
        else default_config()
    overrides = {"seed": args.seed, "out_dir": args.out,
                 "threads": args.threads}
    config = replace(config, **{key: value for key, value in
                                overrides.items() if value is not None})

    if args.command == "gen":
        cmd_gen(config)
    elif args.command == "train":
        cmd_train(config, args.which)
    elif args.command == "reconstruct":
        cmd_reconstruct(config, strategies=args.strategy,
                        deeponet_path=args.deeponet,
                        noisenet_path=args.noisenet)
    elif args.command == "noise-eval":
        cmd_noise_eval(config, noisenet_path=args.noisenet)
    elif args.command == "ntk":
        cmd_ntk(config, s_values=args.s_values)
    else:
        cmd_benchmark(config, sizes=args.sizes, deeponet_path=args.deeponet,
                      noisenet_path=args.noisenet)
    return 0


if __name__ == "__main__":
    sys.exit(main())
