"""Command-line pipeline: configuration, dispatch, reproducible outputs."""

import dataclasses
import hashlib
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lsmnet import archive, cli, nn
from lsmnet.cli import (
    RunConfig,
    default_config,
    main,
    parse_config,
    write_config,
)
from lsmnet.geometry import Disk, Ellipse, Kite


def _tiny_config(out_dir: Path) -> RunConfig:
    return dataclasses.replace(
        default_config(),
        L=1.5, grid_resolution=10, m0=12, n0=12,
        trunk_h=1.0,
        deeponet_epochs=2, noisenet_epochs=4, noise_count=10,
        raw_m=16, raw_n=16, nystrom_q=32,
        out_dir=str(out_dir),
        obstacles=(Kite(center=(0.0, 0.0), scale=0.8),),
    )


def _hash_tree(root: Path) -> dict:
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digests[path.relative_to(root).as_posix()] = \
                hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _run_pipeline(config_path: str):
    for argv in (["gen", "--config", config_path],
                 ["train", "deeponet", "--config", config_path],
                 ["train", "noisenet", "--config", config_path],
                 ["reconstruct", "--config", config_path]):
        assert main(argv) == 0


def _spy(monkeypatch, module, name):
    """Replace module.name by a pass-through that records each call's args."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full tiny gen/train/reconstruct run, checked for determinism."""
    base = tmp_path_factory.mktemp("cli")
    out = base / "out"
    config = _tiny_config(out)
    config_path = base / "run.cfg"
    write_config(config_path, config)

    _run_pipeline(str(config_path))
    first = _hash_tree(out)
    shutil.rmtree(out)
    _run_pipeline(str(config_path))
    second = _hash_tree(out)
    return config, config_path, out, first, second


class TestConfigFile:
    def test_round_trip_preserves_everything(self, tmp_path):
        config = dataclasses.replace(
            default_config(),
            lam=0.5, coupled_decay=True,
            obstacles=(Disk(center=(0.1, -0.2), radius=0.7),
                       Ellipse(center=(1.0, 1.0), semi_axis_a=0.9,
                               semi_axis_b=0.4, rotation=0.3),
                       Kite(center=(-1.0, 0.5), scale=1.2)))
        path = tmp_path / "cfg.txt"
        write_config(path, config)
        assert parse_config(path) == config

    def test_defaults_survive_omission(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("obstacle.0.type = disk\n"
                        "obstacle.0.center_x = 0\n"
                        "obstacle.0.center_y = 0\n"
                        "obstacle.0.radius = 1\n")
        config = parse_config(path)
        assert config.k == default_config().k
        assert config.obstacles == (Disk(center=(0.0, 0.0), radius=1.0),)

    def test_unknown_key_is_named(self, tmp_path):
        # k follows lam, and the benchmark's sizes and repeats are not
        # settings: each is an unknown key.
        path = tmp_path / "cfg.txt"
        for line in ("colour = red", "k = 6.0", "benchmark_sizes = 5,25",
                     "benchmark_repeats = 2"):
            path.write_text(line + "\n")
            key = line.split(" = ")[0]
            with pytest.raises(ValueError, match=f"unknown configuration key '{key}'"):
                parse_config(path)

    def test_wavenumber_follows_the_wavelength(self):
        assert default_config().k == 2.0 * math.pi
        for lam in (1.0, 0.5, 0.3, 1.7):
            config = dataclasses.replace(default_config(), lam=lam)
            assert config.k == 2.0 * math.pi / lam

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("lam = 1.0\njust words\n")
        with pytest.raises(ValueError, match=":2:"):
            parse_config(path)

    def test_incomplete_obstacle_lists_missing_fields(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("obstacle.0.type = disk\n"
                        "obstacle.0.center_x = 0\n")
        with pytest.raises(ValueError, match="center_y"):
            parse_config(path)

    def test_bad_value_names_the_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("grid_resolution = many\n")
        with pytest.raises(ValueError, match="grid_resolution"):
            parse_config(path)

    def test_unknown_obstacle_field(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("obstacle.0.type = disk\n"
                        "obstacle.0.center_x = 0\n"
                        "obstacle.0.center_y = 0\n"
                        "obstacle.0.radius = 1\n"
                        "obstacle.0.colour = blue\n")
        with pytest.raises(ValueError, match="obstacle.0.colour"):
            parse_config(path)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_gen_refuses_non_finite_trunk_spacing(self, value, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(f"trunk_h = {value}\n")
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="spacing h must be finite"):
            main(["gen", "--config", str(path), "--out", str(out)])
        assert not (out / "deeponet_dataset.bin").exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("key, match", [("radius_max", "radius range"),
                                            ("eta_max", "noise range")])
    def test_gen_refuses_non_finite_corpus_range_before_any_corpus(
            self, key, match, value, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(f"L = 1.5\nm0 = 12\nn0 = 12\n{key} = {value}\n")
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=rf"{match} \(.*{value}\) must "
                                             r"be finite"):
            main(["gen", "--config", str(path), "--out", str(out)])
        assert not list(out.glob("*.bin"))

    @pytest.mark.parametrize("key, value, match", [
        ("center_x", "nan", "center must be finite, got \\(nan, 0.0\\)"),
        ("center_y", "-inf", "center must be finite, got \\(0.0, -inf\\)"),
        ("scale", "inf", "scale must be finite, got inf"),
    ])
    def test_non_finite_obstacle_field_fails_before_any_file(
            self, key, value, match, tmp_path):
        entries = {"center_x": "0.0", "center_y": "0.0", "scale": "0.8",
                   key: value}
        path = tmp_path / "cfg.txt"
        path.write_text("obstacle.0.type = kite\n" + "".join(
            f"obstacle.0.{name} = {text}\n" for name, text in entries.items()))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=match):
            main(["reconstruct", "--config", str(path), "--out", str(out),
                  "--strategy", "constant"])
        assert not out.exists()

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# a comment\n\nseed = 3\n")
        assert parse_config(path).seed == 3


class TestSingleRead:
    """`main` reads a config file once: threads are pinned from the same
    entries the config is built from, and a repeated key is refused."""

    def test_reads_threads_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("seed = 1\nthreads = 3\n")
        assert cli._read_entries(path) == {"seed": "1", "threads": "3"}
        assert parse_config(path).threads == 3

    def test_absent_key_or_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("seed = 1\n")
        assert "threads" not in cli._read_entries(path)
        assert parse_config(path).threads == 0
        with pytest.raises(FileNotFoundError):
            main(["gen", "--config", str(tmp_path / "missing.cfg")])

    @pytest.mark.parametrize("index", ["01", "\u0663", "\u0661", "+1", "-1",
                                       "1_0", "\u00b9"])
    def test_non_canonical_obstacle_index_is_unknown(self, index, tmp_path):
        # Another spelling of index 1 or 3 would silently override it.
        key = f"obstacle.{index}.radius"
        path = tmp_path / "cfg.txt"
        path.write_text("obstacle.1.type = disk\n"
                        "obstacle.1.center_x = 0\n"
                        "obstacle.1.center_y = 0\n"
                        "obstacle.1.radius = 0.5\n"
                        f"{key} = 1.25\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown configuration key "
                           + re.escape(repr(key))):
            parse_config(path)

    def test_canonical_obstacle_indices_are_accepted(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("".join(f"obstacle.{i}.type = disk\n"
                                f"obstacle.{i}.center_x = {3 * i}\n"
                                f"obstacle.{i}.center_y = 0\n"
                                f"obstacle.{i}.radius = 0.5\n"
                                for i in (10, 0, 3)))
        centers = [obstacle.center[0]
                   for obstacle in parse_config(path).obstacles]
        assert centers == [0.0, 9.0, 30.0]

    @pytest.mark.parametrize("key", ["threads", "seed", "obstacle.0.radius"])
    def test_repeated_key_names_both_lines(self, key, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(f"lam = 1.0\n{key} = 1\n# between\n{key} = 2\n")
        message = f"cfg.txt:4: configuration key '{key}' repeats line 2"
        with pytest.raises(ValueError, match=message):
            parse_config(path)
        with pytest.raises(ValueError, match=message):
            main(["gen", "--config", str(path), "--out", str(tmp_path)])
        assert not any(tmp_path.glob("*.bin"))


# Run in a fresh interpreter: stop at the first import of numpy and report
# the thread pinning it would start its pools with.
_NUMPY_PROBE = """
import os, sys

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print("numpy loads with", os.environ.get("OPENBLAS_NUM_THREADS"),
                  flush=True)
            os._exit(0)

sys.meta_path.insert(0, Probe())
import lsmnet, lsmnet.cli
lsmnet.cli._build_parser().parse_args(sys.argv[1:])
print("parsed without numpy", flush=True)
lsmnet.cli.main(sys.argv[1:])
"""


class TestThreadPinning:
    def test_config_threads_are_pinned_before_numpy_loads(self, tmp_path):
        path = tmp_path / "cfg.txt"
        write_config(path, dataclasses.replace(default_config(), threads=3))
        env = {key: value for key, value in os.environ.items()
               if key not in cli._THREAD_VARS}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", _NUMPY_PROBE, "gen", "--config",
             str(path), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["parsed without numpy",
                                            "numpy loads with 3"]


class TestBenchmarkSizes:
    def test_bad_size_exits_2_naming_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["benchmark", "--sizes", "5,x"])
        assert exit_info.value.code == 2
        assert "--sizes" in capsys.readouterr().err

    def test_empty_tokens_are_skipped(self):
        args = cli._build_parser().parse_args(["benchmark", "--sizes",
                                               " 5,,7 ,"])
        assert args.sizes == (5, 7)


class TestPipeline:
    def test_reruns_are_byte_identical(self, pipeline):
        """Identical configuration and seed must reproduce every output
        file bit for bit, including models and indicator images."""
        _, _, _, first, second = pipeline
        assert first == second
        assert len(first) > 10

    def test_expected_files_exist(self, pipeline):
        _, _, out, _, _ = pipeline
        for name in ("deeponet_dataset.bin", "noise_dataset.bin",
                     "deeponet_model.bin", "deeponet_loss.csv",
                     "noisenet_model.bin", "noisenet_loss.csv",
                     "run_meta_gen.txt", "run_meta_train_deeponet.txt", "run_meta_train_noisenet.txt",
                     "run_meta_reconstruct.txt", "config.txt"):
            assert (out / name).exists(), name
        for stem in ("morozov", "constant", "learned", "deeponet"):
            assert (out / f"indicator_{stem}.csv").exists()
            assert (out / f"indicator_{stem}.pgm").exists()
            assert (out / f"metrics_{stem}.txt").exists()
        for stem in ("morozov", "constant", "learned"):
            assert (out / f"alpha_{stem}.csv").exists()

    def test_meta_records_provenance_not_time(self, pipeline):
        _, _, out, _, _ = pipeline
        text = (out / "run_meta_reconstruct.txt").read_text()
        assert "command = reconstruct" in text
        assert "prng = PCG64" in text
        assert "seed = 0" in text
        assert "numpy = " in text
        lowered = text.lower()
        assert "date" not in lowered and "elapsed" not in lowered

    def test_loss_csv_has_one_row_per_epoch(self, pipeline):
        config, _, out, _, _ = pipeline
        lines = (out / "deeponet_loss.csv").read_text().splitlines()
        assert len(lines) == 1 + config.deeponet_epochs

    def test_metrics_content(self, pipeline):
        _, _, out, _, _ = pipeline
        text = (out / "metrics_morozov.txt").read_text()
        entries = dict(line.split(" = ") for line in text.splitlines())
        assert entries["strategy"] == "morozov"
        assert float(entries["contrast"]) > 0.0
        assert 0.0 <= float(entries["iou_at_half"]) <= 1.0
        assert int(entries["fallbacks"]) >= 0

    def test_seed_override_changes_the_data(self, pipeline, tmp_path):
        _, config_path, out, _, _ = pipeline
        other = tmp_path / "other"
        assert main(["gen", "--config", str(config_path),
                     "--seed", "1", "--out", str(other)]) == 0
        a = (out / "deeponet_dataset.bin").read_bytes()
        b = (other / "deeponet_dataset.bin").read_bytes()
        assert a != b

    def test_strategy_subset(self, pipeline, tmp_path):
        _, config_path, _, _, _ = pipeline
        solo = tmp_path / "solo"
        assert main(["reconstruct", "--config", str(config_path),
                     "--out", str(solo), "--strategy", "morozov"]) == 0
        assert (solo / "indicator_morozov.csv").exists()
        assert not (solo / "indicator_learned.csv").exists()
        assert not (solo / "indicator_deeponet.csv").exists()

    def test_one_network_evaluation_and_one_solve(self, pipeline, tmp_path,
                                                  monkeypatch):
        from lsmnet import deeponet, noisenet, regsolve

        config, _, out, first, _ = pipeline
        calls = {name: _spy(monkeypatch, module, name) for module, name in (
            (deeponet, "indicator_eval"), (noisenet, "predict_delta"),
            (regsolve, "svd"), (regsolve, "lsm_indicators"),
            (regsolve, "lsm_indicator"))}
        again = tmp_path / "again"
        cli.cmd_reconstruct(dataclasses.replace(config, out_dir=str(again)),
                            deeponet_path=out / "deeponet_model.bin",
                            noisenet_path=out / "noisenet_model.bin")
        assert {name: len(args) for name, args in calls.items()} == {
            "indicator_eval": 1, "predict_delta": 1, "svd": 1,
            "lsm_indicators": 1, "lsm_indicator": 0}
        solved = calls["lsm_indicators"][0][2]
        assert [type(rule) for rule in solved] == [
            regsolve.Morozov, regsolve.Constant, regsolve.Field]
        for name, digest in _hash_tree(again).items():
            if name.startswith(("indicator_", "alpha_", "metrics_")):
                assert digest == first[name], name

    def test_network_alone_loads_no_estimator_and_solves_nothing(
            self, pipeline, tmp_path, monkeypatch):
        from lsmnet import noisenet, regsolve

        config, _, out, _, _ = pipeline
        calls = [_spy(monkeypatch, module, name) for module, name in (
            (noisenet, "load_noisenet"), (regsolve, "svd"),
            (regsolve, "lsm_indicators"), (regsolve, "lsm_indicator"))]
        cli.cmd_reconstruct(dataclasses.replace(config, out_dir=str(tmp_path)),
                            strategies=("deeponet-only",),
                            deeponet_path=out / "deeponet_model.bin")
        assert calls == [[], [], [], []]
        assert sorted(path.name for path in tmp_path.glob("*_deeponet*")) == [
            "indicator_deeponet.csv", "indicator_deeponet.pgm",
            "metrics_deeponet.txt"]

    def test_repeated_strategy_is_solved_once(self, pipeline, tmp_path,
                                              monkeypatch):
        from lsmnet import regsolve

        _, config_path, _, _, _ = pipeline
        solves = _spy(monkeypatch, regsolve, "lsm_indicators")
        assert main(["reconstruct", "--config", str(config_path),
                     "--out", str(tmp_path), "--strategy", "morozov",
                     "--strategy", "constant", "--strategy", "morozov"]) == 0
        assert len(solves) == 1 and len(solves[0][2]) == 2
        meta = (tmp_path / "run_meta_reconstruct.txt").read_text().splitlines()
        assert "strategies = morozov,constant" in meta
        assert sum(line.startswith("fallbacks_morozov") for line in meta) == 1

    def test_missing_model_is_explained(self, pipeline, tmp_path):
        config, _, _, _, _ = pipeline
        empty = dataclasses.replace(config, out_dir=str(tmp_path / "none"))
        with pytest.raises(FileNotFoundError, match="train"):
            cli.cmd_reconstruct(empty, strategies=("learned",))

    def test_clean_data_rejects_discrepancy_matching(self, pipeline,
                                                     tmp_path):
        config, _, _, _, _ = pipeline
        clean = dataclasses.replace(config, eta=0.0, out_dir=str(tmp_path))
        with pytest.raises(ValueError, match="eta > 0"):
            cli.cmd_reconstruct(clean, strategies=("constant", "morozov"))
        assert list(tmp_path.glob("indicator_*")) == []

    @pytest.mark.parametrize("command", [cli.cmd_reconstruct,
                                         cli.cmd_benchmark],
                             ids=["reconstruct", "benchmark"])
    def test_negative_noise_level_is_refused(self, pipeline, command):
        config, _, _, _, _ = pipeline
        with pytest.raises(ValueError, match="must be nonnegative"):
            command(dataclasses.replace(config, eta=-0.1))

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
    def test_non_finite_noise_level_is_refused(self, pipeline, eta):
        config, _, _, _, _ = pipeline
        with pytest.raises(ValueError, match=r"noise level must be "
                                             r"nonnegative and finite, got"):
            cli.cmd_reconstruct(dataclasses.replace(config, eta=eta),
                                strategies=("constant",))

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_wavelength_is_refused(self, pipeline, lam):
        config, _, _, _, _ = pipeline
        with pytest.raises(ValueError, match=r"wavenumber must be positive "
                                             r"and finite, got"):
            cli.cmd_reconstruct(dataclasses.replace(config, lam=lam),
                                strategies=("constant",))

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    @pytest.mark.parametrize("command", ["reconstruct", "train-noisenet"])
    def test_non_finite_wavelength_is_refused_before_any_file(
            self, pipeline, lam, command, tmp_path):
        """The default strategies check the model's wavelength against
        k = 2 pi / lam (0 at lam = inf), and `train noisenet` checks lam
        against its corpus; each refuses the operand by name."""
        config, _, out, _, _ = pipeline
        other = dataclasses.replace(config, lam=lam, out_dir=str(tmp_path))
        match = r"wave(number|length) must be positive and finite, got"
        if command == "reconstruct":
            with pytest.raises(ValueError, match=match):
                cli.cmd_reconstruct(other,
                                    deeponet_path=out / "deeponet_model.bin",
                                    noisenet_path=out / "noisenet_model.bin")
            assert list(tmp_path.iterdir()) == []
        else:
            shutil.copy(out / "noise_dataset.bin", tmp_path)
            with pytest.raises(ValueError, match=match):
                cli.cmd_train(other, "noisenet")
            assert [p.name for p in tmp_path.iterdir()] == ["noise_dataset.bin"]

    @pytest.mark.parametrize("which, key, value, match", [
        ("noisenet", "noisenet_lr", math.nan,
         "learning rate must be positive and finite, got nan"),
        ("noisenet", "noisenet_weight_decay", math.inf,
         "weight decay must be nonnegative and finite, got inf"),
        ("deeponet", "deeponet_lr_start", math.nan,
         "lr_start must be positive and finite, got nan"),
        ("deeponet", "deeponet_weight_decay", math.inf,
         "weight decay must be nonnegative and finite, got inf"),
    ])
    def test_non_finite_optimizer_setting_is_refused_before_training(
            self, pipeline, which, key, value, match, tmp_path, monkeypatch):
        config, _, out, _, _ = pipeline
        corpus = {"deeponet": "deeponet_dataset.bin",
                  "noisenet": "noise_dataset.bin"}[which]
        shutil.copy(out / corpus, tmp_path)
        steps = _spy(monkeypatch, nn, "adam_step")
        other = dataclasses.replace(config, out_dir=str(tmp_path),
                                    **{key: value})
        with pytest.raises(ValueError, match=match):
            cli.cmd_train(other, which)
        assert steps == []
        assert [p.name for p in tmp_path.iterdir()] == [corpus]

    @pytest.mark.parametrize("command", [cli.cmd_reconstruct,
                                         cli.cmd_benchmark],
                             ids=["reconstruct", "benchmark"])
    def test_model_at_another_wavelength_is_refused_first(self, pipeline,
                                                          command, tmp_path):
        config, _, out, _, _ = pipeline
        other = dataclasses.replace(config, lam=0.5, out_dir=str(tmp_path))
        with pytest.raises(ValueError, match=r"far field at wavelength 0\.5 "
                                             r"fed to a model built for 1\b"):
            command(other, deeponet_path=out / "deeponet_model.bin",
                    noisenet_path=out / "noisenet_model.bin")
        assert list(tmp_path.iterdir()) == []

    def test_gen_then_train_at_another_wavelength_is_refused(self, pipeline,
                                                              tmp_path):
        config, _, out, _, _ = pipeline
        shutil.copy(out / "deeponet_dataset.bin", tmp_path)
        other = dataclasses.replace(config, lam=0.5, out_dir=str(tmp_path))
        with pytest.raises(ValueError, match="training set at wavelength 1 "):
            cli.cmd_train(other, "deeponet")
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["deeponet_dataset.bin"]

    def test_noise_corpus_at_another_wavelength_is_refused(self, pipeline,
                                                           tmp_path):
        config, _, out, _, _ = pipeline
        shutil.copy(out / "noise_dataset.bin", tmp_path)
        other = dataclasses.replace(config, lam=0.5, out_dir=str(tmp_path))
        with pytest.raises(ValueError, match=r"noise corpus at wavelength 1 "
                                             r"fed to a model built for 0\.5"):
            cli.cmd_train(other, "noisenet")
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["noise_dataset.bin"]

    def test_train_requires_generated_data(self, pipeline, tmp_path):
        config, _, _, _, _ = pipeline
        empty = dataclasses.replace(config, out_dir=str(tmp_path / "fresh"))
        with pytest.raises(FileNotFoundError, match="lsmnet gen"):
            cli.cmd_train(empty, "deeponet")


class TestInputPaths:
    """A model or corpus path must name a regular file: a directory would
    fail in `open` with a bare IsADirectoryError, and a FIFO would block
    there; both are refused with the command's hint before any open."""

    def test_directory_given_to_reconstruct_is_refused(self, tmp_path):
        given = tmp_path / "some_dir"
        given.mkdir()
        with pytest.raises(FileNotFoundError,
                           match=rf"^operator model {re.escape(str(given))} "
                                 r"is not a regular file; train it or pass "
                                 r"--deeponet$"):
            main(["reconstruct", "--out", str(tmp_path / "out"),
                  "--strategy", "deeponet-only", "--deeponet", str(given)])

    def test_directory_in_the_output_directory_is_refused(self, tmp_path):
        (tmp_path / "deeponet_dataset.bin").mkdir()
        config = dataclasses.replace(default_config(), out_dir=str(tmp_path))
        with pytest.raises(FileNotFoundError,
                           match=r"deeponet_dataset\.bin is not a regular "
                                 r"file; run `lsmnet gen` first"):
            cli.cmd_train(config, "deeponet")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
    def test_fifo_is_refused_before_it_is_opened(self, tmp_path):
        fifo = tmp_path / "noise.fifo"
        os.mkfifo(fifo)
        config = dataclasses.replace(default_config(), out_dir=str(tmp_path))
        with pytest.raises(FileNotFoundError,
                           match=r"^noise model .*noise\.fifo is not a "
                                 r"regular file; train it or pass --noisenet$"):
            cli._input(config, "noisenet_model.bin", fifo)

    def test_missing_file_is_still_not_found(self, tmp_path):
        config = dataclasses.replace(default_config(), out_dir=str(tmp_path))
        with pytest.raises(FileNotFoundError,
                           match=r"noisenet_model\.bin not found; train it"):
            cli._input(config, "noisenet_model.bin")


class TestOneTextWriter:
    def test_every_text_artifact_goes_through_write_lines(
            self, tmp_path, monkeypatch):
        """Each command's .txt and .csv files are written by
        archive.write_lines, the one UTF-8/LF text layout."""
        config = _tiny_config(tmp_path / "out")
        written = _spy(monkeypatch, archive, "write_lines")
        monkeypatch.setattr(cli, "_NOISE_EVAL_SIZES", (12,))
        monkeypatch.setattr(cli, "_NOISE_EVAL_ETAS", (0.1,))
        monkeypatch.setattr(cli, "_NOISE_EVAL_SEEDS", 1)
        cli.cmd_gen(config)
        cli.cmd_train(config, "deeponet")
        cli.cmd_train(config, "noisenet")
        cli.cmd_reconstruct(config)
        cli.cmd_noise_eval(config)
        cli.cmd_ntk(config, s_values=(0.5,))
        cli.cmd_benchmark(config, sizes=(6,))
        out = Path(config.out_dir)
        texts = {p.name for p in out.iterdir() if p.suffix in (".txt", ".csv")}
        assert {Path(args[0]).name for args in written} == texts
        assert all(Path(args[0]).parent == out for args in written)
        assert {"config.txt", "deeponet_loss.csv", "indicator_learned.csv",
                "metrics_morozov.txt", "noise_eval.csv", "ntk_sweep.csv",
                "ntk_summary_0.txt", "benchmark.csv"} <= texts
        for path in out.iterdir():
            if path.suffix in (".txt", ".csv"):
                data = path.read_bytes()
                assert data.endswith(b"\n") and not data.endswith(b"\n\n")
                assert b"\r" not in data


class TestNoiseEval:
    def test_csv_layout(self, pipeline, monkeypatch, capsys):
        config, _, out, _, _ = pipeline
        monkeypatch.setattr(cli, "_NOISE_EVAL_SIZES", (12,))
        monkeypatch.setattr(cli, "_NOISE_EVAL_ETAS", (0.1,))
        monkeypatch.setattr(cli, "_NOISE_EVAL_SEEDS", 2)
        cli.cmd_noise_eval(config)
        lines = (out / "noise_eval.csv").read_text().splitlines()
        assert lines[0] == \
            "obstacle,shape,eta,seed,delta_true,delta_pred,rel_err"
        assert len(lines) == 1 + 3 * 1 * 1 * 2
        first = lines[1].split(",")
        assert first[0] == "disk06" and first[1] == "12x12"
        assert float(first[6]) >= 0.0
        assert "mean rel err" in capsys.readouterr().out


class TestNtkCommand:
    def test_outputs_do_not_depend_on_the_configured_wavelength(
            self, pipeline, tmp_path):
        """The diagnostic uses its own unit-wavelength trunk and far field."""
        config, _, _, _, _ = pipeline
        digests = []
        for lam in (1.0, 0.5):
            out = tmp_path / f"lam{lam}"
            cli.cmd_ntk(dataclasses.replace(config, lam=lam, out_dir=str(out)),
                        s_values=(0.5, 0.2))
            digests.append({name: digest for name, digest
                            in _hash_tree(out).items()
                            if name.startswith("ntk_")})
        assert len(digests[0]) == 5
        assert digests[0] == digests[1]

    def test_spectra_and_sweep(self, pipeline):
        config, _, out, _, _ = pipeline
        cli.cmd_ntk(config, s_values=(0.5, 0.2))
        for index in (0, 1):
            assert (out / f"ntk_spectrum_{index}.csv").exists()
            summary = (out / f"ntk_summary_{index}.txt").read_text()
            assert "lower_bound = ok" in summary
            assert "upper_bound = ok" in summary
        sweep = (out / "ntk_sweep.csv").read_text().splitlines()
        assert sweep[0] == "s,epsilon,condition"
        rows = [line.split(",") for line in sweep[1:]]
        assert [float(r[0]) for r in rows] == [0.2, 0.5]
        assert float(rows[1][2]) > float(rows[0][2])


    def test_repeated_overlap_runs_once(self, pipeline, tmp_path):
        _, config_path, _, _, _ = pipeline
        out = tmp_path / "ntk"
        assert main(["ntk", "--config", str(config_path), "--out", str(out),
                     "--s", "0.5", "--s", "0.2", "--s", "0.5"]) == 0
        assert sorted(path.name for path in out.glob("ntk_*")) == [
            "ntk_spectrum_0.csv", "ntk_spectrum_1.csv", "ntk_summary_0.txt",
            "ntk_summary_1.txt", "ntk_sweep.csv"]
        sweep = (out / "ntk_sweep.csv").read_text().splitlines()
        assert [float(line.split(",")[0]) for line in sweep[1:]] == [0.2, 0.5]
        meta = (out / "run_meta_ntk.txt").read_text().splitlines()
        assert [line for line in meta if line.startswith("s_values")] == [
            "s_values = 0.2,0.5"]


class TestBenchmarkCommand:
    def test_csv_layout(self, pipeline):
        _, config_path, out, _, _ = pipeline
        assert main(["benchmark", "--config", str(config_path),
                     "--sizes", "6,9"]) == 0
        lines = (out / "benchmark.csv").read_text().splitlines()
        assert lines[0] == "grid,morozov_seconds,learned_seconds,speedup"
        assert [line.split(",")[0] for line in lines[1:]] == ["6", "9"]
        meta = (out / "run_meta_benchmark.txt").read_text().splitlines()
        assert f"repeats = {cli.BENCHMARK_REPEATS}" in meta
        for line in lines[1:]:
            grid, tm, tl, speedup = line.split(",")
            assert float(tm) > 0.0 and float(tl) > 0.0
            assert float(speedup) == pytest.approx(float(tm) / float(tl))
