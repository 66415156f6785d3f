"""Command-line pipeline: configuration, dispatch, reproducible outputs."""

import dataclasses
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lsmnet import cli
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
        benchmark_sizes=(6, 9), benchmark_repeats=2,
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
            k=3.7, coupled_decay=True, benchmark_sizes=(5, 25),
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
        path = tmp_path / "cfg.txt"
        path.write_text("colour = red\n")
        with pytest.raises(ValueError, match="colour"):
            parse_config(path)

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("k = 6.0\njust words\n")
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

    @pytest.mark.parametrize("key", ["threads", "seed", "obstacle.0.radius"])
    def test_repeated_key_names_both_lines(self, key, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(f"k = 6.0\n{key} = 1\n# between\n{key} = 2\n")
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

    def test_missing_model_is_explained(self, pipeline, tmp_path):
        config, _, _, _, _ = pipeline
        empty = dataclasses.replace(config, out_dir=str(tmp_path / "none"))
        with pytest.raises(FileNotFoundError, match="train"):
            cli.cmd_reconstruct(empty, strategies=("learned",))

    def test_clean_data_rejects_discrepancy_matching(self, pipeline):
        config, _, _, _, _ = pipeline
        clean = dataclasses.replace(config, eta=0.0)
        with pytest.raises(ValueError, match="eta > 0"):
            cli.cmd_reconstruct(clean, strategies=("morozov",))

    @pytest.mark.parametrize("command", [cli.cmd_reconstruct,
                                         cli.cmd_benchmark],
                             ids=["reconstruct", "benchmark"])
    def test_negative_noise_level_is_refused(self, pipeline, command):
        config, _, _, _, _ = pipeline
        with pytest.raises(ValueError, match="must be nonnegative"):
            command(dataclasses.replace(config, eta=-0.1))

    def test_train_requires_generated_data(self, pipeline, tmp_path):
        config, _, _, _, _ = pipeline
        empty = dataclasses.replace(config, out_dir=str(tmp_path / "fresh"))
        with pytest.raises(FileNotFoundError, match="lsmnet gen"):
            cli.cmd_train(empty, "deeponet")


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


class TestBenchmarkCommand:
    def test_csv_layout(self, pipeline):
        config, config_path, out, _, _ = pipeline
        assert main(["benchmark", "--config", str(config_path)]) == 0
        lines = (out / "benchmark.csv").read_text().splitlines()
        assert lines[0] == "grid,morozov_seconds,learned_seconds,speedup"
        assert len(lines) == 1 + len(config.benchmark_sizes)
        for line in lines[1:]:
            grid, tm, tl, speedup = line.split(",")
            assert float(tm) > 0.0 and float(tl) > 0.0
            assert float(speedup) == pytest.approx(float(tm) / float(tl))
