"""Perturbation-norm estimator: folding, corpus, training, prediction."""

import logging

import numpy as np
import pytest

from test_forward import scalar_disk_farfield

from lsmnet import forward, nn
from lsmnet.forward import FarFieldMatrix, add_noise, disk_farfield
from lsmnet.noisenet import (
    NoiseDataset,
    NoiseNet,
    estimator_input,
    fold_to_shape,
    gen_noise_dataset,
    load_noise_dataset,
    load_noisenet,
    make_noisenet,
    predict_delta,
    save_noise_dataset,
    save_noisenet,
    spectrum_features,
    train_noisenet,
)

K = 2.0 * np.pi


def _white(shape, seed):
    rng = np.random.default_rng(seed)
    entries = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return FarFieldMatrix(entries, K)


class TestFolding:
    def test_divisor_fold_is_subsampling(self):
        """Halving each axis samples the interpolant at every other node,
        which is literally every other matrix entry."""
        field = _white((60, 60), 0)
        folded = fold_to_shape(field, 30, 30)
        scale = np.max(np.abs(field.entries))
        assert np.max(np.abs(folded.entries - field.entries[::2, ::2])) < 1e-12 * scale

    def test_same_shape_is_identity(self):
        field = _white((24, 24), 1)
        same = fold_to_shape(field, 24, 24)
        np.testing.assert_array_equal(same.entries, field.entries)
        assert same.entries is not field.entries

    def test_white_noise_keeps_entry_variance(self):
        # Folding rearranges modes without discarding energy, so the
        # per-entry second moment of white noise stays near 2.
        totals = []
        for seed in range(40):
            folded = fold_to_shape(_white((50, 50), 100 + seed), 30, 30)
            totals.append(np.mean(np.abs(folded.entries) ** 2))
        assert abs(np.mean(totals) - 2.0) < 0.15

    def test_mixed_axes(self):
        field = _white((20, 12), 3)
        out = fold_to_shape(field, 10, 24)
        assert out.entries.shape == (10, 24)
        assert out.k == K


class TestEstimatorInput:
    @pytest.mark.parametrize("size", [50, 100])
    def test_white_noise_reaches_the_network_white(self, size):
        """Whatever the measured shape, i.i.d. noise must arrive on the
        native grid with a flat spectrum along each axis and, after the
        returned correction, its original per-entry variance.  Folding 50
        or 100 angles straight onto 30 leaves some coarse bins with fewer
        modes than others (max/min energy about 2.1 and 1.4 on these
        draws), which biases the norm estimate."""
        profiles = np.zeros((2, 30))
        variances = []
        for seed in range(200):
            native, correction = estimator_input(
                _white((size, size), 500 + seed), 30, 30)
            assert native.shape == (30, 30)
            for axis in (0, 1):
                energy = np.abs(np.fft.fft(native.entries, axis=axis)) ** 2
                profiles[axis] += energy.mean(axis=1 - axis)
            variances.append(np.mean(np.abs(native.entries) ** 2)
                             * correction ** 2)
        for profile in profiles:
            assert profile.max() / profile.min() <= 1.1
        assert abs(np.mean(variances) - 2.0) <= 0.05 * 2.0

    def test_multiples_and_upsampling_skip_the_cut(self):
        for shape in ((60, 60), (30, 90), (12, 12)):
            field = _white(shape, 7)
            native, correction = estimator_input(field, 30, 30)
            assert correction == 1.0
            np.testing.assert_array_equal(native.entries,
                                          fold_to_shape(field, 30, 30).entries)

    @pytest.mark.parametrize("shape", [(30, 30), (24, 36)])
    def test_native_shape_reaches_the_network_as_measured(self, shape):
        """At the native shape there is nothing to cut or fold: the
        network sees the measurement's own spectrum, the features it was
        trained on, bit for bit."""
        noisy, _ = add_noise(disk_farfield((0.0, 0.0), 1.0, K, *shape),
                             0.1, seed=5)
        native, correction = estimator_input(noisy, *shape)
        assert correction == 1.0
        np.testing.assert_array_equal(native.entries, noisy.entries)
        net = make_noisenet(*shape, seed=1)
        output = float(nn.forward(net.mlp, spectrum_features(noisy))[0])
        want = (np.sqrt(shape[0]) + np.sqrt(shape[1])) * np.exp(output)
        assert predict_delta(net, noisy) == want

    def test_correction_matches_the_cut(self):
        _, correction = estimator_input(_white((50, 100), 8), 30, 30)
        assert correction == pytest.approx(np.sqrt(50 * 100 / (30 * 90)),
                                           rel=1e-15)


class TestFeatures:
    def test_log_singular_values(self):
        field = _white((10, 14), 4)
        feats = spectrum_features(field)
        want = np.log(np.linalg.svd(field.entries, compute_uv=False))
        np.testing.assert_allclose(feats, want, rtol=1e-12)
        assert feats.shape == (10,)
        assert np.all(np.diff(feats) <= 0.0)

    def test_floor_keeps_features_finite(self):
        entries = np.zeros((6, 6), dtype=complex)
        entries[0, 0] = 1.0
        field = FarFieldMatrix(entries, K)
        feats = spectrum_features(field)
        assert np.all(np.isfinite(feats))
        assert feats[-1] == pytest.approx(np.log(1e-300))


class TestCorpus:
    def test_shapes_labels_and_ranges(self):
        ds = gen_noise_dataset(K, 12, 16, seed=0, count=25,
                               eta_range=(0.01, 0.2), radius_range=(0.7, 1.1))
        assert ds.count == 25
        assert ds.features.shape == (25, 12)
        assert np.all((ds.etas >= 0.01) & (ds.etas <= 0.2))
        assert np.all((ds.radii >= 0.7) & (ds.radii <= 1.1))
        scale = np.sqrt(12) + np.sqrt(16)
        np.testing.assert_allclose(ds.labels, np.log(ds.deltas / scale),
                                   rtol=1e-12)

    def test_blocks_match_the_per_disk_oracle(self, monkeypatch):
        """The corpus as drawn one disk at a time before batching."""
        # Blocks of 4 disks: 25 leaves a partial last block.
        monkeypatch.setattr(forward, "_BLOCK_ENTRIES", 4 * 12 * 16)
        ds = gen_noise_dataset(K, 12, 16, seed=9, count=25,
                               eta_range=(0.01, 0.2), radius_range=(0.3, 1.9))
        rng = np.random.Generator(np.random.PCG64(9))
        etas = np.exp(rng.uniform(np.log(0.01), np.log(0.2), size=25))
        radii = rng.uniform(0.3, 1.9, size=25)
        seeds = rng.integers(0, 2 ** 63, size=25)
        for i in range(25):
            clean = FarFieldMatrix(
                scalar_disk_farfield((0.0, 0.0), radii[i], K, 12, 16), K)
            noisy, realization = add_noise(clean, etas[i], int(seeds[i]))
            np.testing.assert_array_equal(ds.features[i], spectrum_features(noisy))
            assert ds.deltas[i] == realization.delta

    def test_seed_pins_the_corpus(self):
        a = gen_noise_dataset(K, 10, 10, seed=7, count=15)
        b = gen_noise_dataset(K, 10, 10, seed=7, count=15)
        c = gen_noise_dataset(K, 10, 10, seed=8, count=15)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.deltas, b.deltas)
        assert not np.array_equal(a.deltas, c.deltas)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_noise_dataset(K, 10, 10, seed=0, count=0)
        with pytest.raises(ValueError):
            gen_noise_dataset(K, 10, 10, seed=0, count=5, eta_range=(0.0, 0.1))
        with pytest.raises(ValueError):
            gen_noise_dataset(K, 10, 10, seed=0, count=5, radius_range=(2.0, 1.0))
        with pytest.raises(ValueError, match="sample count"):
            NoiseDataset(np.zeros((3, 10)), np.zeros(2), np.ones(3),
                         np.ones(3), np.ones(3), 10, 10, K)

    @pytest.mark.parametrize("bound", [np.inf, np.nan])
    @pytest.mark.parametrize("key, match", [("eta_range", "noise range"),
                                            ("radius_range", "radius range")])
    def test_non_finite_range_is_refused_by_name(self, key, match, bound):
        with pytest.raises(ValueError, match=f"{match} .* must be finite"):
            gen_noise_dataset(K, 10, 10, seed=0, count=5, **{key: (0.1, bound)})

    @pytest.mark.parametrize("m0, n0", [(41, 10), (10, 41), (0, 10)])
    def test_native_shape_is_bounded(self, m0, n0):
        # Refused before any sample is drawn, and for a network too.
        with pytest.raises(ValueError, match="native shape"):
            gen_noise_dataset(K, m0, n0, seed=0, count=400)
        with pytest.raises(ValueError, match="native shape"):
            NoiseNet(nn.init_mlp((max(1, min(m0, n0)), 100, 1), "relu",
                                 "identity", 0), m0, n0)

    @pytest.mark.parametrize("k", [-K, 0.0, np.nan, np.inf])
    def test_rejects_bad_wavenumber(self, k):
        with pytest.raises(ValueError, match="wavenumber"):
            NoiseDataset(np.zeros((3, 10)), np.zeros(3), np.ones(3),
                         np.ones(3), np.ones(3), 10, 10, k)


class TestTraining:
    def test_loss_drops_and_run_is_deterministic(self):
        dataset = gen_noise_dataset(K, 20, 20, seed=5, count=60)
        net = make_noisenet(20, 20, seed=4)
        losses = train_noisenet(net, dataset, epochs=40)
        assert len(losses) == 40
        assert losses[-1] < 0.5 * losses[0]

        twin = make_noisenet(20, 20, seed=4)
        assert train_noisenet(twin, dataset, epochs=40) == losses
        for a, b in zip(nn.parameters(net.mlp), nn.parameters(twin.mlp)):
            np.testing.assert_array_equal(a, b)

    def test_zero_epochs_still_arms_the_range_guard(self):
        dataset = gen_noise_dataset(K, 10, 10, seed=1, count=10)
        net = make_noisenet(10, 10, seed=0)
        before = [p.copy() for p in nn.parameters(net.mlp)]
        assert train_noisenet(net, dataset, epochs=0) == []
        assert net.label_min == dataset.labels.min()
        assert net.label_max == dataset.labels.max()
        for a, b in zip(nn.parameters(net.mlp), before):
            np.testing.assert_array_equal(a, b)

    def test_validation(self):
        dataset = gen_noise_dataset(K, 10, 10, seed=1, count=10)
        wide = make_noisenet(12, 12, seed=0)
        with pytest.raises(ValueError, match="features"):
            train_noisenet(wide, dataset, epochs=1)
        with pytest.raises(ValueError):
            train_noisenet(make_noisenet(10, 10, seed=0), dataset, epochs=-1)


class TestPrediction:
    def test_rescales_with_the_measured_grid(self):
        """A matrix twice the native size is folded down for the network
        but the norm is scaled back up with the measured shape."""
        net = make_noisenet(30, 30, seed=1)
        dataset = gen_noise_dataset(K, 30, 30, seed=2, count=30)
        train_noisenet(net, dataset, epochs=10)
        noisy, _ = add_noise(disk_farfield((0.0, 0.0), 1.0, K, 60, 60),
                             0.1, seed=3)
        native = fold_to_shape(noisy, 30, 30)
        output = float(nn.forward(net.mlp, spectrum_features(native))[0])
        want = (np.sqrt(60) + np.sqrt(60)) * np.exp(output)
        assert predict_delta(net, noisy) == pytest.approx(want, rel=1e-12)

    def test_estimates_track_truth_on_training_regime(self):
        net = make_noisenet(30, 30, seed=1)
        dataset = gen_noise_dataset(K, 30, 30, seed=2, count=150)
        train_noisenet(net, dataset, epochs=200)
        errors = []
        for seed in range(10):
            noisy, realization = add_noise(
                disk_farfield((0.0, 0.0), 1.0, K, 30, 30), 0.1, seed=seed)
            predicted = predict_delta(net, noisy)
            errors.append(abs(predicted - realization.delta) / realization.delta)
        assert np.mean(errors) < 0.5

    def test_extrapolation_warning(self, caplog):
        net = make_noisenet(10, 10, seed=0)
        net.label_min = 1000.0
        net.label_max = 1000.1
        field = _white((10, 10), 9)
        with caplog.at_level(logging.WARNING, logger="lsmnet.noisenet"):
            predict_delta(net, field)
        assert any("outside the training range" in r.message
                   for r in caplog.records)

    def test_untrained_net_does_not_warn(self, caplog):
        # label range defaults to NaN, which disarms the guard
        net = make_noisenet(10, 10, seed=0)
        with caplog.at_level(logging.WARNING, logger="lsmnet.noisenet"):
            predict_delta(net, _white((10, 10), 10))
        assert not any("training range" in r.message for r in caplog.records)


class TestSerialization:
    def test_estimator_round_trip(self, tmp_path):
        net = make_noisenet(14, 10, seed=3)
        dataset = gen_noise_dataset(K, 14, 10, seed=4, count=8)
        train_noisenet(net, dataset, epochs=2)
        path = tmp_path / "est.bin"
        save_noisenet(path, net)
        back = load_noisenet(path)
        assert (back.m0, back.n0) == (14, 10)
        assert back.label_min == net.label_min
        assert back.label_max == net.label_max
        for a, b in zip(nn.parameters(net.mlp), nn.parameters(back.mlp)):
            np.testing.assert_array_equal(a, b)

    def test_dataset_round_trip(self, tmp_path):
        dataset = gen_noise_dataset(K, 8, 12, seed=5, count=6)
        path = tmp_path / "ds.bin"
        save_noise_dataset(path, dataset)
        back = load_noise_dataset(path)
        np.testing.assert_array_equal(back.features, dataset.features)
        np.testing.assert_array_equal(back.deltas, dataset.deltas)
        assert (back.m0, back.n0, back.k) == (8, 12, K)

    def test_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPEnope")
        with pytest.raises(ValueError, match="magic"):
            load_noisenet(path)
        with pytest.raises(ValueError, match="magic"):
            load_noise_dataset(path)

    def test_network_shape_is_enforced(self):
        with pytest.raises(ValueError):
            NoiseNet(nn.init_mlp((9, 100, 1), "relu", "identity", 0), 10, 10)
        with pytest.raises(ValueError, match="relu"):
            NoiseNet(nn.init_mlp((10, 100, 1), "tanh", "identity", 0), 10, 10)
