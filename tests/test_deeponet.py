"""Radial-basis operator network: trunk, corpus, training, evaluation."""

import logging
import math
import struct

import numpy as np
import pytest

from test_forward import scalar_disk_farfield

from lsmnet import cli, deeponet, forward, nn
from lsmnet.deeponet import (
    S_MIN,
    RbfDeepOnet,
    TrainingSet,
    branch_features,
    gen_training_set,
    indicator_eval,
    learned_regularizer,
    load_deeponet,
    load_training_set,
    make_deeponet,
    make_trunk,
    save_deeponet,
    save_training_set,
    train_deeponet,
    trunk_eval,
    write_loss_csv,
)
from lsmnet.forward import FarFieldMatrix, add_noise, disk_farfield
from lsmnet.noisenet import gen_noise_dataset, make_noisenet, predict_delta, train_noisenet
from lsmnet.regsolve import SamplingGrid, tensor_points

K = 2.0 * np.pi


def per_disk_training_set(trunk, k, m0, n0, seed, radius_range):
    """Oracle: the corpus generated one disk at a time, as before batching.

    Same draws in the same order; each matrix is the scalar series, each
    label row its own norm test.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    halfwidth = trunk.lam * trunk.L
    positions = tensor_points(np.linspace(-halfwidth, halfwidth, 4 * trunk.n_h))
    count = positions.shape[0]
    radii = rng.uniform(*radius_range, size=count)
    matrices = np.empty((count, m0, n0), dtype=complex)
    labels = np.empty((count, trunk.p_h), dtype=np.uint8)
    for i in range(count):
        matrices[i] = scalar_disk_farfield(positions[i], radii[i], k, m0, n0)
        inside = np.linalg.norm(trunk.centers - positions[i], axis=1) <= radii[i]
        labels[i] = inside.astype(np.uint8)
    return positions, radii, matrices, labels


def eager_trunk(lam, L, h, s):
    """Oracle: every derived trunk field, computed at once as the trunk
    used to be built, with the axis sliced back out of the centers."""
    halfwidth = lam * L
    n_h = int(math.floor(2.0 * halfwidth / h)) + 1
    centers = tensor_points(np.linspace(-halfwidth, halfwidth, n_h))
    return {"n_h": n_h, "p_h": n_h * n_h, "epsilon": -math.log(s) / h ** 2,
            "axis": centers[:n_h, 0], "centers": centers}


# (lam, L, h, s): the shipped trunk, the NTK trunk across its overlap
# sweep, and spacings where 2 lam L / h rounds just below (0.3 / 0.1),
# just above (0.9 / 0.03) or onto (1.1 / 0.1) an integer.
DERIVED_CASES = [
    (cli.RunConfig.lam, cli.RunConfig.L, cli.RunConfig.trunk_h, cli.RunConfig.trunk_s),
    *[(cli._NTK_LAM, cli._NTK_HALFWIDTH, cli._NTK_H, s) for s in cli.DEFAULT_NTK_SWEEP],
    (1.0, 0.3, 0.1, 0.3),
    (1.0, 0.9, 0.03, 0.5),
    (1.0, 1.1, 0.1, 0.5),
]


def _tiny_trunk():
    # 3x3 centers: the smallest grid with an interior point
    return make_trunk(1.0, 1.0, 1.0, 0.3)


@pytest.fixture(scope="module")
def tiny_corpus():
    trunk = _tiny_trunk()
    return trunk, gen_training_set(trunk, K, 6, 6, seed=0)


class TestTrunk:
    def test_default_geometry(self):
        """Halfwidth 4 at spacing 1/2 gives 17 centers per side."""
        trunk = make_trunk(1.0, 4.0, 0.5, 0.15)
        assert trunk.n_h == 17
        assert trunk.p_h == 289
        np.testing.assert_allclose(trunk.centers[0], [-4.0, -4.0])
        np.testing.assert_allclose(trunk.centers[-1], [4.0, 4.0])
        np.testing.assert_allclose(trunk.centers[1], [-3.5, -4.0])

    def test_shape_parameter_ties_neighbor_value(self):
        # epsilon = -ln(s)/h^2 means the basis drops to exactly s one
        # grid step away from its center.
        trunk = make_trunk(1.0, 2.0, 0.5, 0.15)
        row = trunk_eval(trunk, trunk.centers[0])
        assert row[0] == 1.0
        assert row[1] == pytest.approx(0.15, rel=1e-12)

    def test_eval_batch_and_validation(self):
        trunk = _tiny_trunk()
        pts = np.array([[0.0, 0.0], [0.5, -0.5]])
        batch = trunk_eval(trunk, pts)
        np.testing.assert_array_equal(batch[0], trunk_eval(trunk, pts[0]))
        assert batch.shape == (2, trunk.p_h)
        with pytest.raises(ValueError):
            trunk_eval(trunk, np.zeros((2, 3)))

    def test_low_s_guard(self, caplog):
        with pytest.raises(ValueError, match="conditioning floor"):
            make_trunk(1.0, 1.0, 1.0, 0.5 * S_MIN)
        with caplog.at_level(logging.WARNING, logger="lsmnet.deeponet"):
            make_trunk(1.0, 1.0, 1.0, 0.5 * S_MIN, allow_low_s=True)
        assert any("below recommended floor" in r.message for r in caplog.records)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_trunk(0.0, 1.0, 1.0, 0.3)
        with pytest.raises(ValueError):
            make_trunk(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="no finite grid"):
            make_trunk(1e200, 1e200, 1.0, 0.3)
        # h ** 2 underflows to 0; a subnormal h ** 2 overflows epsilon.
        for h in (1e-170, 1e-155):
            with pytest.raises(ValueError, match=f"spacing h={h!r}"):
                make_trunk(h, 1.0, h, 0.15)
        for index, name in enumerate(("lam", "L", "h")):
            for value in (np.inf, np.nan):
                args = [1.0, 4.0, 0.5, 0.15]
                args[index] = value
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    make_trunk(*args)

    @pytest.mark.parametrize("lam, L, h, s", DERIVED_CASES)
    def test_derived_fields_are_bitwise_the_eager_ones(self, lam, L, h, s):
        ratio = 2.0 * lam * L / h
        trunk = make_trunk(lam, L, h, s, allow_low_s=True)
        assert (trunk.lam, trunk.L, trunk.h, trunk.s) == (lam, L, h, s)
        want = eager_trunk(lam, L, h, s)
        assert type(trunk.n_h) is int and type(trunk.p_h) is int
        assert (trunk.n_h, trunk.p_h) == (want["n_h"], want["p_h"])
        assert trunk.n_h == math.floor(ratio) + 1
        assert struct.pack("<d", trunk.epsilon) == struct.pack("<d", want["epsilon"])
        for name in ("axis", "centers"):
            got = getattr(trunk, name)
            assert got.shape == want[name].shape and got.dtype == want[name].dtype
            assert got.tobytes() == want[name].tobytes(), name
        assert trunk.centers is trunk.centers        # built once, on demand

    def test_near_integer_spacings_are_covered(self):
        ratios = [2.0 * lam * L / h for lam, L, h, _ in DERIVED_CASES[-3:]]
        assert all(abs(r - round(r)) < 1e-12 for r in ratios)
        assert [math.floor(r) + 1 for r in ratios] == [6, 61, 23]


class TestModel:
    def test_branch_dimensions(self):
        trunk = _tiny_trunk()
        model = make_deeponet(trunk, 6, 6, seed=0)
        assert model.branch.sizes == (72, 27, 9)
        assert model.branch.activation == "tanh"
        assert model.branch.output == "square"

    def test_rejects_mismatched_branch(self):
        trunk = _tiny_trunk()
        wrong = nn.init_mlp((72, 27, 8), "tanh", "square", seed=0)
        with pytest.raises(ValueError):
            RbfDeepOnet(trunk, wrong, 6, 6)
        linear = nn.init_mlp((72, 27, 9), "tanh", "identity", seed=0)
        with pytest.raises(ValueError, match="squared"):
            RbfDeepOnet(trunk, linear, 6, 6)

    def test_branch_features_layout(self):
        # row-major real parts first, then row-major imaginary parts
        entries = (np.arange(16.0) + 1j * np.arange(100.0, 116.0)).reshape(4, 4)
        field = FarFieldMatrix(entries, K)
        np.testing.assert_array_equal(
            branch_features(field),
            np.concatenate([np.arange(16.0), np.arange(100.0, 116.0)]))


class TestCorpus:
    def test_sample_count_is_16_per_basis_function(self, tiny_corpus):
        trunk, corpus = tiny_corpus
        assert corpus.count == 16 * trunk.p_h

    def test_labels_mark_centers_inside_disk(self, tiny_corpus):
        trunk, corpus = tiny_corpus
        for i in (0, 57, corpus.count - 1):
            inside = (np.linalg.norm(trunk.centers - corpus.centers[i], axis=1)
                      <= corpus.radii[i])
            np.testing.assert_array_equal(corpus.labels[i], inside.astype(np.uint8))

    # 0.7496555682941201 is a centre-to-position distance as the norm rounds
    # it, at which dx^2 + dy^2 <= R^2 and np.hypot both label other disks.
    @pytest.mark.parametrize("radius_range", [(1.0, 1.0), (2.0, 2.0), (0.2, 2.5),
                                              (0.7496555682941201,) * 2])
    def test_labels_are_the_norm_test_byte_for_byte(self, radius_range):
        """Radii of exactly 1 and 2 put trunk centres one and two grid
        spacings from a disk's centre on its boundary, where the distance
        must round as np.linalg.norm does for the centre to count inside."""
        trunk = _tiny_trunk()
        corpus = gen_training_set(trunk, K, 4, 4, seed=4, radius_range=radius_range)
        distances = np.linalg.norm(trunk.centers[None, :, :]
                                   - corpus.centers[:, None, :], axis=2)
        want = (distances <= corpus.radii[:, None]).astype(np.uint8)
        assert corpus.labels.tobytes() == want.tobytes()
        if radius_range[0] == radius_range[1]:
            assert np.any(distances == radius_range[0])

    def test_matrices_are_disk_far_fields(self, tiny_corpus):
        _, corpus = tiny_corpus
        i = 31
        want = disk_farfield(corpus.centers[i], corpus.radii[i], K, 6, 6)
        np.testing.assert_array_equal(corpus.matrices[i], want.entries)

    def test_blocks_match_the_per_disk_oracle(self, monkeypatch):
        # 144 disks in blocks of 20 (7 x 6 x 20 entries) and label blocks
        # of 25: both leave a partial last block.
        monkeypatch.setattr(forward, "_BLOCK_ENTRIES", 20 * 7 * 6)
        monkeypatch.setattr(deeponet, "_LABEL_BLOCK", 25)
        trunk = _tiny_trunk()
        corpus = gen_training_set(trunk, K, 7, 6, seed=3,
                                  radius_range=(0.2, 2.5))
        positions, radii, matrices, labels = per_disk_training_set(
            trunk, K, 7, 6, 3, (0.2, 2.5))
        np.testing.assert_array_equal(corpus.centers, positions)
        np.testing.assert_array_equal(corpus.radii, radii)
        np.testing.assert_array_equal(corpus.matrices, matrices)
        np.testing.assert_array_equal(corpus.labels, labels)

    def test_labels_do_not_depend_on_the_bessel_kernels(self, request):
        trunk = _tiny_trunk()
        got = gen_training_set(trunk, K, 8, 8, seed=2)
        request.getfixturevalue("general_order_bessel")
        want = gen_training_set(trunk, K, 8, 8, seed=2)
        assert got.labels.tobytes() == want.labels.tobytes()
        gap = np.max(np.abs(got.matrices - want.matrices), axis=(1, 2))
        assert np.all(gap <= 1e-14 * np.max(np.abs(want.matrices), axis=(1, 2)))

    def test_seed_pins_the_corpus(self):
        trunk = _tiny_trunk()
        a = gen_training_set(trunk, K, 4, 4, seed=5)
        b = gen_training_set(trunk, K, 4, 4, seed=5)
        c = gen_training_set(trunk, K, 4, 4, seed=6)
        np.testing.assert_array_equal(a.matrices, b.matrices)
        np.testing.assert_array_equal(a.radii, b.radii)
        assert not np.array_equal(a.radii, c.radii)

    def test_radius_range_and_noise(self):
        # radii stay in the range, and the corpus is noise-free
        trunk = _tiny_trunk()
        plain = gen_training_set(trunk, K, 4, 4, seed=1,
                                 radius_range=(0.4, 0.6))
        assert np.all((plain.radii >= 0.4) & (plain.radii <= 0.6))
        np.testing.assert_array_equal(
            plain.matrices, forward.disk_farfields(plain.centers, plain.radii, K, 4, 4))

    def test_validation(self):
        trunk = _tiny_trunk()
        with pytest.raises(ValueError):
            gen_training_set(trunk, K, 4, 4, seed=0, radius_range=(0.5, 0.1))
        with pytest.raises(ValueError, match="sample count"):
            TrainingSet(np.zeros((2, 4, 4), dtype=complex), np.zeros((3, 2)),
                        np.ones(2), np.zeros((2, 9), dtype=np.uint8), K)
        with pytest.raises(ValueError, match="binary"):
            TrainingSet(np.zeros((1, 4, 4), dtype=complex), np.zeros((1, 2)),
                        np.ones(1), 2 * np.ones((1, 9), dtype=np.uint8), K)

    @pytest.mark.parametrize("k", [-K, 0.0, np.nan, np.inf])
    def test_rejects_bad_wavenumber(self, k):
        with pytest.raises(ValueError, match="wavenumber"):
            TrainingSet(np.zeros((1, 4, 4), dtype=complex), np.zeros((1, 2)),
                        np.ones(1), np.zeros((1, 9), dtype=np.uint8), k)


class TestTraining:
    def test_loss_drops_and_run_is_deterministic(self, tiny_corpus):
        trunk, corpus = tiny_corpus
        model = make_deeponet(trunk, 6, 6, seed=1)
        losses = train_deeponet(model, corpus, seed=2, epochs=30, batch_size=32)
        assert len(losses) == 30
        assert losses[-1] < 0.5 * losses[0]

        twin = make_deeponet(trunk, 6, 6, seed=1)
        twin_losses = train_deeponet(twin, corpus, seed=2, epochs=30, batch_size=32)
        assert twin_losses == losses
        for a, b in zip(nn.parameters(model.branch), nn.parameters(twin.branch)):
            np.testing.assert_array_equal(a, b)

    def test_zero_epochs_is_a_no_op(self, tiny_corpus):
        trunk, corpus = tiny_corpus
        model = make_deeponet(trunk, 6, 6, seed=3)
        before = [p.copy() for p in nn.parameters(model.branch)]
        assert train_deeponet(model, corpus, seed=0, epochs=0) == []
        for a, b in zip(nn.parameters(model.branch), before):
            np.testing.assert_array_equal(a, b)

    def test_divergence_aborts(self, tiny_corpus):
        trunk, corpus = tiny_corpus
        model = make_deeponet(trunk, 6, 6, seed=1)
        with pytest.raises((RuntimeError, ValueError)), np.errstate(all="ignore"):
            train_deeponet(model, corpus, seed=2, epochs=5, batch_size=32,
                           lr_start=1e12, lr_end=1e12)

    def test_gradient_of_composite_loss(self, tiny_corpus):
        """Backpropagation through branch, squared output, and basis
        combination must match central differences to 1e-4 relative."""
        trunk, corpus = tiny_corpus
        model = make_deeponet(trunk, 6, 6, seed=3)
        gram = trunk_eval(trunk, trunk.centers)
        feats = np.concatenate([corpus.matrices[:3].real.reshape(3, -1),
                                corpus.matrices[:3].imag.reshape(3, -1)], axis=1)
        targets = corpus.labels[:3].astype(float)

        def loss():
            err = nn.forward(model.branch, feats) @ gram - targets
            return float(np.mean(err ** 2))

        trace = nn.forward_trace(model.branch, feats)
        err = trace[1][-1] @ gram - targets
        upstream = (2.0 / err.size) * (err @ gram)
        wg, bg, _ = nn.backward(model.branch, feats, upstream, trace=trace)
        analytic = np.concatenate(
            [np.ravel(g) for pair in zip(wg, bg) for g in pair])

        step = 1e-5
        numeric = np.empty_like(analytic)
        pos = 0
        for arr in nn.parameters(model.branch):
            flat = arr.ravel()
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + step
                up = loss()
                flat[i] = keep - step
                down = loss()
                flat[i] = keep
                numeric[pos] = (up - down) / (2.0 * step)
                pos += 1
        scale = np.max(np.abs(numeric))
        assert np.max(np.abs(analytic - numeric)) < 1e-4 * scale

    def test_training_input_validation(self, tiny_corpus):
        trunk, corpus = tiny_corpus
        model = make_deeponet(trunk, 6, 6, seed=0)
        other = make_trunk(1.0, 1.5, 1.0, 0.3)
        mismatched = make_deeponet(other, 6, 6, seed=0)
        with pytest.raises(ValueError, match="trunk"):
            train_deeponet(mismatched, corpus, seed=0, epochs=1)
        half_wave = make_deeponet(make_trunk(0.5, 2.0, 1.0, 0.3), 6, 6, seed=0)
        assert half_wave.trunk.p_h == trunk.p_h
        with pytest.raises(ValueError, match=r"training set at wavelength 1 .* for 0\.5"):
            train_deeponet(half_wave, corpus, seed=0, epochs=1)
        with pytest.raises(ValueError):
            train_deeponet(model, corpus, seed=0, epochs=-1)
        with pytest.raises(ValueError):
            train_deeponet(model, corpus, seed=0, epochs=1, batch_size=0)


class TestIndicator:
    def test_native_input_matches_manual_composition(self):
        # The evaluation factors the basis per axis, which sums in another
        # order than the dense expansion: equal to rounding, not bitwise.
        trunk = make_trunk(1.0, 1.0, 0.5, 0.15)
        model = make_deeponet(trunk, 8, 8, seed=4)
        field = disk_farfield((0.2, -0.1), 0.5, K, 8, 8)
        grid = SamplingGrid.make(1.0, 7)
        result = indicator_eval(model, field, grid)
        coeff = nn.forward(model.branch, branch_features(field))
        want = trunk_eval(trunk, grid.points) @ coeff
        np.testing.assert_allclose(result.values, want, rtol=1e-13)
        assert np.all(result.values >= 0.0)

    def test_band_limited_input_survives_downsampling(self):
        """Truncation to the native grid is exact for data whose modes
        all fit there, so the indicator cannot depend on the recording
        resolution for such data."""
        trunk = make_trunk(1.0, 1.0, 0.5, 0.15)
        model = make_deeponet(trunk, 12, 12, seed=4)
        theta_f = 2.0 * np.pi * np.arange(24) / 24
        theta_c = 2.0 * np.pi * np.arange(12) / 12

        def synth(theta, phi):
            t, p = np.meshgrid(theta, phi, indexing="ij")
            return (0.3 + np.exp(1j * t) * np.exp(-2j * p)
                    + 0.1 * np.exp(-3j * t + 1j * p))

        fine = FarFieldMatrix(synth(theta_f, theta_f), K)
        coarse = FarFieldMatrix(synth(theta_c, theta_c), K)
        grid = SamplingGrid.make(1.0, 6)
        a = indicator_eval(model, fine, grid)
        b = indicator_eval(model, coarse, grid)
        np.testing.assert_allclose(a.values, b.values, rtol=1e-10,
                                   atol=1e-12 * np.max(b.values))

    def test_wavelength_mismatch_raises(self):
        trunk = make_trunk(1.0, 1.0, 0.5, 0.15)
        model = make_deeponet(trunk, 8, 8, seed=4)
        off_key = disk_farfield((0.0, 0.0), 0.5, 1.7 * K, 8, 8)
        grid = SamplingGrid.make(1.0, 4)
        with pytest.raises(ValueError, match=r"wavelength 0\.588235 .* for 1\b"):
            indicator_eval(model, off_key, grid)


class TestLearnedRegularizer:
    def test_alpha_is_floored_indicator_times_norm(self):
        trunk = make_trunk(1.0, 1.0, 0.5, 0.15)
        model = make_deeponet(trunk, 12, 12, seed=4)
        noise_model = make_noisenet(12, 12, seed=5)
        dataset = gen_noise_dataset(K, 12, 12, seed=6, count=20)
        train_noisenet(noise_model, dataset, epochs=5)
        field = disk_farfield((0.2, -0.1), 0.5, K, 12, 12)
        noisy, _ = add_noise(field, 0.1, seed=7)
        grid = SamplingGrid.make(1.0, 6)
        reg = learned_regularizer(model, noise_model, noisy, grid)
        delta_hat = predict_delta(noise_model, noisy)
        indicator = indicator_eval(model, noisy, grid)
        np.testing.assert_array_equal(
            reg.alpha, np.maximum(delta_hat * indicator.values,
                                  1e-8 * delta_hat))

    def test_floor_bites_far_from_the_basis(self):
        # Far outside the center grid every basis function underflows,
        # so the product would be zero without the floor.
        trunk = make_trunk(1.0, 1.0, 0.5, 0.15)
        model = make_deeponet(trunk, 12, 12, seed=4)
        noise_model = make_noisenet(12, 12, seed=5)
        dataset = gen_noise_dataset(K, 12, 12, seed=6, count=20)
        train_noisenet(noise_model, dataset, epochs=5)
        noisy, _ = add_noise(disk_farfield((0.0, 0.0), 0.5, K, 12, 12),
                             0.1, seed=7)
        remote = SamplingGrid.make(40.0, 6)
        reg = learned_regularizer(model, noise_model, noisy, remote)
        delta_hat = predict_delta(noise_model, noisy)
        assert np.min(reg.alpha) == 1e-8 * delta_hat
        assert np.all(reg.alpha > 0.0)


class TestSerialization:
    def test_model_round_trip(self, tmp_path):
        trunk = _tiny_trunk()
        model = make_deeponet(trunk, 6, 6, seed=9)
        path = tmp_path / "model.bin"
        save_deeponet(path, model)
        back = load_deeponet(path)
        assert back.trunk == trunk
        assert back.trunk.epsilon == trunk.epsilon
        assert (back.m0, back.n0) == (6, 6)
        for a, b in zip(nn.parameters(model.branch), nn.parameters(back.branch)):
            np.testing.assert_array_equal(a, b)

    def test_load_and_evaluate_never_build_centers(self, tmp_path, monkeypatch):
        model = make_deeponet(make_trunk(1.0, 1.0, 0.5, 0.15), 8, 8, seed=4)
        path = tmp_path / "model.bin"
        save_deeponet(path, model)
        field = disk_farfield((0.2, -0.1), 0.5, K, 8, 8)
        grid = SamplingGrid.make(1.0, 7)
        want = indicator_eval(model, field, grid).values

        def refuse(axis):
            pytest.fail("trunk centers built")

        monkeypatch.setattr(deeponet, "tensor_points", refuse)
        back = load_deeponet(path)
        got = indicator_eval(back, field, grid).values
        assert "centers" not in vars(back.trunk)
        assert got.tobytes() == want.tobytes()

    def test_model_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(ValueError, match="magic"):
            load_deeponet(path)

    def test_corpus_round_trip(self, tmp_path, tiny_corpus):
        _, corpus = tiny_corpus
        path = tmp_path / "set.bin"
        save_training_set(path, corpus)
        back = load_training_set(path)
        np.testing.assert_array_equal(back.matrices, corpus.matrices)
        np.testing.assert_array_equal(back.labels, corpus.labels)
        np.testing.assert_array_equal(back.radii, corpus.radii)
        assert back.k == corpus.k

    def test_loss_csv(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_csv(path, [0.5, 0.25, 0.125])
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 4
        assert lines[1] == "1,0.5"
