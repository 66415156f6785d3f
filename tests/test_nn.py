"""Dense network core: forward/backward exactness, Adam, serialization."""

import copy
import warnings

import numpy as np
import pytest

from lsmnet import archive
from lsmnet.nn import (
    BETA1,
    AdamState,
    LrSchedule,
    Mlp,
    adam_step,
    backward,
    forward,
    forward_trace,
    init_mlp,
    lr_at,
    make_adam,
    mlp_to_bytes,
    parameter_grads,
    parameters,
    read_mlp,
)

FD_STEP = 1e-5
FD_RTOL = 1e-5


def _loss_and_grads(mlp, x, coeff):
    """Scalar loss sum(coeff * f(x)) and its exact parameter gradients."""
    value = float(np.sum(coeff * forward(mlp, x)))
    wg, bg, xg = backward(mlp, x, coeff)
    return value, wg, bg, xg


def _fd_check(mlp, x, coeff):
    """Worst relative central-difference error over every parameter."""
    _, wg, bg, xg = _loss_and_grads(mlp, x, coeff)
    analytic = []
    for g in [a for pair in zip(wg, bg) for a in pair]:
        analytic.append(np.ravel(g))
    analytic = np.concatenate(analytic + [np.ravel(xg)])
    numeric = np.empty_like(analytic)
    pos = 0
    for arr in parameters(mlp):
        flat = arr.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + FD_STEP
            up = float(np.sum(coeff * forward(mlp, x)))
            flat[i] = keep - FD_STEP
            down = float(np.sum(coeff * forward(mlp, x)))
            flat[i] = keep
            numeric[pos] = (up - down) / (2.0 * FD_STEP)
            pos += 1
    xflat = x.ravel()
    for i in range(xflat.size):
        keep = xflat[i]
        xflat[i] = keep + FD_STEP
        up = float(np.sum(coeff * forward(mlp, x)))
        xflat[i] = keep - FD_STEP
        down = float(np.sum(coeff * forward(mlp, x)))
        xflat[i] = keep
        numeric[pos] = (up - down) / (2.0 * FD_STEP)
        pos += 1
    scale = np.max(np.abs(numeric)) + 1e-30
    return float(np.max(np.abs(analytic - numeric)) / scale)


class TestInit:
    def test_shapes_and_count(self):
        mlp = init_mlp((4, 7, 2), "tanh", "identity", seed=0)
        assert mlp.weights[0].shape == (4, 7)
        assert mlp.weights[1].shape == (7, 2)
        assert mlp.biases[1].shape == (2,)
        assert sum(p.size for p in parameters(mlp)) == 4 * 7 + 7 + 7 * 2 + 2

    def test_seed_determinism(self):
        a = init_mlp((3, 5, 1), "relu", "identity", seed=9)
        b = init_mlp((3, 5, 1), "relu", "identity", seed=9)
        c = init_mlp((3, 5, 1), "relu", "identity", seed=10)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_zero_biases(self):
        mlp = init_mlp((3, 5, 1), "tanh", "identity", seed=0)
        for b in mlp.biases:
            assert np.all(b == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            init_mlp((4,), "tanh", "identity", seed=0)
        with pytest.raises(ValueError):
            init_mlp((4, 2), "sigmoid", "identity", seed=0)
        with pytest.raises(ValueError):
            init_mlp((4, 2), "tanh", "cube", seed=0)
        with pytest.raises(ValueError):
            Mlp((2, 2), [np.zeros((2, 3))], [np.zeros(2)], "tanh", "identity")


class TestForward:
    def test_single_layer_is_affine(self):
        mlp = init_mlp((2, 3), "tanh", "identity", seed=1)
        x = np.array([0.3, -1.2])
        np.testing.assert_allclose(forward(mlp, x),
                                   x @ mlp.weights[0] + mlp.biases[0])

    def test_vector_matches_batch_row(self):
        mlp = init_mlp((5, 4, 2), "tanh", "identity", seed=2)
        batch = np.random.default_rng(0).normal(size=(6, 5))
        rows = forward(mlp, batch)
        # batched and single-row matmuls may take different BLAS paths
        for i in range(6):
            np.testing.assert_allclose(forward(mlp, batch[i]), rows[i],
                                       rtol=1e-13, atol=1e-15)

    def test_square_output_squares_identity(self):
        ident = init_mlp((3, 4, 2), "tanh", "identity", seed=3)
        squared = Mlp(ident.sizes, ident.weights, ident.biases, "tanh", "square")
        x = np.array([0.1, 0.5, -0.4])
        np.testing.assert_allclose(forward(squared, x), forward(ident, x) ** 2)

    def test_trace_endpoints(self):
        mlp = init_mlp((3, 4, 2), "relu", "identity", seed=4)
        batch = np.random.default_rng(1).normal(size=(5, 3))
        pre, act = forward_trace(mlp, batch)
        np.testing.assert_array_equal(act[0], batch)
        np.testing.assert_array_equal(act[-1], forward(mlp, batch))
        assert len(pre) == 2 and len(act) == 3

    def test_input_shape_validation(self):
        mlp = init_mlp((3, 2), "tanh", "identity", seed=0)
        with pytest.raises(ValueError):
            forward(mlp, np.zeros(4))
        with pytest.raises(ValueError):
            forward(mlp, np.zeros((2, 4)))


class TestBackward:
    def test_gradients_match_finite_differences(self):
        """Central differences at step 1e-5 on a tanh (10, 8, 3) network
        must agree with backpropagation to 1e-5 relative."""
        rng = np.random.default_rng(42)
        mlp = init_mlp((10, 8, 3), "tanh", "identity", seed=42)
        x = rng.normal(size=10)
        coeff = rng.normal(size=3)
        assert _fd_check(mlp, x, coeff) < FD_RTOL

    def test_square_output_gradients(self):
        rng = np.random.default_rng(7)
        mlp = init_mlp((6, 5, 2), "tanh", "square", seed=7)
        x = rng.normal(size=6)
        coeff = rng.normal(size=2)
        assert _fd_check(mlp, x, coeff) < FD_RTOL

    def test_relu_batch_gradients(self):
        rng = np.random.default_rng(8)
        mlp = init_mlp((4, 6, 2), "relu", "identity", seed=8)
        # keep preactivations away from the relu kink
        x = rng.normal(size=(3, 4)) + 3.0
        coeff = rng.normal(size=(3, 2))
        assert _fd_check(mlp, x, coeff) < FD_RTOL

    def test_relu_in_linear_region_matches_linear_network(self):
        # With all hidden preactivations positive the network is affine
        # and the weight gradient is the plain outer-product formula.
        mlp = init_mlp((3, 5, 1), "relu", "identity", seed=11)
        mlp.biases[0][:] = 10.0
        x = np.array([0.2, 0.1, 0.3])
        coeff = np.array([1.0])
        wg, bg, xg = backward(mlp, x, coeff)
        np.testing.assert_allclose(xg, mlp.weights[0] @ mlp.weights[1][:, 0])
        np.testing.assert_allclose(wg[1][:, 0], mlp.biases[0] + x @ mlp.weights[0])

    def test_batch_gradient_is_row_sum(self):
        mlp = init_mlp((4, 3, 2), "tanh", "identity", seed=12)
        rng = np.random.default_rng(12)
        batch = rng.normal(size=(5, 4))
        coeff = rng.normal(size=(5, 2))
        wg, bg, _ = backward(mlp, batch, coeff)
        sum_wg = None
        for i in range(5):
            row_wg, row_bg, _ = backward(mlp, batch[i], coeff[i])
            if sum_wg is None:
                sum_wg, sum_bg = row_wg, row_bg
            else:
                sum_wg = [a + b for a, b in zip(sum_wg, row_wg)]
                sum_bg = [a + b for a, b in zip(sum_bg, row_bg)]
        for got, want in zip(wg + bg, sum_wg + sum_bg):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_trace_reuse_is_exact(self):
        mlp = init_mlp((4, 3, 2), "tanh", "square", seed=13)
        batch = np.random.default_rng(13).normal(size=(3, 4))
        coeff = np.ones((3, 2))
        trace = forward_trace(mlp, batch)
        direct = backward(mlp, batch, coeff)
        cached = backward(mlp, batch, coeff, trace=trace)
        for a, b in zip(direct[0] + direct[1], cached[0] + cached[1]):
            np.testing.assert_array_equal(a, b)

    def test_skipping_the_input_gradient_keeps_parameter_gradients(self):
        mlp = init_mlp((4, 3, 3, 2), "tanh", "square", seed=14)
        batch = np.random.default_rng(14).normal(size=(5, 4))
        coeff = np.random.default_rng(15).normal(size=(5, 2))
        full = backward(mlp, batch, coeff)
        wg, bg, xg = backward(mlp, batch, coeff, input_grad=False)
        assert xg is None and full[2].shape == (5, 4)
        for a, b in zip(full[0] + full[1], wg + bg):
            np.testing.assert_array_equal(a, b)
        grads = parameter_grads(mlp, batch, coeff)
        assert [g.shape for g in grads] == [p.shape for p in parameters(mlp)]
        for a, b in zip(grads, [g for pair in zip(wg, bg) for g in pair]):
            np.testing.assert_array_equal(a, b)

    def test_upstream_shape_validation(self):
        mlp = init_mlp((3, 2), "tanh", "identity", seed=0)
        with pytest.raises(ValueError, match="upstream"):
            backward(mlp, np.zeros(3), np.zeros(3))


class TestSchedule:
    def test_cosine_endpoints_and_midpoint(self):
        sched = LrSchedule(1e-3, 1e-5, 100)
        assert lr_at(sched, 0) == pytest.approx(1e-3)
        assert lr_at(sched, 100) == pytest.approx(1e-5, abs=1e-18)
        assert lr_at(sched, 50) == pytest.approx((1e-3 + 1e-5) / 2.0)

    def test_monotone_decrease(self):
        sched = LrSchedule(1.0, 0.1, 64)
        values = [lr_at(sched, s) for s in range(65)]
        assert np.all(np.diff(values) < 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LrSchedule(0.1, 1.0, 10)
        for bad in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"lr_start must be positive "
                                                 f"and finite, got {bad}"):
                LrSchedule(bad, 1e-5, 10)
            with pytest.raises(ValueError, match=f"lr_end must be positive "
                                                 f"and finite, got {bad}"):
                LrSchedule(1e-3, bad, 10)
        with pytest.raises(ValueError):
            LrSchedule(1.0, 0.1, 0)
        with pytest.raises(ValueError):
            lr_at(LrSchedule(1.0, 0.1, 10), 11)


class TestAdam:
    def test_zero_gradient_zero_decay_is_identity(self):
        params = [np.array([1.0, -2.0]), np.array([[3.0]])]
        state = make_adam(params, 1e-2)
        before = copy.deepcopy(params)
        adam_step(state, params, [np.zeros(2), np.zeros((1, 1))])
        for p, q in zip(params, before):
            np.testing.assert_array_equal(p, q)

    def test_constant_gradient_step_approaches_lr(self):
        """With g identically 1 the update converges to lr/(1 + eps)."""
        params = [np.array([0.0])]
        state = make_adam(params, 1e-3)
        prev = params[0][0]
        for _ in range(5000):
            adam_step(state, params, [np.ones(1)])
        step = prev - params[0][0] + 5000 * 0.0
        last = params[0].copy()
        adam_step(state, params, [np.ones(1)])
        assert abs((last[0] - params[0][0]) - 1e-3) < 1e-6

    def test_decoupled_decay_shrinks_geometrically(self):
        # Zero gradients leave moments at zero, so only the decay factor
        # (1 - lr*wd) acts and the trajectory is exactly geometric.
        params = [np.array([2.0])]
        state = make_adam(params, 0.1, weight_decay=0.5)
        for _ in range(7):
            adam_step(state, params, [np.zeros(1)])
        assert params[0][0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.5) ** 7,
                                             rel=1e-13)

    def test_coupled_decay_differs(self):
        a = [np.array([2.0])]
        b = [np.array([2.0])]
        sa = make_adam(a, 0.1, weight_decay=0.5, decoupled=True)
        sb = make_adam(b, 0.1, weight_decay=0.5, decoupled=False)
        for _ in range(3):
            adam_step(sa, a, [np.zeros(1)])
            adam_step(sb, b, [np.zeros(1)])
        assert a[0][0] != b[0][0]

    def test_nonfinite_gradient_aborts_untouched(self):
        params = [np.array([1.0])]
        state = make_adam(params, 1e-2)
        adam_step(state, params, [np.ones(1)])
        saved_m = [m.copy() for m in state.m]
        saved_step = state.step
        saved_p = [p.copy() for p in params]
        with pytest.raises(ValueError, match="non-finite"):
            adam_step(state, params, [np.array([np.nan])])
        assert state.step == saved_step
        np.testing.assert_array_equal(state.m[0], saved_m[0])
        np.testing.assert_array_equal(params[0], saved_p[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_next_to_overflowing_sum_aborts_untouched(self, bad):
        """A non-finite entry is refused whether or not the gradient's sum
        overflows, and refused before either parameter's state moves."""
        params = [np.zeros(3), np.zeros(1)]
        state = make_adam(params, 1e-2)
        for grads in ([np.array([1e308, 1e308, bad]), np.ones(1)],
                      [np.ones(3), np.array([bad])]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="non-finite"):
                    adam_step(state, params, grads)
            assert state.step == 0
            for array in (*state.m, *state.v, *params):
                assert not array.any()

    def test_finite_gradient_whose_sum_overflows_is_applied(self):
        """[1e308, 1e308] sums to inf but every entry is finite: the step
        is taken.  Its squares overflow the second moment to inf, so that
        parameter holds still; the other one moves by lr."""
        params = [np.zeros(2), np.zeros(1)]
        state = make_adam(params, 1e-2)
        grad = np.array([1e308, 1e308])
        with np.errstate(over="ignore"):
            adam_step(state, params, [grad, np.ones(1)])
        assert state.step == 1
        np.testing.assert_array_equal(state.m[0], (1.0 - BETA1) * grad)
        assert np.all(np.isinf(state.v[0]))
        np.testing.assert_array_equal(params[0], np.zeros(2))
        np.testing.assert_allclose(params[1], [-1e-2], rtol=1e-6)

    def test_explicit_lr_overrides_base(self):
        a = [np.array([1.0])]
        b = [np.array([1.0])]
        sa = make_adam(a, 1e-2)
        sb = make_adam(b, 123.0)
        adam_step(sa, a, [np.ones(1)])
        adam_step(sb, b, [np.ones(1)], lr=1e-2)
        np.testing.assert_array_equal(a[0], b[0])

    @pytest.mark.parametrize("decoupled", [True, False])
    def test_row_blocks_match_whole_array_update(self, decoupled):
        """The update runs over row blocks; each element must see exactly
        the whole-array arithmetic, so the results are bitwise equal."""
        def reference_step(state, params, grads, lr):
            state.step += 1
            bc1 = 1.0 - 0.9 ** state.step
            bc2 = 1.0 - 0.999 ** state.step
            for p, g, m, v in zip(params, grads, state.m, state.v):
                if not state.decoupled:
                    g = g + state.weight_decay * p
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * np.square(g)
                denom = np.sqrt(v)
                denom *= 1.0 / np.sqrt(bc2)
                denom += 1e-8
                np.divide(m, denom, out=denom)
                if state.decoupled:
                    p *= 1.0 - lr * state.weight_decay
                denom *= lr / bc1
                p -= denom

        rng = np.random.default_rng(8)
        # Several blocks with a partial last one, a transposed (strided)
        # matrix, and a vector longer than one block.
        shapes = [(300, 250), (250, 300), (70_000,)]
        params = [rng.standard_normal(shape) for shape in shapes]
        params[1] = np.asarray(params[1].T.copy().T)
        expected = copy.deepcopy(params)
        state = make_adam(params, 1e-2, weight_decay=0.1, decoupled=decoupled)
        ref_state = copy.deepcopy(state)
        for step in range(4):
            grads = [rng.standard_normal(shape) for shape in shapes]
            adam_step(state, params, grads, lr=1e-2 / (step + 1))
            reference_step(ref_state, expected, grads, 1e-2 / (step + 1))
        for a, b in zip(params + state.m + state.v,
                        expected + ref_state.m + ref_state.v):
            np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_adam([np.zeros(1)], 0.0)
        with pytest.raises(ValueError):
            make_adam([np.zeros(1)], 1e-3, weight_decay=-1.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"learning rate must be "
                                                 f"positive and finite, got {bad}"):
                make_adam([np.zeros(1)], bad)
            with pytest.raises(ValueError, match=f"weight decay must be "
                                                 f"nonnegative and finite, got {bad}"):
                make_adam([np.zeros(1)], 1e-3, weight_decay=bad)
        state = make_adam([np.zeros(1)], 1e-3)
        with pytest.raises(ValueError):
            adam_step(state, [np.zeros(1), np.zeros(1)], [np.zeros(1)])


class TestSerialization:
    def test_bytes_round_trip(self, open_blob):
        mlp = init_mlp((5, 7, 7, 2), "relu", "square", seed=21)
        blob = b"".join(mlp_to_bytes(mlp))
        reader = archive.Reader(open_blob(blob))
        back = read_mlp(reader)
        assert reader.offset == len(blob)
        assert back.sizes == mlp.sizes
        assert back.activation == "relu" and back.output == "square"
        for a, b in zip(parameters(mlp), parameters(back)):
            np.testing.assert_array_equal(a, b)

    def test_embedded_blob_offset(self, open_blob):
        mlp = init_mlp((3, 2), "tanh", "identity", seed=5)
        blob = b"".join([b"HEAD", *mlp_to_bytes(mlp), b"TAIL"])
        reader = archive.Reader(open_blob(blob))
        reader.magic(b"HEAD")
        back = read_mlp(reader)
        assert blob[reader.offset:] == b"TAIL"
        np.testing.assert_array_equal(back.weights[0], mlp.weights[0])

    def test_file_round_trip(self, tmp_path):
        # The network travels as the tail of an archive, as in RDON and NNET.
        mlp = init_mlp((4, 3, 1), "tanh", "identity", seed=6)
        path = tmp_path / "net.bin"
        archive.write(path, b"TEST", "I", (7,), tail=mlp_to_bytes(mlp))
        with archive.read(path, b"TEST") as reader:
            assert reader.header("I") == (7,)
            back = read_mlp(reader)
        for a, b in zip(parameters(mlp), parameters(back)):
            np.testing.assert_array_equal(a, b)

    def test_bad_magic_and_trailing_bytes(self, tmp_path, open_blob):
        mlp = init_mlp((3, 2), "tanh", "identity", seed=0)
        with pytest.raises(ValueError, match="magic"):
            read_mlp(archive.Reader(
                open_blob(b"XXXX" + b"".join(mlp_to_bytes(mlp))[4:])))
        path = tmp_path / "bad.bin"
        path.write_bytes(b"".join([b"TEST", *mlp_to_bytes(mlp), b"junk"]))
        with pytest.raises(ValueError, match="bad.bin: 4 trailing bytes"):
            with archive.read(path, b"TEST") as reader:
                read_mlp(reader)
