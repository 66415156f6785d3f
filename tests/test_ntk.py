"""Tangent-kernel assembly against brute force, plus the spectrum bounds."""

import numpy as np
import pytest

from lsmnet import nn
from lsmnet.deeponet import make_trunk, trunk_eval
from lsmnet.ntk import (
    GRAM_GUARD,
    NtkReport,
    branch_ntk,
    condition_sweep,
    deeponet_ntk,
    report_summary,
    trunk_gram,
    verify_spectrum_bounds,
    write_spectrum_csv,
    write_summary_txt,
)


def _brute_gram(branch, inputs):
    """Flattened-Jacobian reference: rows are full parameter gradients."""
    count, outputs = inputs.shape[0], branch.sizes[-1]
    rows = []
    for i in range(count):
        for o in range(outputs):
            one_hot = np.zeros(outputs)
            one_hot[o] = 1.0
            wg, bg, _ = nn.backward(branch, inputs[i], one_hot)
            rows.append(np.concatenate(
                [np.ravel(g) for pair in zip(wg, bg) for g in pair]))
    jac = np.stack(rows)
    return jac @ jac.T


class TestBranchKernel:
    def test_matches_flattened_jacobians(self):
        branch = nn.init_mlp((6, 5, 4), "tanh", "identity", seed=0)
        inputs = np.random.default_rng(1).normal(size=(3, 6))
        fast = branch_ntk(branch, inputs)
        brute = _brute_gram(branch, inputs)
        scale = np.max(np.abs(brute))
        assert np.max(np.abs(fast - brute)) <= 1e-10 * scale

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_matches_flattened_jacobians_through_hidden_layers(
            self, activation):
        """Three hidden layers carry the Jacobian through every slope."""
        branch = nn.init_mlp((6, 7, 5, 6, 4), activation, "identity", seed=14)
        inputs = np.random.default_rng(15).normal(size=(4, 6))
        fast = branch_ntk(branch, inputs)
        brute = _brute_gram(branch, inputs)
        scale = np.max(np.abs(brute))
        assert np.max(np.abs(fast - brute)) <= 1e-10 * scale

    def test_single_affine_layer_closed_form(self):
        """One affine layer has gradient x (x) e_o plus the bias e_o, so
        the kernel is exactly (x_i . x_j + 1) on the block diagonal."""
        branch = nn.init_mlp((3, 4), "tanh", "identity", seed=2)
        inputs = np.random.default_rng(3).normal(size=(2, 3))
        gram = branch_ntk(branch, inputs)
        eye = np.eye(4)
        for i in range(2):
            for j in range(2):
                want = (inputs[i] @ inputs[j] + 1.0) * eye
                block = gram[i * 4:(i + 1) * 4, j * 4:(j + 1) * 4]
                np.testing.assert_array_equal(block, want)

    def test_duplicated_inputs_share_blocks(self):
        branch = nn.init_mlp((5, 4, 3), "relu", "identity", seed=4)
        row = np.random.default_rng(5).normal(size=5)
        gram = branch_ntk(branch, np.stack([row, row]))
        p = 3
        diag = gram[:p, :p]
        np.testing.assert_array_equal(gram[p:, p:], diag)
        np.testing.assert_array_equal(gram[:p, p:], diag)

    def test_symmetric_and_positive_semidefinite(self):
        branch = nn.init_mlp((4, 6, 3), "tanh", "identity", seed=6)
        inputs = np.random.default_rng(7).normal(size=(4, 4))
        gram = branch_ntk(branch, inputs)
        np.testing.assert_array_equal(gram, gram.T)
        eig = np.linalg.eigvalsh(gram)
        assert eig[0] >= -1e-10 * eig[-1]

    def test_requires_identity_output(self):
        squared = nn.init_mlp((4, 6, 3), "tanh", "square", seed=0)
        with pytest.raises(ValueError, match="identity output"):
            branch_ntk(squared, np.zeros((1, 4)))

    def test_size_guard(self):
        wide = nn.init_mlp((3, GRAM_GUARD + 1), "tanh", "identity", seed=0)
        with pytest.raises(ValueError, match="cap"):
            branch_ntk(wide, np.zeros((1, 3)))

    def test_input_width_validation(self):
        branch = nn.init_mlp((4, 2), "tanh", "identity", seed=0)
        with pytest.raises(ValueError):
            branch_ntk(branch, np.zeros((1, 5)))


class TestCompositeKernel:
    def test_congruence_matches_kronecker_form(self):
        trunk = make_trunk(1.0, 1.0, 1.0, 0.3)  # p = 9
        branch = nn.init_mlp((6, 7, trunk.p_h), "tanh", "identity", seed=8)
        inputs = np.random.default_rng(9).normal(size=(2, 6))
        kernel = deeponet_ntk(trunk, branch, inputs)
        gram = branch_ntk(branch, inputs)
        p_matrix = np.kron(np.eye(2), trunk_gram(trunk))
        want = p_matrix.T @ gram @ p_matrix
        scale = np.max(np.abs(want))
        assert np.max(np.abs(kernel - want)) <= 1e-12 * scale

    def test_gram_width_validation(self):
        trunk = make_trunk(1.0, 1.0, 1.0, 0.3)  # p = 9
        branch = nn.init_mlp((6, 7, 4), "tanh", "identity", seed=8)
        with pytest.raises(ValueError, match="output width"):
            deeponet_ntk(trunk, branch, np.zeros((1, 6)))


class TestTrunkGram:
    def test_matches_center_evaluations(self):
        trunk = make_trunk(1.0, 2.0, 0.5, 0.15)
        gram = trunk_gram(trunk)
        np.testing.assert_array_equal(gram, trunk_eval(trunk, trunk.centers))
        np.testing.assert_array_equal(np.diag(gram), np.ones(trunk.p_h))
        np.testing.assert_array_equal(gram, gram.T)


class TestSpectrumBounds:
    def test_composite_kernel_sits_in_the_band(self):
        trunk = make_trunk(1.0, 1.0, 0.5, 0.15)  # p = 25
        branch = nn.init_mlp((8, 10, trunk.p_h), "tanh", "identity", seed=11)
        inputs = np.random.default_rng(12).normal(size=(1, 8))
        gram = branch_ntk(branch, inputs)
        kernel = deeponet_ntk(trunk, branch, inputs)
        report = verify_spectrum_bounds(kernel, gram, trunk_gram(trunk))
        assert report.bound_lower_ok and report.bound_upper_ok
        assert report.cond_kernel >= 1.0

    def test_randomized_congruences(self):
        """lambda_min(G) sigma_min(P)^2 <= lambda(P^T G P) <= the upper
        analogue, for 100 random positive semidefinite factors."""
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = int(rng.integers(2, 9))
            a = rng.normal(size=(p + 2, p))
            gram = a.T @ a
            p_matrix = rng.normal(size=(p, p))
            kernel = p_matrix.T @ gram @ p_matrix
            report = verify_spectrum_bounds(kernel, gram, p_matrix)
            assert report.bound_lower_ok and report.bound_upper_ok

    def test_asymmetry_is_rejected(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="asymmetry"):
            verify_spectrum_bounds(bad, np.eye(2), np.eye(2))

    def test_violated_bound_is_reported_not_raised(self):
        # A kernel that cannot come from these factors: eigenvalue far
        # above the band.
        report = verify_spectrum_bounds(100.0 * np.eye(2), np.eye(2), np.eye(2))
        assert not report.bound_upper_ok
        assert report.bound_lower_ok

    def test_report_validation(self):
        with pytest.raises(ValueError, match="condition"):
            NtkReport(np.ones(2), np.ones(2), np.ones(2),
                      0.5, 1.0, 1.0, True, True)
        with pytest.raises(ValueError, match="flat"):
            NtkReport(np.ones((2, 2)), np.ones(2), np.ones(2),
                      1.0, 1.0, 1.0, True, True)


class TestConditionSweep:
    def test_overlap_drives_conditioning(self):
        trunk = make_trunk(1.0, 1.0, 0.5, 0.15)
        rows = condition_sweep(trunk, (0.05, 0.15, 0.4, 0.8))
        kappas = [row[2] for row in rows]
        assert all(b > a for a, b in zip(kappas, kappas[1:]))
        assert kappas[-1] > 1e3

    def test_tiny_overlap_approaches_identity(self):
        trunk = make_trunk(1.0, 1.0, 0.5, 0.15)
        (_, epsilon, kappa), = condition_sweep(trunk, (0.01,))
        assert abs(kappa - 1.0) < 0.1
        assert epsilon == pytest.approx(-np.log(0.01) / 0.25)

    def test_decreasing_sequence_raises(self):
        trunk = make_trunk(1.0, 1.0, 0.5, 0.15)
        with pytest.raises(ArithmeticError, match="failed to increase") as info:
            condition_sweep(trunk, (0.8, 0.15))
        assert "round-off" not in str(info.value)  # both kappas resolve

    def test_unresolved_sweep_names_round_off(self):
        # Every kappa here is past 1/eps ~ 4.5e15, so the first drop (at
        # s = 0.9945 with OpenBLAS) is round-off, not a broken dial.
        trunk = make_trunk(1.0, 1.0, 0.5, 0.5)
        with pytest.raises(ArithmeticError, match=r"failed to increase at s=.*"
                                                  r"beyond double precision's resolution"):
            condition_sweep(trunk, np.linspace(0.993, 0.999, 13))

    def test_range_validation(self):
        trunk = make_trunk(1.0, 1.0, 0.5, 0.15)
        with pytest.raises(ValueError):
            condition_sweep(trunk, (0.5, 1.0))


class TestWriters:
    def _report(self):
        gram = np.diag([1.0, 2.0])
        return verify_spectrum_bounds(gram, gram, np.eye(2),
                                      config={"s": 0.15, "batch": 1})

    def test_spectrum_csv(self, tmp_path):
        report = self._report()
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "matrix,index,value"
        assert len(lines) == 1 + 2 + 2 + 2
        assert lines[1].startswith("kernel_eig,0,")
        assert lines[-1].startswith("trunk_sv,1,")

    def test_summary_text(self, tmp_path):
        report = self._report()
        text = report_summary(report)
        assert "cond_kernel = " in text
        assert "lower_bound = ok" in text
        assert "s = 0.15" in text
        path = tmp_path / "sum.txt"
        write_summary_txt(path, report)
        assert path.read_text() == text
