import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgrkit.errors import AllMasked, BatchTooSmall, CheckpointError, ShapeMismatch
from fgrkit.nn import (
    Batch,
    ModelHyper,
    ModelState,
    compute_gradients,
    focal_reconstruction_loss,
    forward_decoder,
    forward_encoder,
    init_model,
    load_checkpoint,
    predict_head,
    sam_step,
    save_checkpoint,
    sgd_step,
    sigmoid,
    supervised_loss,
    total_loss,
    ubc_loss,
)

from helpers import random_model_case as random_case
from oracles import finite_difference_gradients


def small_hyper(**kw) -> ModelHyper:
    base = dict(l=4, tied=True, alpha_t=0.25, gamma=2.0, alpha=0.1, beta=0.01,
                task="classification", use_descriptors=False, descriptor_dim=0)
    base.update(kw)
    return ModelHyper(**base)


class TestForward:
    def test_encoder_identity(self):
        hyper = small_hyper(l=5)
        state = init_model(5, 1, hyper, seed=0)
        state.W_e[:] = np.eye(5)
        state.b_e[:] = 0
        X = np.random.default_rng(0).integers(0, 2, (4, 5)).astype(float)
        assert np.array_equal(forward_encoder(X, state), X)

    def test_encoder_bias_only(self):
        state = init_model(3, 1, small_hyper(l=2), seed=0)
        state.W_e[:] = 0
        state.b_e[:] = [1.5, -2.0]
        Z = forward_encoder(np.ones((3, 3)), state)
        assert np.allclose(Z, [[1.5, -2.0]] * 3, atol=0)

    def test_encoder_matches_matmul_oracle(self):
        rng = np.random.default_rng(7)
        state = init_model(5, 1, small_hyper(l=3), seed=7)
        X = rng.normal(0, 1, (3, 5))
        want = np.array([[sum(state.W_e[j, i] * X[r, i] for i in range(5))
                          + state.b_e[j] for j in range(3)] for r in range(3)])
        assert np.max(np.abs(forward_encoder(X, state) - want)) < 1e-12

    def test_decoder_zero_gives_half(self):
        state = init_model(4, 1, small_hyper(l=2), seed=1)
        state.b_d[:] = 0
        out = forward_decoder(np.zeros((3, 2)), state)
        assert np.allclose(out, 0.5, atol=0)

    def test_tied_mode_stores_no_decoder_weight(self):
        state = init_model(4, 1, small_hyper(tied=True), seed=2)
        assert state.W_d is None
        Z = np.random.default_rng(2).normal(0, 1, (3, state.hyper.l))
        want = sigmoid(Z @ state.W_e + state.b_d)
        assert np.array_equal(forward_decoder(Z, state), want)
        before = forward_decoder(Z, state)
        state.W_e[0, 0] += 1.0
        assert not np.array_equal(forward_decoder(Z, state), before)

    def test_decoder_matches_oracle(self):
        rng = np.random.default_rng(9)
        state = init_model(4, 1, small_hyper(l=3, tied=False), seed=9)
        Z = rng.normal(0, 1, (2, 3))
        lin = Z @ state.W_d.T + state.b_d
        want = 1.0 / (1.0 + np.exp(-lin))
        assert np.max(np.abs(forward_decoder(Z, state) - want)) < 1e-12

    def test_shape_errors(self):
        state = init_model(4, 1, small_hyper(), seed=0)
        with pytest.raises(ShapeMismatch):
            forward_encoder(np.zeros((2, 5)), state)
        with pytest.raises(ShapeMismatch):
            forward_decoder(np.zeros((2, 3)), state)


class TestFocalLoss:
    def test_perfect_reconstruction_limit(self):
        X = np.array([[1.0, 0.0, 1.0]])
        Xhat = np.array([[1 - 1e-9, 1e-9, 1 - 1e-9]])
        assert focal_reconstruction_loss(X, Xhat, 1.0, 2.0) < 1e-12

    def test_gamma_zero_is_bce(self):
        rng = np.random.default_rng(3)
        X = rng.integers(0, 2, (5, 7)).astype(float)
        Xhat = rng.uniform(0.05, 0.95, (5, 7))
        got = focal_reconstruction_loss(X, Xhat, 1.0, 0.0)
        bce = -np.sum(X * np.log(Xhat) + (1 - X) * np.log(1 - Xhat), axis=1)
        assert abs(got - bce.mean()) < 1e-12

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_gamma_zero_is_bce_property(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 2, (3, 5)).astype(float)
        Xhat = rng.uniform(0.01, 0.99, (3, 5))
        got = focal_reconstruction_loss(X, Xhat, 1.0, 0.0)
        bce = -np.sum(X * np.log(Xhat) + (1 - X) * np.log(1 - Xhat), axis=1)
        assert abs(got - bce.mean()) < 1e-12

    def test_hand_computed_single_bit(self):
        X = np.array([[1.0]])
        Xhat = np.array([[0.9]])
        bce = -math.log(0.9)
        want = 1.0 * (1 - 0.9) ** 2 * bce
        got = focal_reconstruction_loss(X, Xhat, 1.0, 2.0)
        assert abs(got - want) < 1e-12
        assert abs(got - 0.00105361) < 1e-8

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            X = rng.integers(0, 2, (4, 6)).astype(float)
            Xhat = rng.uniform(0, 1, (4, 6))
            assert focal_reconstruction_loss(X, Xhat, 0.25, 2.0) >= 0.0


class TestUBCLoss:
    def test_single_active_dimension_zero(self):
        rng = np.random.default_rng(5)
        Z = np.zeros((6, 4))
        Z[:, 2] = rng.normal(0, 1, 6)
        assert ubc_loss(Z) < 1e-24

    def test_perfectly_correlated_unit_variance(self):
        rng = np.random.default_rng(6)
        col = rng.normal(0, 1, 8)
        col = (col - col.mean()) / col.std(ddof=1)
        l = 5
        Z = np.tile(col[:, None], (1, l))
        assert abs(ubc_loss(Z) - l * (l - 1)) < 1e-9

    def test_translation_invariance(self):
        rng = np.random.default_rng(8)
        Z = rng.normal(0, 1, (7, 3))
        shift = rng.normal(0, 10, 3)
        assert abs(ubc_loss(Z) - ubc_loss(Z + shift)) < 1e-9

    def test_nonnegative_and_batch_too_small(self):
        rng = np.random.default_rng(10)
        assert ubc_loss(rng.normal(0, 1, (5, 3))) >= 0.0
        with pytest.raises(BatchTooSmall):
            ubc_loss(rng.normal(0, 1, (1, 3)))


class TestHeadAndSupervised:
    def test_classification_zero_weights_half(self):
        state = init_model(4, 2, small_hyper(), seed=0)
        state.W_f[:] = 0
        state.b_f[:] = 0
        out = predict_head(np.random.default_rng(0).normal(0, 1, (3, 4)), None, state)
        assert np.allclose(out, 0.5, atol=0)

    def test_regression_constant_bias(self):
        state = init_model(4, 1, small_hyper(task="regression"), seed=0)
        state.W_f[:] = 0
        state.b_f[:] = 2.5
        out = predict_head(np.zeros((3, 4)), None, state)
        assert np.allclose(out, 2.5, atol=0)

    def test_descriptor_concatenation_shapes(self):
        hyper = small_hyper(use_descriptors=True, descriptor_dim=3)
        state = init_model(4, 1, hyper, seed=0)
        assert state.W_f.shape == (1, hyper.l + 3)
        Z = np.zeros((2, hyper.l))
        with pytest.raises(ShapeMismatch):
            predict_head(Z, None, state)
        out = predict_head(Z, np.zeros((2, 3)), state)
        assert out.shape == (2, 1)

    def test_classification_outputs_strictly_inside_unit_interval(self):
        state = init_model(6, 2, small_hyper(), seed=4)
        X = np.random.default_rng(4).integers(0, 2, (5, 6)).astype(float)
        out = predict_head(forward_encoder(X, state), None, state)
        assert np.all(out > 0) and np.all(out < 1)

    def test_smooth_l1_values(self):
        y = np.zeros((1, 1))
        m = np.ones((1, 1))
        assert abs(supervised_loss(np.array([[0.5]]), y, m, "regression") - 0.125) < 1e-12
        assert abs(supervised_loss(np.array([[2.0]]), y, m, "regression") - 1.5) < 1e-12

    def test_perfect_classification_near_zero(self):
        y = np.array([[1.0, 0.0]])
        m = np.ones((1, 2))
        got = supervised_loss(np.array([[1.0, 0.0]]), y, m, "classification")
        assert got < 1e-5

    def test_all_masked_raises(self):
        with pytest.raises(AllMasked):
            supervised_loss(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 1)),
                            "classification")

    def test_mask_excludes_entries(self):
        y = np.array([[0.0, 1.0]])
        m = np.array([[1.0, 0.0]])
        got = supervised_loss(np.array([[0.0, 0.123]]), y, m, "regression")
        assert abs(got - 0.0) < 1e-12


class TestTotalLoss:
    def test_alpha_beta_zero_reduces_to_supervised(self):
        state, batch = random_case(12)
        state = ModelState(hyper=small_hyper(l=state.hyper.l, alpha=0.0, beta=0.0,
                                             task=state.hyper.task,
                                             tied=state.hyper.tied,
                                             use_descriptors=state.hyper.use_descriptors,
                                             descriptor_dim=state.hyper.descriptor_dim),
                           p=state.p, k=state.k, W_e=state.W_e, b_e=state.b_e,
                           W_d=state.W_d, b_d=state.b_d, W_f=state.W_f, b_f=state.b_f)
        l_t, parts = total_loss(batch, state)
        assert abs(l_t - parts["L_e"]) < 1e-15

    def test_components_recombine(self):
        for seed in range(6):
            state, batch = random_case(seed)
            l_t, parts = total_loss(batch, state)
            recombined = (parts["L_e"] + state.hyper.alpha * parts["L_r"]
                          + state.hyper.beta * parts["L_ubc"])
            assert abs(l_t - recombined) < 1e-12

    def test_fully_masked_batch_supported(self):
        state, batch = random_case(4)
        batch.M[:] = 0.0
        l_t, parts = total_loss(batch, state)
        assert parts["L_e"] == 0.0
        assert np.isfinite(l_t)


class TestGradients:
    @staticmethod
    def _max_rel_error(state, batch):
        grads = compute_gradients(batch, state)
        params = state.params()

        def loss():
            return total_loss(batch, state)[0]

        fd = finite_difference_gradients(loss, params, h=1e-5)
        worst = 0.0
        for name in params:
            denom = np.maximum(np.abs(fd[name]), 1e-4)
            worst = max(worst, float(np.max(np.abs(grads[name] - fd[name]) / denom)))
        return worst

    @pytest.mark.parametrize("seed", list(range(12)))
    def test_matches_finite_differences(self, seed):
        state, batch = random_case(seed)
        assert self._max_rel_error(state, batch) < 1e-5

    def test_tied_equals_untied_plus_transpose(self):
        rng = np.random.default_rng(33)
        hyper_untied = small_hyper(l=3, tied=False)
        state_u = init_model(6, 2, hyper_untied, seed=33)
        state_u.W_d[:] = state_u.W_e.T
        X = rng.integers(0, 2, (4, 6)).astype(float)
        Y = rng.integers(0, 2, (4, 2)).astype(float)
        M = np.ones((4, 2))
        batch = Batch(X=X, Y=Y, M=M)
        g_untied = compute_gradients(batch, state_u)
        state_t = ModelState(hyper=small_hyper(l=3, tied=True), p=6, k=2,
                             W_e=state_u.W_e, b_e=state_u.b_e, b_d=state_u.b_d,
                             W_f=state_u.W_f, b_f=state_u.b_f)
        g_tied = compute_gradients(batch, state_t)
        assert np.allclose(g_tied["W_e"], g_untied["W_e"] + g_untied["W_d"].T,
                           atol=1e-12)

    def test_fully_masked_gradients_finite(self):
        state, batch = random_case(6)
        batch.M[:] = 0.0
        grads = compute_gradients(batch, state)
        assert all(np.all(np.isfinite(g)) for g in grads.values())


class TestOptimizers:
    def test_plain_sgd(self):
        state, batch = random_case(2)
        grads = compute_gradients(batch, state)
        new = sgd_step(state, grads, lr=0.1, momentum=0.0)
        for name, theta in state.params().items():
            assert np.allclose(new.params()[name], theta - 0.1 * grads[name], atol=0)

    def test_zero_gradient_leaves_params(self):
        state, _ = random_case(3)
        zeros = {n: np.zeros_like(v) for n, v in state.params().items()}
        new = sgd_step(state, zeros, lr=0.5, momentum=0.9, velocities={})
        for name, theta in state.params().items():
            assert np.array_equal(new.params()[name], theta)

    def test_two_step_momentum_recurrence(self):
        state, batch = random_case(5)
        g1 = compute_gradients(batch, state)
        vel: dict = {}
        s1 = sgd_step(state, g1, lr=0.1, momentum=0.9, velocities=vel)
        g2 = compute_gradients(batch, s1)
        s2 = sgd_step(s1, g2, lr=0.1, momentum=0.9, velocities=vel)
        for name in state.params():
            v1 = g1[name]
            v2 = 0.9 * v1 + g2[name]
            want = state.params()[name] - 0.1 * v1 - 0.1 * v2
            assert np.allclose(s2.params()[name], want, atol=1e-15)

    def test_sam_rho_zero_bitwise_equals_sgd(self):
        state, batch = random_case(7)
        grads = compute_gradients(batch, state)
        a = sgd_step(state, grads, lr=0.05, momentum=0.9, velocities={})
        b = sam_step(state, batch, lr=0.05, rho=0.0, momentum=0.9, velocities={})
        for name in state.params():
            assert np.array_equal(a.params()[name], b.params()[name])
            assert a.params()[name].tobytes() == b.params()[name].tobytes()

    def test_sam_quadratic_hand_trace(self):
        # loss reduces to 0.5 * b_f^2: X = 0, W_f = 0, b_e = 0, alpha = beta = 0
        hyper = small_hyper(task="regression", alpha=0.0, beta=0.0, l=2)
        state = init_model(3, 1, hyper, seed=0)
        state.W_f[:] = 0.0
        state.b_e[:] = 0.0
        state.b_f[:] = 0.6
        batch = Batch(X=np.zeros((2, 3)), Y=np.zeros((2, 1)), M=np.ones((2, 1)))
        rho, lr = 0.05, 0.1
        theta = 0.6
        perturbed = theta + rho * 1.0  # g/|g| = sign(theta)
        want = theta - lr * perturbed
        new = sam_step(state, batch, lr=lr, rho=rho)
        assert abs(float(new.b_f[0]) - want) < 1e-12

    def test_sam_zero_gradient_fallback(self):
        hyper = small_hyper(task="regression", alpha=0.0, beta=0.0)
        state = init_model(3, 1, hyper, seed=1)
        state.W_f[:] = 0.0
        state.b_f[:] = 0.0
        state.b_e[:] = 0.0
        batch = Batch(X=np.zeros((2, 3)), Y=np.zeros((2, 1)), M=np.ones((2, 1)))
        new = sam_step(state, batch, lr=0.1, rho=0.05)
        assert float(new.b_f[0]) == 0.0


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        state, _ = random_case(9)
        state.fingerprints = {"fg": "abc", "mfg": "def"}
        p = tmp_path / "model.ckpt"
        save_checkpoint(state, p, seed=9, epoch=3, config_echo={"note": 1})
        loaded, header = load_checkpoint(p)
        assert header["epoch"] == 3 and header["seed"] == 9
        assert loaded.hyper == state.hyper
        for name in state.param_names():
            assert np.array_equal(loaded.params()[name], state.params()[name])

    def test_fingerprint_mismatch_refused(self, tmp_path):
        from fgrkit.errors import VocabMismatch
        state, _ = random_case(9)
        state.fingerprints = {"fg": "abc"}
        p = tmp_path / "model.ckpt"
        save_checkpoint(state, p)
        with pytest.raises(VocabMismatch):
            load_checkpoint(p, expected_fingerprints={"fg": "other"})

    def test_bytes_deterministic(self, tmp_path):
        state, _ = random_case(10)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(state, p1, seed=1, epoch=2)
        save_checkpoint(state, p2, seed=1, epoch=2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCheckpointMalformed:
    @pytest.fixture
    def parts(self, tmp_path):
        """(path, magic line, header dict, payload) of a saved checkpoint."""
        state, _ = random_case(11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        return path, magic + b"\n", json.loads(header), payload

    @staticmethod
    def write(path, magic, header, payload):
        path.write_bytes(magic + json.dumps(header).encode() + b"\n" + payload)

    def test_intact_file_loads(self, parts):
        self.write(*parts)
        load_checkpoint(parts[0])

    def test_truncated_payload(self, parts):
        path, magic, header, payload = parts
        self.write(path, magic, header, payload[:-1])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_trailing_bytes(self, parts):
        path, magic, header, payload = parts
        self.write(path, magic, header, payload + b"\0")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_non_json_header(self, parts):
        path, magic, _, payload = parts
        path.write_bytes(magic + b"{hyper: 1\n" + payload)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_header_key(self, parts):
        path, magic, header, payload = parts
        del header["params"]
        self.write(path, magic, header, payload)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_unknown_hyper_key(self, parts):
        path, magic, header, payload = parts
        header["hyper"]["width"] = 3
        self.write(path, magic, header, payload)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_one_refused(self, parts):
        path, _, header, payload = parts
        self.write(path, b"fgr-ckpt v1\n", header, payload)
        with pytest.raises(CheckpointError, match="fgr-ckpt v1"):
            load_checkpoint(path)

    def test_transposed_weight_shape(self, parts):
        path, magic, header, payload = parts
        block = header["params"][0]
        assert block["name"] == "W_e" and block["shape"][0] != block["shape"][1]
        block["shape"].reverse()
        self.write(path, magic, header, payload)
        with pytest.raises(CheckpointError, match="disagree"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, delta", [("p", 1), ("k", 1), ("l", 1),
                                            ("descriptor_dim", 1)])
    def test_shape_disagrees_with_dimension(self, parts, key, delta):
        path, magic, header, payload = parts
        if key in header:
            header[key] += delta
        else:
            header["hyper"].update(use_descriptors=True, **{key: header["hyper"][key] + delta})
        self.write(path, magic, header, payload)
        with pytest.raises(CheckpointError, match="disagree"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("l", "4"), ("l", 4.0), ("l", True), ("descriptor_dim", "0"), ("tied", 1),
        ("use_descriptors", "no"), ("alpha_t", "0.25"), ("alpha", float("nan")),
        ("gamma", float("inf")), ("task", "ranking"), ("task", None)])
    def test_wrong_hyper_value(self, parts, key, value):
        path, magic, header, payload = parts
        header["hyper"][key] = value
        self.write(path, magic, header, payload)
        with pytest.raises(CheckpointError, match="malformed checkpoint header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("split", ["0123", "0 1", 12, None, ["0", "1"]])
    def test_malformed_split(self, parts, split):
        path, magic, header, payload = parts
        header["split"] = split
        self.write(path, magic, header, payload)
        with pytest.raises(CheckpointError, match="split"):
            load_checkpoint(path)
