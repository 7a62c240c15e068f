import hashlib
import json
import struct

import numpy as np
import pytest

from helpers import scaled_stack
from spikesev.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from spikesev.layers import Conv1DSpec, DenseSpec, DropoutSpec, LSTMSpec
from spikesev.network import (
    AdamState,
    Network,
    ShapeError,
    adam_step,
    batch_bce_l2,
    default_architecture,
    infer_shapes,
    param_count,
    per_layer_param_counts,
)
from spikesev.training import TrainConfig, train

# per-layer reference: output shapes and parameter counts of the stock stack
REFERENCE_SHAPES = [
    (16727, 128),
    (8363, 128),
    (8360, 64),
    (4180, 64),
    (4177, 64),
    (2088, 64),
    (2085, 24),
    (1042, 24),
    (64,),
    (64,),
    (32,),
    (16,),
    (1,),
]
REFERENCE_COUNTS = [640, 32832, 16448, 6168, 22784, 4160, 2080, 528, 17]


class TestArchitectureAccounting:
    def test_total_parameter_count(self):
        assert param_count(default_architecture(), 16730) == 85657

    def test_per_layer_parameter_counts(self):
        counts = per_layer_param_counts(default_architecture(), 16730)
        assert [c for c in counts if c > 0] == REFERENCE_COUNTS

    def test_shapes_excluding_dropout(self):
        specs = default_architecture()
        shapes = infer_shapes(specs, 16730)
        non_dropout = [s for spec, s in zip(specs, shapes) if not isinstance(spec, DropoutSpec)]
        assert non_dropout == REFERENCE_SHAPES

    def test_dropout_preserves_shape(self):
        specs = default_architecture()
        shapes = infer_shapes(specs, 16730)
        for i, spec in enumerate(specs):
            if isinstance(spec, DropoutSpec):
                assert shapes[i] == shapes[i - 1]

    def test_small_input_first_conv_length(self):
        shapes = infer_shapes([Conv1DSpec(2, 4)], 32)
        assert shapes[0] == (29, 2)

    def test_input_shorter_than_kernel_is_shape_error(self):
        with pytest.raises(ShapeError, match="layer 0"):
            infer_shapes([Conv1DSpec(2, 4)], 3)

    def test_dense_before_lstm_is_shape_error(self):
        with pytest.raises(ShapeError, match="dense"):
            infer_shapes([Conv1DSpec(2, 4), DenseSpec(3)], 32)

    def test_single_conv_param_examples(self):
        assert param_count([Conv1DSpec(128, 4)], 16730) == 640
        # 64 filters over 128 channels
        specs = [Conv1DSpec(128, 4), Conv1DSpec(64, 4)]
        assert per_layer_param_counts(specs, 16730)[1] == 32832
        # dense 1 over 16 inputs
        specs = [LSTMSpec(16), DenseSpec(1, "sigmoid")]
        assert per_layer_param_counts(specs, 8)[1] == 17


@pytest.fixture()
def tiny_net():
    return Network(40, scaled_stack(n_stages=1, filters=3, lstm_units=4, dense_units=5), seed=5)


class TestForwardBackward:
    def test_infer_mode_deterministic(self, tiny_net):
        x = np.random.default_rng(0).normal(size=(4, 40)).astype(np.float32)
        a = tiny_net.forward(x)
        b = tiny_net.forward(x)
        assert a.tobytes() == b.tobytes()

    def test_train_mode_deterministic_given_seed(self, tiny_net):
        x = np.random.default_rng(0).normal(size=(4, 40)).astype(np.float32)
        a = tiny_net.forward(x, train=True, rng=np.random.default_rng(11))
        b = tiny_net.forward(x, train=True, rng=np.random.default_rng(11))
        assert a.tobytes() == b.tobytes()

    def test_output_in_unit_interval(self, tiny_net):
        x = np.random.default_rng(1).normal(size=(6, 40)).astype(np.float32)
        y = tiny_net.forward(x)
        assert (y > 0).all() and (y < 1).all()

    def test_backward_without_forward_rejected(self, tiny_net):
        with pytest.raises(ValueError, match="forward"):
            tiny_net.backward(np.ones((2, 1)), None)

    def test_wrong_width_rejected(self, tiny_net):
        with pytest.raises(ValueError, match="expected input"):
            tiny_net.forward(np.zeros((2, 41), dtype=np.float32))

    def test_same_seed_same_parameters(self):
        specs = scaled_stack(n_stages=1)
        a = Network(40, specs, seed=9)
        b = Network(40, specs, seed=9)
        for la, lb in zip(a.params, b.params):
            for key in la:
                assert la[key].tobytes() == lb[key].tobytes()

    def test_l2_changes_weight_gradients_by_exactly_two_lambda_w(self, tiny_net):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 40)).astype(np.float32)
        y = np.array([1, 0, 1], dtype=np.uint8)
        out, caches = tiny_net.forward(x, train=True, rng=np.random.default_rng(0), want_caches=True)
        _, dpred = batch_bce_l2(out.reshape(-1), y, tiny_net, 0.0)
        base = tiny_net.backward(dpred.reshape(-1, 1).astype(np.float32), caches)
        lam = 0.01
        with_l2 = [dict(layer) for layer in base]
        tiny_net.add_l2_gradients(with_l2, lam)
        for layer_p, layer_base, layer_l2 in zip(tiny_net.params, base, with_l2):
            for key in layer_p:
                diff = layer_l2[key] - layer_base[key]
                if key == "b":
                    np.testing.assert_array_equal(diff, 0.0)
                else:
                    np.testing.assert_allclose(diff, 2.0 * lam * layer_p[key], rtol=1e-6)


def bce_l2_one_row(prediction: float, label: int, network: Network, lam: float) -> float:
    loss, _ = batch_bce_l2(np.array([prediction]), np.array([label]), network, lam)
    return loss


class TestLoss:
    def test_perfect_prediction_zero_loss(self, tiny_net):
        assert bce_l2_one_row(1.0 - 1e-9, 1, tiny_net, 0.0) == pytest.approx(0.0, abs=1e-6)

    def test_half_prediction_is_ln_two(self, tiny_net):
        assert bce_l2_one_row(0.5, 1, tiny_net, 0.0) == pytest.approx(np.log(2.0), abs=1e-9)

    def test_penalty_matches_direct_parameter_sum(self, tiny_net):
        # independent oracle: walk the parameter tensors directly
        direct = 0.0
        for layer in tiny_net.params:
            for key, tensor in layer.items():
                if key != "b":
                    direct += float((tensor.astype(np.float64) ** 2).sum())
        with_pen = bce_l2_one_row(0.5, 1, tiny_net, 0.001)
        without = bce_l2_one_row(0.5, 1, tiny_net, 0.0)
        assert with_pen - without == pytest.approx(0.001 * direct, rel=1e-9)

    def test_clamping_keeps_loss_finite(self, tiny_net):
        assert np.isfinite(bce_l2_one_row(0.0, 1, tiny_net, 0.0))
        assert np.isfinite(bce_l2_one_row(1.0, 0, tiny_net, 0.0))


class TestAdam:
    def _state_and_params(self):
        params = [{"w": np.array([1.0, -2.0, 3.0], dtype=np.float64)}]
        state = AdamState(
            learning_rate=0.1,
            m=[{"w": np.zeros(3)}],
            v=[{"w": np.zeros(3)}],
        )
        return state, params

    def test_zero_gradient_leaves_parameters_unchanged(self):
        state, params = self._state_and_params()
        state.m[0]["w"][:] = 0.5
        state.v[0]["w"][:] = 0.25
        before = params[0]["w"].copy()
        m_before = state.m[0]["w"].copy()
        adam_step(state, params, [{"w": np.zeros(3)}])
        # moments decay toward zero; parameters still move along the stale moment
        assert (state.m[0]["w"] < m_before).all()
        assert state.step == 1
        state2, params2 = self._state_and_params()
        adam_step(state2, params2, [{"w": np.zeros(3)}])
        np.testing.assert_array_equal(params2[0]["w"], before)  # zero moments: no movement

    def test_first_step_is_signed_learning_rate(self):
        state, params = self._state_and_params()
        g = np.array([0.3, -0.7, 0.0001])
        before = params[0]["w"].copy()
        adam_step(state, params, [{"w": g}])
        moved = params[0]["w"] - before
        np.testing.assert_allclose(moved[:2], -0.1 * np.sign(g[:2]), rtol=1e-6)

    def test_two_steps_match_hand_unrolled_oracle(self):
        state, params = self._state_and_params()
        g1 = np.array([0.3, -0.7, 0.2])
        g2 = np.array([-0.1, 0.4, 0.2])
        adam_step(state, params, [{"w": g1}])
        adam_step(state, params, [{"w": g2}])

        # independent unroll of the textbook update
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p = np.array([1.0, -2.0, 3.0])
        m = np.zeros(3)
        v = np.zeros(3)
        for t, g in enumerate((g1, g2), start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        np.testing.assert_allclose(params[0]["w"], p, rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        state, params = self._state_and_params()
        with pytest.raises(ValueError, match="shape"):
            adam_step(state, params, [{"w": np.zeros(4)}])


class TestCheckpoint:
    REG_HASH = "a" * 64

    def test_save_load_save_byte_identical(self, tiny_net, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        opt = AdamState.for_network(tiny_net)
        save_checkpoint(tiny_net, p1, self.REG_HASH, opt)
        net2, opt2, reg_hash = load_checkpoint(p1)
        assert reg_hash == self.REG_HASH
        save_checkpoint(net2, p2, reg_hash, opt2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_predictions_survive_round_trip(self, tiny_net, tmp_path):
        x = np.random.default_rng(3).normal(size=(5, 40)).astype(np.float32)
        before = tiny_net.forward(x)
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_net, path, self.REG_HASH)
        net2, opt, _ = load_checkpoint(path)
        assert opt is None
        np.testing.assert_array_equal(net2.forward(x), before)

    def test_wrong_registry_hash_refused(self, tiny_net, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_net, path, self.REG_HASH)
        with pytest.raises(CheckpointError, match="registry"):
            load_checkpoint(path, expect_registry_hash="b" * 64)

    def test_bad_magic_rejected(self, tiny_net, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_net, path, self.REG_HASH)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tiny_net, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_net, path, self.REG_HASH)
        blob = bytearray(path.read_bytes())
        blob[8] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_optimizer_state_round_trip(self, tiny_net, tmp_path):
        opt = AdamState.for_network(tiny_net, learning_rate=0.005)
        opt.step = 17
        opt.m[0]["w"] += 0.25
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_net, path, self.REG_HASH, opt)
        _, opt2, _ = load_checkpoint(path)
        assert opt2.step == 17
        assert opt2.learning_rate == 0.005
        np.testing.assert_array_equal(opt2.m[0]["w"], opt.m[0]["w"])

    def test_truncated_file_rejected(self, tiny_net, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_net, path, self.REG_HASH)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)


def _twin_dense_checkpoint(path) -> bytes:
    """Checkpoint with Adam state of a stack whose layers 1 and 2 have
    equal weight shapes (4, 4); layer 3's weight is (4, 1)."""
    specs = [LSTMSpec(4), DenseSpec(4, "relu"), DenseSpec(4, "relu"), DenseSpec(1, "sigmoid")]
    net = Network(20, specs, seed=2)
    save_checkpoint(net, path, "a" * 64, AdamState.for_network(net))
    return path.read_bytes()


def _name_block(name: str) -> bytes:
    return struct.pack("<I", len(name)) + name.encode()


def _rewrite_layers(path, edit) -> None:
    """Apply `edit` to the layer list of a checkpoint's architecture JSON."""
    blob = path.read_bytes()
    (n,) = struct.unpack_from("<I", blob, 12)
    arch = json.loads(blob[16 : 16 + n])
    edit(arch["layers"])
    new = json.dumps(arch).encode()
    path.write_bytes(blob[:12] + struct.pack("<I", len(new)) + new + blob[16 + n :])


class TestCheckpointLoaderRefuses:
    def test_duplicate_tensor_name(self, tmp_path):
        path = tmp_path / "m.ckpt"
        blob = _twin_dense_checkpoint(path)
        # list 1/w twice and omit 2/w; the shapes match, so only the name gives it away
        path.write_bytes(blob.replace(_name_block("2/w"), _name_block("1/w"), 1))
        with pytest.raises(CheckpointError, match="duplicate tensor '1/w'"):
            load_checkpoint(path)

    def test_unknown_optimizer_tensor_name(self, tmp_path):
        path = tmp_path / "m.ckpt"
        blob = _twin_dense_checkpoint(path)
        path.write_bytes(blob.replace(_name_block("m/1/w"), _name_block("m/9/w"), 1))
        with pytest.raises(CheckpointError, match="unexpected tensor 'm/9/w'"):
            load_checkpoint(path)

    def test_misshapen_optimizer_tensor(self, tmp_path):
        path = tmp_path / "m.ckpt"
        blob = _twin_dense_checkpoint(path)
        header = _name_block("m/3/w") + b"\x02"
        assert header + struct.pack("<2I", 4, 1) in blob
        path.write_bytes(blob.replace(header + struct.pack("<2I", 4, 1), header + struct.pack("<2I", 1, 4)))
        with pytest.raises(CheckpointError, match="'m/3/w' has shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda layers: layers[1].pop("units"),
            lambda layers: layers[1].update(bias=True),
            lambda layers: layers[1].update(units="4"),
            lambda layers: layers[1].update(units=4.0),
            lambda layers: layers[1].update(activation=None),
        ],
        ids=["missing", "extra", "str-for-int", "float-for-int", "null-for-str"],
    )
    def test_malformed_layer_entry(self, tmp_path, edit):
        path = tmp_path / "m.ckpt"
        _twin_dense_checkpoint(path)
        _rewrite_layers(path, edit)
        with pytest.raises(CheckpointError, match="dense layer"):
            load_checkpoint(path)


class TestFormatPin:
    """Checkpoint format v1, the parameter init order and the training path,
    pinned by sha256. The trained-score hash was recorded with numpy 2.4 and
    OpenBLAS on x86-64; another BLAS may round differently."""

    def test_initial_checkpoint_bytes(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(Network(64, seed=3), path, "abc")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "6b4317e6ca092c941a89a39772e3a54f77219693f55090f441464935452c7276"

    def test_scores_after_two_epochs(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(24, 64)).astype(np.float32)
        y = (np.arange(24) % 2).astype(np.uint8)
        net = Network(64, seed=3)
        train(net, x, y, TrainConfig(epochs=2, batch_size=8, seed=3))
        digest = hashlib.sha256(net.predict_scores(x).tobytes()).hexdigest()
        assert digest == "59ebb44486c2255194c6a754b26be2eab47757883992347b87c05fe5d50f0d12"


class TestUnusedParameterInvariance:
    """Widening a layer with parameters that cannot influence the output must
    leave predictions and the lambda=0 loss unchanged, and raise the
    penalized loss by exactly lambda * sum of the new squared weights."""

    def _widened_pair(self):
        base = Network(20, [LSTMSpec(3), DenseSpec(4, "relu"), DenseSpec(1, "sigmoid")], seed=2)
        wide = Network(20, [LSTMSpec(3), DenseSpec(5, "relu"), DenseSpec(1, "sigmoid")], seed=2)
        # copy shared parameters; the extra hidden unit feeds the output with
        # weight zero, so its incoming column is unused
        wide.params[0] = {k: v.copy() for k, v in base.params[0].items()}
        wide.params[1]["w"][:, :4] = base.params[1]["w"]
        wide.params[1]["w"][:, 4] = 0.0
        wide.params[1]["b"][:4] = base.params[1]["b"]
        wide.params[1]["b"][4] = 0.0
        wide.params[2]["w"][:4, :] = base.params[2]["w"]
        wide.params[2]["w"][4, :] = 0.0
        wide.params[2]["b"] = base.params[2]["b"].copy()
        return base, wide

    def test_zero_lambda_loss_invariant(self):
        base, wide = self._widened_pair()
        x = np.random.default_rng(0).normal(size=(3, 20)).astype(np.float32)
        np.testing.assert_allclose(base.forward(x), wide.forward(x), rtol=1e-6)
        p = float(base.forward(x)[0, 0])
        assert bce_l2_one_row(p, 1, base, 0.0) == pytest.approx(bce_l2_one_row(p, 1, wide, 0.0))

    def test_positive_lambda_loss_grows_by_new_weight_norm(self):
        base, wide = self._widened_pair()
        new_column = np.array([0.3, -0.2, 0.5], dtype=np.float32)
        wide.params[1]["w"][:, 4] = new_column  # output weight stays zero
        x = np.random.default_rng(0).normal(size=(3, 20)).astype(np.float32)
        np.testing.assert_allclose(base.forward(x), wide.forward(x), rtol=1e-6)
        p = 0.5
        lam = 0.001
        grown = bce_l2_one_row(p, 1, wide, lam) - bce_l2_one_row(p, 1, base, lam)
        assert grown == pytest.approx(lam * float((new_column.astype(np.float64) ** 2).sum()), rel=1e-6)


def test_default_architecture_layer_sequence():
    specs = default_architecture()
    kinds = [type(s).__name__ for s in specs]
    assert kinds == [
        "Conv1DSpec", "MaxPool1DSpec", "DropoutSpec",
        "Conv1DSpec", "MaxPool1DSpec", "DropoutSpec",
        "Conv1DSpec", "MaxPool1DSpec", "DropoutSpec",
        "Conv1DSpec", "MaxPool1DSpec", "DropoutSpec",
        "LSTMSpec",
        "DenseSpec", "DropoutSpec", "DenseSpec", "DenseSpec", "DenseSpec",
    ]
    assert [s.filters for s in specs if isinstance(s, Conv1DSpec)] == [128, 64, 64, 24]
    lstm = [s for s in specs if isinstance(s, LSTMSpec)]
    assert lstm[0].units == 64
    dense = [s for s in specs if isinstance(s, DenseSpec)]
    assert [(d.units, d.activation) for d in dense] == [
        (64, "relu"), (32, "relu"), (16, "relu"), (1, "sigmoid")
    ]
    drops = [s for s in specs if isinstance(s, DropoutSpec)]
    assert all(d.rate == 0.166 for d in drops)
