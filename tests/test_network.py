import concurrent.futures
import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import spikesev
from helpers import scaled_stack
from spikesev import network as network_module
from spikesev.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from spikesev.layers import (
    Conv1DSpec,
    DenseSpec,
    DropoutSpec,
    LSTMSpec,
    MaxPool1DSpec,
    conv1d_backward,
    lstm_backward,
    lstm_forward,
    sample_dropout_mask,
)
from spikesev.network import (
    AdamState,
    Architecture,
    Network,
    ShapeError,
    adam_step,
    batch_bce_l2,
    infer_shapes,
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


def _layer_counts(net: Network) -> list[int]:
    return [sum(t.size for t in layer.values()) for layer in net.params]


class TestArchitectureAccounting:
    def test_total_parameter_count(self):
        assert Network(16730).param_count() == 85657

    def test_per_layer_parameter_counts(self):
        counts = _layer_counts(Network(16730))
        assert [c for c in counts if c > 0] == REFERENCE_COUNTS

    def test_shapes_excluding_dropout(self):
        specs = Architecture().specs()
        shapes = infer_shapes(specs, 16730)
        non_dropout = [s for spec, s in zip(specs, shapes) if not isinstance(spec, DropoutSpec)]
        assert non_dropout == REFERENCE_SHAPES

    def test_dropout_preserves_shape(self):
        specs = Architecture().specs()
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

    @pytest.mark.parametrize("input_length", [0, -5])
    def test_input_length_below_one_is_shape_error(self, input_length):
        with pytest.raises(ShapeError, match=f"input length {input_length} < 1"):
            infer_shapes([LSTMSpec(4), DenseSpec(1, "sigmoid")], input_length)

    def test_dense_before_lstm_is_shape_error(self):
        with pytest.raises(ShapeError, match="dense"):
            infer_shapes([Conv1DSpec(2, 4), DenseSpec(3, "relu")], 32)

    def test_single_conv_param_examples(self):
        assert Network(16730, [Conv1DSpec(128, 4)]).param_count() == 640
        # 64 filters over 128 channels
        specs = [Conv1DSpec(128, 4), Conv1DSpec(64, 4)]
        assert _layer_counts(Network(16730, specs))[1] == 32832
        # dense 1 over 16 inputs
        specs = [LSTMSpec(16), DenseSpec(1, "sigmoid")]
        assert _layer_counts(Network(8, specs))[1] == 17


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

    def test_train_mode_needs_an_rng_only_for_dropout(self, tiny_net):
        x = np.random.default_rng(0).normal(size=(2, 40)).astype(np.float32)
        with pytest.raises(ValueError, match="needs an rng"):
            tiny_net.forward(x, train=True)
        no_dropout = Network(40, [s for s in tiny_net.specs if not isinstance(s, DropoutSpec)], seed=5)
        assert no_dropout.forward(x, train=True).tobytes() == no_dropout.forward(x).tobytes()

    def test_dropout_draws_each_mask_of_rate_above_zero_in_layer_order(self):
        """A train-mode forward draws one whole-batch mask per dropout layer of
        rate > 0, sequence layers first, and nothing for rate 0; inference
        draws nothing."""
        specs = [Conv1DSpec(3, 4), DropoutSpec(0.0), MaxPool1DSpec(2), DropoutSpec(0.3),
                 LSTMSpec(4), DenseSpec(5, "relu"), DropoutSpec(0.2), DenseSpec(1, "sigmoid")]
        net = Network(40, specs, seed=5)
        x = np.random.default_rng(0).normal(size=(3, 40)).astype(np.float32)
        rng, want = np.random.default_rng(9), np.random.default_rng(9)
        net.forward(x, train=True, rng=rng)
        sample_dropout_mask(want, (3, *net.shapes[3]), 0.3)
        sample_dropout_mask(want, (3, *net.shapes[6]), 0.2)
        assert rng.bit_generator.state == want.bit_generator.state
        net.forward(x, rng=rng)
        assert rng.bit_generator.state == want.bit_generator.state

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


def _backward_step(net, x):
    """(backward's gradients, the caches it consumed) for one train-mode pass."""
    y = np.arange(len(x), dtype=np.uint8) % 2
    out, caches = net.forward(x, train=True, rng=np.random.default_rng(0), want_caches=True)
    _, dpred = batch_bce_l2(out.reshape(-1), y, net, 0.0)
    return net.backward(dpred.reshape(-1, 1).astype(net.dtype), caches), caches


class TestBackwardConsumesCaches:
    def test_every_cache_is_none_after_backward(self, tiny_net):
        x = np.random.default_rng(3).normal(size=(3, 40)).astype(np.float32)
        _, caches = _backward_step(tiny_net, x)
        assert len(caches) == len(tiny_net.specs) and all(cache is None for cache in caches)

    def test_second_backward_on_the_same_caches_rejected(self, tiny_net):
        x = np.random.default_rng(3).normal(size=(3, 40)).astype(np.float32)
        _, caches = _backward_step(tiny_net, x)
        with pytest.raises(ValueError, match="forward"):
            tiny_net.backward(np.ones((3, 1), dtype=np.float32), caches)

    def test_upper_caches_are_freed_before_the_first_layer_runs(self, tiny_net, monkeypatch):
        x = np.random.default_rng(3).normal(size=(3, 40)).astype(np.float32)
        out, caches = tiny_net.forward(x, train=True, rng=np.random.default_rng(0), want_caches=True)
        lstm = next(i for i, s in enumerate(tiny_net.specs) if isinstance(s, LSTMSpec))
        refs = [weakref.ref(caches[lstm][0]), weakref.ref(caches[lstm + 2])]  # LSTM input, dense dropout mask
        alive = []
        backward = Conv1DSpec.backward

        def recording(spec, *args):
            alive.append([ref() is not None for ref in refs])
            return backward(spec, *args)

        monkeypatch.setattr(Conv1DSpec, "backward", recording)
        tiny_net.backward(np.ones_like(out), caches)
        assert alive and all(seen == [False, False] for seen in alive)  # one call per row range

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_stock_train_step_peak(self, monkeypatch, workers):
        """tracemalloc peak of one stock step at width 1000, batch 8: 2.02-2.07x
        conv1's output when measured (1, 2 and 4 workers, seeds 0-2), against
        3.36x with each pool caching its input and each dropout mask drawn as
        one float64 array, and 4.79x with every cache kept until the backward
        pass ends."""
        monkeypatch.setattr(network_module, "WORKERS", workers)
        net = Network(1000, seed=0)
        x = np.random.default_rng(0).normal(size=(8, 1000)).astype(np.float32)
        optimizer = AdamState.for_network(net)

        def step():
            grads, _ = _backward_step(net, x)
            adam_step(optimizer, net.params, grads)

        step()  # first-call allocations stay out of the measured step
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        conv1_out = 8 * math.prod(infer_shapes(net.specs, 1000)[0]) * 4
        assert peak <= 2.5 * conv1_out, peak / conv1_out


def bce_l2_one_row(prediction: float, label: int, network: Network, lam: float) -> float:
    loss, _ = batch_bce_l2(np.array([prediction]), np.array([label]), network, lam)
    return loss


def _widest_row_bytes(net: Network) -> int:
    shapes = infer_shapes(net.specs, net.input_length)
    return max(int(np.prod(s)) for s in shapes) * np.dtype(net.dtype).itemsize


class TestPredictBatching:
    """`predict_scores` is one inference `forward` over every row, and each
    row's score depends on that row alone."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("a, b", [(0, 1), (3, 4), (10, 11), (2, 7), (0, 11)])
    def test_a_slice_scores_as_within_the_whole(self, dtype, a, b):
        net = Network(40, scaled_stack(n_stages=1, filters=3, lstm_units=4, dense_units=5),
                      seed=5, dtype=dtype)
        x = np.random.default_rng(1).normal(size=(11, 40)).astype(np.float32)
        whole = net.predict_scores(x)
        part = net.predict_scores(x[a:b])
        assert part.dtype == whole.dtype == dtype
        assert part.tobytes() == whole[a:b].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_rows_give_an_empty_array_of_the_network_dtype(self, dtype):
        net = Network(40, scaled_stack(n_stages=1, filters=3, lstm_units=4, dense_units=5),
                      seed=5, dtype=dtype)
        scores = net.predict_scores(np.zeros((0, 40), dtype=np.float32))
        assert scores.shape == (0,) and scores.dtype == dtype

    def test_peak_memory_is_the_lstm_input_and_a_few_conv1_rows(self):
        """The rows meet only at the LSTM, whose (rows, T, C) input is the one
        array that grows with them; the sequence layers add a few rows of
        conv1's output. 64 rows at width 512 peaked at 4.6 conv1 rows over
        the LSTM input when measured, so 6 leaves 1.4 rows of margin; the
        LSTM's per-step history took 12.2."""
        net = Network(512, seed=0)
        shapes = infer_shapes(net.specs, 512)
        lstm = next(i for i, s in enumerate(net.specs) if isinstance(s, LSTMSpec))
        lstm_in = 64 * math.prod(shapes[lstm - 1]) * 4
        conv1_row = math.prod(shapes[0]) * 4
        x = np.random.default_rng(2).normal(size=(64, 512)).astype(np.float32)
        tracemalloc.start()
        try:
            net.predict_scores(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= lstm_in + 6 * conv1_row, (peak - lstm_in) / conv1_row


class TestRowwiseInference:
    """At inference the leading sequence layers run one row at a time; the
    bytes are those of the batched loop that `want_caches` keeps."""

    STACKS = {
        "stock-64": (64, None),
        "stock-2091": (2091, None),
        "scaled-40": (40, scaled_stack(n_stages=2, filters=5, lstm_units=6, dense_units=7)),
        "no-conv-stage": (40, [LSTMSpec(6), DenseSpec(5, "relu"), DropoutSpec(0.2), DenseSpec(1, "sigmoid")]),
    }

    @pytest.mark.parametrize("rows", [1, 3, 62])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stack", list(STACKS))
    def test_same_bytes_as_the_batched_forward(self, stack, dtype, rows):
        width, specs = self.STACKS[stack]
        net = Network(width, specs, seed=4, dtype=dtype)
        x = np.random.default_rng(rows).normal(size=(rows, width)).astype(np.float32)
        got = net.forward(x)
        want = net.forward(x, want_caches=True)[0]
        assert got.dtype == want.dtype and got.shape == want.shape == (rows, 1)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("stack", list(STACKS))
    def test_no_rows_give_no_scores(self, stack):
        width, specs = self.STACKS[stack]
        net = Network(width, specs, seed=4)
        assert net.forward(np.zeros((0, width), dtype=np.float32)).shape == (0, 1)

    def test_stack_of_sequence_layers_only(self):
        net = Network(30, [Conv1DSpec(3, 4), DropoutSpec(0.3)], seed=1)
        x = np.random.default_rng(0).normal(size=(5, 30)).astype(np.float32)
        got = net.forward(x)
        assert got.shape == (5, 27, 3)
        assert got.tobytes() == net.forward(x, want_caches=True)[0].tobytes()

    def test_predict_peak_is_a_few_rows_not_the_batch(self):
        net = Network(2091, seed=0)
        row_bytes = _widest_row_bytes(net)
        x = np.random.default_rng(3).normal(size=(20, 2091)).astype(np.float32)
        tracemalloc.start()
        try:
            net.predict_scores(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * row_bytes, peak / row_bytes


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

    @pytest.mark.parametrize("slot", [1, 2, 3], ids=["beta1", "beta2", "epsilon"])
    def test_other_adam_constants_refused(self, tiny_net, tmp_path, slot):
        opt = AdamState.for_network(tiny_net, learning_rate=0.005)
        opt.step = 3
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_net, path, self.REG_HASH, opt)
        values = [0.005, 0.9, 0.999, 1e-8, 3]
        record = struct.pack("<ddddQ", *values)
        blob = path.read_bytes()
        assert blob.count(record) == 1  # the record holds the published constants
        values[slot] = 0.5
        path.write_bytes(blob.replace(record, struct.pack("<ddddQ", *values)))
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: optimizer beta1=") + ".*0.5"):
            load_checkpoint(path)

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


def _rewrite_architecture(path, rewrite) -> None:
    """Replace a checkpoint's architecture block by `rewrite(arch)`'s bytes."""
    blob = path.read_bytes()
    (n,) = struct.unpack_from("<I", blob, 12)
    new = rewrite(json.loads(blob[16 : 16 + n]))
    path.write_bytes(blob[:12] + struct.pack("<I", len(new)) + new + blob[16 + n :])


def _rewrite_layers(path, edit) -> None:
    """Apply `edit` to the layer list of a checkpoint's architecture JSON."""

    def rewrite(arch):
        edit(arch["layers"])
        return json.dumps(arch).encode()

    _rewrite_architecture(path, rewrite)


def _json_with(**changes):
    """A rewrite that sets (or, with None, drops) top-level keys."""

    def rewrite(arch):
        arch.update(changes)
        return json.dumps({k: v for k, v in arch.items() if v is not None}).encode()

    return rewrite


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

    def test_tensor_whose_shape_product_overflows_int64(self, tmp_path):
        # 2**22 * 2**21 * 2**21 = 2**64, which np.prod wraps to a count of 0
        path = tmp_path / "m.ckpt"
        blob = _twin_dense_checkpoint(path)
        header = _name_block("0/b") + b"\x01" + struct.pack("<I", 16)
        assert blob.index(header) < blob.index(_name_block("0/u"))  # the first tensor
        overflowing = _name_block("0/b") + b"\x03" + struct.pack("<3I", 2**22, 2**21, 2**21)
        path.write_bytes(blob.replace(header, overflowing, 1))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: truncated checkpoint$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("with_optimizer", [False, True])
    def test_optimizer_flag_other_than_0_or_1(self, tiny_net, tmp_path, with_optimizer):
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_net, path, "a" * 64)
        flag_at = len(path.read_bytes()) - 1  # the flag ends a checkpoint without Adam state
        save_checkpoint(tiny_net, path, "a" * 64, AdamState.for_network(tiny_net) if with_optimizer else None)
        blob = bytearray(path.read_bytes())
        assert blob[flag_at] == int(with_optimizer)
        blob[flag_at] = 7
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: optimizer flag is 7, expected 0 or 1")):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "old, new, what",
        [
            (b"a" * 64, b"\xff" + b"a" * 63, "registry hash"),
            (_name_block("1/w"), _name_block("1/w").replace(b"1", b"\xff"), "tensor name"),
        ],
        ids=["registry-hash", "tensor-name"],
    )
    def test_text_that_is_not_utf8(self, tmp_path, old, new, what):
        path = tmp_path / "m.ckpt"
        blob = _twin_dense_checkpoint(path)
        assert blob.count(old) == 1
        path.write_bytes(blob.replace(old, new))
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: {what} is not UTF-8")):
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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda layers: layers[1].update(type="conv2d"), "unknown layer type 'conv2d'"),
            (
                lambda layers: layers[1].pop("units"),
                "dense layer has fields ['activation'], expected ['activation', 'units']",
            ),
            (lambda layers: layers[1].update(units="4"), "dense layer field 'units' is not a int"),
            (lambda layers: layers[1].update(units=0), "dense layer: dense units must be >= 1"),
            (lambda layers: layers[1].update(activation="linear"), "dense layer: unknown activation 'linear'"),
        ],
        ids=["unknown-type", "field-set", "field-type", "invalid-value", "linear-activation"],
    )
    def test_layer_entry_refusal_names_the_file(self, tmp_path, edit, message):
        path = tmp_path / "m.ckpt"
        _twin_dense_checkpoint(path)
        _rewrite_layers(path, edit)
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: {message}")):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "specs, input_length, message",
        [
            ([LSTMSpec(4), DenseSpec(1, "sigmoid")], -5, "input length -5 < 1"),
            ([LSTMSpec(4), DenseSpec(1, "sigmoid")], 0, "input length 0 < 1"),
            (
                [Conv1DSpec(2, 4), LSTMSpec(3), DenseSpec(1, "sigmoid")],
                3,
                "layer 0 (Conv1DSpec): output length 0 < 1",
            ),
        ],
        ids=["lstm-first-negative", "lstm-first-zero", "conv-first-too-short"],
    )
    def test_input_length_the_stack_cannot_take(self, tmp_path, specs, input_length, message):
        path = tmp_path / "m.ckpt"
        save_checkpoint(Network(20, specs, seed=2), path, "a" * 64)
        _rewrite_architecture(path, _json_with(input_length=input_length))
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: {message}")):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "rewrite",
        [
            _json_with(seed=None),
            _json_with(input_length=None),
            _json_with(layers=None),
            _json_with(version=2),
            lambda arch: json.dumps([arch]).encode(),
            lambda arch: json.dumps(arch).encode()[:-1],
            lambda arch: b"\xff" + json.dumps(arch).encode(),
            _json_with(input_length="20"),
            _json_with(input_length=20.0),
            _json_with(seed=2.5),
            _json_with(seed=True),
            _json_with(layers="dense"),
            lambda arch: json.dumps({**arch, "layers": [*arch["layers"], 3]}).encode(),
        ],
        ids=[
            "missing-seed", "missing-input-length", "missing-layers", "extra-key", "not-an-object",
            "invalid-json", "not-utf8", "str-input-length", "float-input-length",
            "float-seed", "bool-seed", "str-layers", "int-layer",
        ],
    )
    def test_malformed_architecture_block(self, tmp_path, rewrite):
        path = tmp_path / "m.ckpt"
        _twin_dense_checkpoint(path)
        _rewrite_architecture(path, rewrite)
        with pytest.raises(CheckpointError, match="architecture"):
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



_ONE_STOCK_STEP = """
import hashlib
import numpy as np
from spikesev.network import Network
from spikesev.training import TrainConfig, train
rng = np.random.default_rng(0)
x = rng.normal(size=(32, 2091)).astype(np.float32)
y = (np.arange(32) % 2).astype(np.uint8)
net = Network(2091, seed=1)
train(net, x, y, TrainConfig(epochs=1, batch_size=32, seed=1))
print(hashlib.sha256(b"".join(p[k].tobytes() for p in net.params for k in sorted(p))).hexdigest())
"""


def test_threaded_blas_step_is_reproducible():
    """At a fixed BLAS thread count, one stock step at 1/8 paper width gives
    the same parameter bytes in two processes. The conv weight-gradient
    GEMMs are large enough here to run threaded; the tiny pinned models are not."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(spikesev.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    digests = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", _ONE_STOCK_STEP], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


_ONE_STOCK_STEP_ON_WORKERS = "import spikesev.network\nspikesev.network.WORKERS = {workers}\n" + _ONE_STOCK_STEP


def test_threaded_blas_step_does_not_depend_on_the_worker_count():
    """At two BLAS threads, one stock step at 1/8 paper width gives the same
    parameter bytes on one row range as on two."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(spikesev.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    digests = []
    for workers in (1, 2):
        proc = subprocess.run([sys.executable, "-c", _ONE_STOCK_STEP_ON_WORKERS.format(workers=workers)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def _ref_forward_backward(net: Network, x: np.ndarray, rng, dout_of):
    """One training pass as the layer loop ran it before the sequence layers
    took row ranges: every layer forward on the whole batch, drawing its
    dropout mask as it comes, then every layer backward, a convolution's
    `dw` as each tap's batched product summed over the batch and its `db` as
    one sum over rows and positions. Returns (output, gradients, dropout
    masks); `dout_of(output)` gives d(loss)/d(output)."""
    cur = x.astype(net.dtype)[:, :, None]
    caches = []
    for spec, params in zip(net.specs, net.params):
        drops = isinstance(spec, DropoutSpec) and spec.rate > 0
        mask = sample_dropout_mask(rng, cur.shape, spec.rate) if drops else None
        cur, cache = spec.forward(cur, params, mask, True)
        caches.append(cache)
    masks = [c for spec, c in zip(net.specs, caches) if isinstance(spec, DropoutSpec) and c is not None]
    grad = dout_of(cur)
    grads = [None] * len(net.specs)
    for i in reversed(range(len(net.specs))):
        spec, params = net.specs[i], net.params[i]
        if isinstance(spec, Conv1DSpec):
            x_in, w, steps = caches[i], params["w"], grad.shape[1]
            dw = np.stack([(x_in[:, j : j + steps].transpose(0, 2, 1) @ grad).sum(axis=0) for j in range(len(w))])
            grads[i] = {"w": dw, "b": grad.sum(axis=(0, 1))}
            grad, _, _ = conv1d_backward(grad, x_in, w)
        else:
            grad, grads[i] = spec.backward(grad, caches[i], params, True)
    return cur, grads, masks


def _dout_of(out: np.ndarray) -> np.ndarray:
    """An output gradient drawn from a seed fixed by the output's size."""
    return np.random.default_rng(out.size).normal(size=out.shape).astype(out.dtype)


def _param_bytes_of(layers: list[dict[str, np.ndarray]]) -> bytes:
    return b"".join(layer[k].tobytes() for layer in layers for k in sorted(layer))


class TestRowRangeTraining:
    """A training step runs its sequence layers on one row range per worker
    (`network.WORKERS`). Outputs, dropout masks, gradients and the updated
    parameters keep the bytes of one whole-batch layer loop."""

    STACKS = {
        "stock-300": (300, None),
        "scaled-60": (60, scaled_stack(n_stages=2, filters=5, lstm_units=6, dense_units=7)),
        "lstm-first": (40, [LSTMSpec(6), DenseSpec(5, "relu"), DropoutSpec(0.2), DenseSpec(1, "sigmoid")]),
        "sequence-only": (30, [Conv1DSpec(3, 4), DropoutSpec(0.3)]),
        # one filter on one channel: numpy sums its weight and bias terms pairwise
        "one-filter": (50, [Conv1DSpec(1, 3), MaxPool1DSpec(2), DropoutSpec(0.2), LSTMSpec(3),
                            DenseSpec(1, "sigmoid")]),
    }

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stack, rows", [(name, 7) for name in STACKS] + [("one-filter", 20)])
    def test_two_steps_keep_the_whole_batch_bytes(self, monkeypatch, stack, rows, dtype, workers):
        monkeypatch.setattr(network_module, "WORKERS", workers)
        width, specs = self.STACKS[stack]
        net = Network(width, specs, seed=6, dtype=dtype)
        ref = Network(width, specs, seed=6, dtype=dtype)
        opt, ref_opt = AdamState.for_network(net), AdamState.for_network(ref)
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        for step in range(2):
            x = np.random.default_rng(step).normal(size=(rows, width)).astype(np.float32)
            want_out, want_grads, want_masks = _ref_forward_backward(ref, x, ref_rng, _dout_of)
            out, caches = net.forward(x, train=True, rng=rng, want_caches=True)
            assert out.tobytes() == want_out.tobytes()
            masks = net.dropout_masks_from_caches(caches)
            assert [m.tobytes() for m in masks] == [m.tobytes() for m in want_masks]
            grads = net.backward(_dout_of(out), caches)
            for layer, want in zip(grads, want_grads):
                assert layer.keys() == want.keys()
                for key in layer:
                    assert layer[key].dtype == want[key].dtype and layer[key].shape == want[key].shape
                    assert layer[key].tobytes() == want[key].tobytes(), key
            adam_step(opt, net.params, grads)
            adam_step(ref_opt, ref.params, want_grads)
        assert _param_bytes_of(net.params) == _param_bytes_of(ref.params)

    @pytest.mark.parametrize("rows, parts, ranges", [
        (7, 3, [(0, 2), (2, 4), (4, 7)]),
        (2, 2, [(0, 1), (1, 2)]),
        (5, 1, [(0, 5)]),
        (0, 1, [(0, 0)]),
    ])
    def test_row_ranges_are_contiguous_and_even(self, rows, parts, ranges):
        assert network_module._row_ranges(rows, parts) == ranges

    @pytest.mark.parametrize("files, count", [
        ({"cpu.max": "max 100000\n"}, 64),
        ({"cpu.max": "150000 100000\n"}, 2),
        ({"cpu.max": "20000 100000\n"}, 1),
        ({"cpu.max": "6400000 100000\n"}, 64),
        ({"quota": "-1\n", "period": "100000\n"}, 64),
        ({"quota": "300000\n", "period": "100000\n"}, 3),
        ({}, 64),
    ])
    def test_cpu_count_is_the_affinity_set_capped_by_the_cgroup_quota(self, monkeypatch, tmp_path, files, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        quota_files = ((str(tmp_path / "cpu.max"),), (str(tmp_path / "quota"), str(tmp_path / "period")))
        assert network_module.cpu_count(quota_files) == count

    @pytest.mark.parametrize("env, workers", [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 8),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4),
        ({"GOTO_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 2),
        ({"OMP_NUM_THREADS": "4"}, 2),
        ({"OPENBLAS_NUM_THREADS": "16"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2,1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "many"}, 1),
    ])
    def test_workers_share_the_cpus_with_blas_threads(self, monkeypatch, env, workers):
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert network_module.worker_count(8) == workers

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_a_step_takes_one_range_per_worker_and_no_more_than_one_per_row(self, monkeypatch, workers):
        monkeypatch.setattr(network_module, "WORKERS", workers)
        net = Network(40, scaled_stack(n_stages=1, filters=3, lstm_units=4, dense_units=5), seed=5)
        x = np.random.default_rng(0).normal(size=(3, 40)).astype(np.float32)
        _, caches = net.forward(x, train=True, rng=np.random.default_rng(0), want_caches=True)
        assert [len(caches[i]) for i in range(net.n_seq)] == [min(workers, 3)] * net.n_seq

    @pytest.mark.parametrize("features", [1, 24])
    @pytest.mark.parametrize("bounds", [[0, 7], [0, 3, 7], [0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 6, 7]])
    def test_running_bias_sum_over_ranges_is_the_whole_batch_sum(self, bounds, features):
        dy = np.random.default_rng(4).normal(size=(7, 301, features)).astype(np.float32)
        before = dy.copy()
        total = None
        for lo, hi in zip(bounds, bounds[1:]):
            total = network_module._sum_rows(total, dy[lo:hi].reshape(-1, features))
        assert total.sum(axis=0).tobytes() == dy.sum(axis=(0, 1)).tobytes()
        assert dy.tobytes() == before.tobytes()  # seeded rows are restored

    def test_sum_of_range_sums_is_not_the_whole_batch_sum(self):
        """Why the join adds the ranges' rows as one running sum: adding
        each range's own sum rounds differently."""
        dy = np.random.default_rng(4).normal(size=(7, 301, 24)).astype(np.float32)
        by_range = dy[:3].sum(axis=(0, 1)) + dy[3:].sum(axis=(0, 1))
        assert by_range.tobytes() != dy.sum(axis=(0, 1)).tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_train_mode_without_an_rng_still_raises(self, monkeypatch, workers):
        monkeypatch.setattr(network_module, "WORKERS", workers)
        net = Network(40, scaled_stack(n_stages=1, filters=3, lstm_units=4, dense_units=5), seed=5)
        x = np.random.default_rng(0).normal(size=(5, 40)).astype(np.float32)
        with pytest.raises(ValueError, match="^train-mode dropout needs an rng$"):
            net.forward(x, train=True, want_caches=True)

    @pytest.mark.parametrize("rows, failing_rows", [(5, 1), (7, 3)], ids=["first-range", "last-range"])
    @pytest.mark.parametrize("method", ["forward", "backward"])
    def test_an_error_in_a_worker_reaches_the_caller(self, monkeypatch, method, rows, failing_rows):
        """Three ranges of 1, 2, 2 or 2, 2, 3 rows, one of which fails: its
        error surfaces from the join, and the call returns."""
        monkeypatch.setattr(network_module, "WORKERS", 3)
        net = Network(40, scaled_stack(n_stages=2, filters=3, lstm_units=4, dense_units=5), seed=5)
        x = np.random.default_rng(0).normal(size=(rows, 40)).astype(np.float32)
        original = getattr(MaxPool1DSpec, method)

        def failing_on_one_range(spec, data, *args):
            if len(data) == failing_rows:
                raise ValueError("refused by the test")
            return original(spec, data, *args)

        out, caches = net.forward(x, train=True, rng=np.random.default_rng(0), want_caches=True)
        monkeypatch.setattr(MaxPool1DSpec, method, failing_on_one_range)
        with pytest.raises(ValueError, match="^refused by the test$"):
            if method == "forward":
                net.forward(x, train=True, rng=np.random.default_rng(0), want_caches=True)
            else:
                net.backward(np.ones_like(out), caches)

    def test_many_ranges_on_few_cores_under_rapid_switching(self, monkeypatch):
        """More ranges than cores, with the interpreter switching threads
        every microsecond: the step completes within a minute and a lost or
        misordered update would change the gradient bytes."""
        monkeypatch.setattr(network_module, "WORKERS", 6)
        width, specs = self.STACKS["scaled-60"]
        net = Network(width, specs, seed=6)
        x = np.random.default_rng(1).normal(size=(11, width)).astype(np.float32)
        _, want, _ = _ref_forward_backward(Network(width, specs, seed=6), x, np.random.default_rng(8), _dout_of)
        got = []

        def step():
            out, caches = net.forward(x, train=True, rng=np.random.default_rng(8), want_caches=True)
            got.append(net.backward(_dout_of(out), caches))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=step)
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive() and len(got) == 1
        assert _param_bytes_of(got[0]) == _param_bytes_of(want)

    def test_inference_starts_no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("inference started a thread pool")

        monkeypatch.setattr(network_module, "WORKERS", 2)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        net = Network(40, scaled_stack(n_stages=1, filters=3, lstm_units=4, dense_units=5), seed=5)
        assert net.predict_scores(np.zeros((4, 40), dtype=np.float32)).shape == (4,)


class TestFirstLayerInputGradient:
    """Nothing reads the first layer's input gradient, so backward asks layer
    0 not to compute it."""

    def test_only_layer_0_is_spared_its_input_gradient(self, monkeypatch):
        net = Network(40, scaled_stack(n_stages=2, filters=3, lstm_units=4, dense_units=5), seed=5)
        x = np.random.default_rng(3).normal(size=(3, 40)).astype(np.float32)
        out, caches = net.forward(x, train=True, rng=np.random.default_rng(0), want_caches=True)
        seen = []
        backward = Conv1DSpec.backward

        def recording(spec, dy, cache, params, want_dx):
            dx, grads = backward(spec, dy, cache, params, want_dx)
            seen.append((params is net.params[0], want_dx, dx is None))
            return dx, grads

        monkeypatch.setattr(Conv1DSpec, "backward", recording)
        net.backward(np.ones_like(out), caches)
        assert sorted(set(seen)) == [(False, True, False), (True, False, True)]

    def test_lstm_backward_without_dx_keeps_its_other_gradients(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 6, 4)).astype(np.float32)
        w, u = rng.normal(size=(4, 12)).astype(np.float32), rng.normal(size=(3, 12)).astype(np.float32)
        _, cache = lstm_forward(x, w, u, np.zeros(12, dtype=np.float32))
        dh = rng.normal(size=(3, 3)).astype(np.float32)
        with_dx = lstm_backward(dh, cache, w, u)
        without = lstm_backward(dh, cache, w, u, want_dx=False)
        assert without[0] is None and with_dx[0] is not None
        assert [g.tobytes() for g in without[1:]] == [g.tobytes() for g in with_dx[1:]]


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


def test_stock_architecture_layer_sequence():
    specs = Architecture().specs()
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
