import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import spikesev.layers as layers_module
from spikesev.layers import (
    Conv1DSpec,
    DenseSpec,
    DropoutSpec,
    LSTMSpec,
    MaxPool1DSpec,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    dropout_backward,
    dropout_forward,
    lstm_backward,
    lstm_forward,
    maxpool1d_backward,
    maxpool1d_forward,
    sample_dropout_mask,
    sigmoid,
)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestConv1D:
    def test_sliding_sum(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0]).reshape(1, 5, 1)
        w = np.ones((2, 1, 1))
        b = np.zeros(1)
        y, _ = conv1d_forward(x, w, b)
        assert y.reshape(-1).tolist() == [3.0, 5.0, 7.0, 9.0]

    def test_zero_weights_zero_output(self):
        x = np.random.default_rng(0).normal(size=(2, 9, 3))
        y, _ = conv1d_forward(x, np.zeros((4, 3, 5)), np.zeros(5))
        assert (y == 0).all()

    def test_input_shorter_than_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            conv1d_forward(np.zeros((1, 3, 1)), np.zeros((4, 1, 2)), np.zeros(2))

    def test_output_length(self):
        x = np.zeros((1, 16730, 1))
        y, _ = conv1d_forward(x, np.zeros((4, 1, 2)), np.zeros(2))
        assert y.shape == (1, 16727, 2)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 9, 3))
        w = rng.normal(size=(4, 3, 2))
        b = rng.normal(size=2)
        r = rng.normal(size=(2, 6, 2))  # random linear functional on the output

        def loss():
            y, _ = conv1d_forward(x, w, b)
            return float((y * r).sum())

        y, cache = conv1d_forward(x, w, b)
        dx, dw, db = conv1d_backward(r, cache, w)
        h = 1e-6
        for tensor, grad in ((x, dx), (w, dw), (b, db)):
            it = np.nditer(tensor, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = tensor[idx]
                tensor[idx] = orig + h
                up = loss()
                tensor[idx] = orig - h
                down = loss()
                tensor[idx] = orig
                assert (up - down) / (2 * h) == pytest.approx(grad[idx], rel=1e-5, abs=1e-7)


class TestMaxPool1D:
    def test_basic_window_max(self):
        x = np.array([3.0, 5.0, 7.0, 9.0]).reshape(1, 4, 1)
        y, _ = maxpool1d_forward(x, 2)
        assert y.reshape(-1).tolist() == [5.0, 9.0]

    def test_remainder_dropped(self):
        x = np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1)
        y, _ = maxpool1d_forward(x, 2)
        assert y.reshape(-1).tolist() == [2.0]

    def test_floor_semantics_at_scale(self):
        y, _ = maxpool1d_forward(np.zeros((1, 16727, 2)), 2)
        assert y.shape == (1, 8363, 2)

    def test_tie_takes_first_maximum(self):
        x = np.array([7.0, 7.0]).reshape(1, 2, 1)
        y, cache = maxpool1d_forward(x, 2)
        dx = maxpool1d_backward(np.ones_like(y), cache, 2)
        assert dx.reshape(-1).tolist() == [1.0, 0.0]

    def test_backward_routes_each_gradient_to_one_position(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 11, 4))
        y, cache = maxpool1d_forward(x, 2)
        dy = np.ones_like(y)
        dx = maxpool1d_backward(dy, cache, 2)
        # each pooled window contributes exactly one nonzero slot
        assert int((dx != 0).sum()) == y.size
        assert dx.sum() == pytest.approx(dy.sum())
        assert (dx[:, 10, :] == 0).all()  # dropped remainder gets no gradient


class TestDropout:
    def test_rate_zero_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 5))
        mask = np.ones_like(x, dtype=bool)
        np.testing.assert_array_equal(dropout_forward(x, 0.0, mask), x)

    def test_inverted_scaling(self):
        x = np.ones((2, 4))
        mask = np.array([[True, False, True, True], [False, True, True, False]])
        y = dropout_forward(x, 0.5, mask)
        assert set(np.unique(y)) == {0.0, 2.0}
        np.testing.assert_array_equal(dropout_backward(np.ones_like(x), 0.5, mask), y)

    def test_empirical_drop_fraction(self):
        rng = np.random.default_rng(123)
        mask = sample_dropout_mask(rng, (100_000,), 0.166)
        dropped = 1.0 - mask.mean()
        assert abs(dropped - 0.166) < 0.01

    @pytest.mark.parametrize("shape", [
        (0,), (1,), (layers_module.DROPOUT_CHUNK - 1,), (layers_module.DROPOUT_CHUNK,),
        (layers_module.DROPOUT_CHUNK + 1,), (32, 1044, 128), (3, 0, 5),
    ])
    def test_chunked_mask_is_one_whole_draw(self, shape):
        """The mask's bytes, and the generator's next draw, are those of one
        `rng.random(shape) >= rate`."""
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        mask = sample_dropout_mask(rng, shape, 0.166)
        want = ref.random(shape) >= 0.166
        assert mask.dtype == bool and mask.shape == want.shape
        assert mask.tobytes() == want.tobytes()
        assert rng.random() == ref.random()

    def test_mask_draw_holds_the_mask_and_one_chunk(self):
        rng = np.random.default_rng(6)
        mask, peak = _traced_peak(sample_dropout_mask, rng, (32, 1044, 128), 0.166)
        chunk = layers_module.DROPOUT_CHUNK * np.dtype(np.float64).itemsize
        assert peak <= mask.nbytes + 1.1 * chunk, (peak, mask.nbytes, chunk)

    def test_expected_value_preserved(self):
        rng = np.random.default_rng(7)
        x = np.ones(100_000)
        mask = sample_dropout_mask(rng, x.shape, 0.166)
        y = dropout_forward(x, 0.166, mask)
        assert y.mean() == pytest.approx(1.0, abs=0.01)


class TestLSTM:
    def test_zero_parameters_zero_output(self):
        x = np.random.default_rng(0).normal(size=(2, 7, 3))
        h, _ = lstm_forward(x, np.zeros((3, 8)), np.zeros((2, 8)), np.zeros(8))
        assert (h == 0).all()

    def test_single_step_scalar_matches_hand_evaluation(self):
        # one unit, one channel, one step: h = o * tanh(i * g)
        w = np.array([[0.4, -0.3, 0.8, 0.2]])
        u = np.zeros((1, 4))
        b = np.array([0.1, 0.0, -0.2, 0.3])
        x_val = 1.7
        x = np.array([[[x_val]]])
        i = _sigmoid(0.4 * x_val + 0.1)
        g = np.tanh(0.8 * x_val - 0.2)
        o = _sigmoid(0.2 * x_val + 0.3)
        expected = o * np.tanh(i * g)
        h, _ = lstm_forward(x, w, u, b)
        assert h[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_two_step_scalar_matches_hand_evaluation(self):
        w = np.array([[0.4, -0.3, 0.8, 0.2]])
        u = np.array([[0.5, -0.1, 0.3, -0.7]])
        b = np.array([0.1, 0.2, -0.2, 0.3])
        xs = [1.7, -0.6]
        h_t, c_t = 0.0, 0.0
        for x_val in xs:
            i = _sigmoid(0.4 * x_val + 0.5 * h_t + 0.1)
            f = _sigmoid(-0.3 * x_val - 0.1 * h_t + 0.2)
            g = np.tanh(0.8 * x_val + 0.3 * h_t - 0.2)
            o = _sigmoid(0.2 * x_val - 0.7 * h_t + 0.3)
            c_t = f * c_t + i * g
            h_t = o * np.tanh(c_t)
        x = np.array(xs).reshape(1, 2, 1)
        h, _ = lstm_forward(x, w, u, b)
        assert h[0, 0] == pytest.approx(h_t, rel=1e-12)

    def test_parameter_count_formula(self):
        params = LSTMSpec(64).init((10, 24), np.random.default_rng(0), np.float64)
        total = sum(p.size for p in params.values())
        assert total == 4 * ((24 + 64) * 64 + 64) == 22784

    def test_forget_gate_bias_offset(self):
        params = LSTMSpec(3).init((10, 2), np.random.default_rng(0), np.float32)
        assert params["b"][3:6].tolist() == [1.0, 1.0, 1.0]
        assert params["b"][:3].tolist() == [0.0, 0.0, 0.0]

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError, match="zero time steps"):
            lstm_forward(np.zeros((1, 0, 2)), np.zeros((2, 4)), np.zeros((1, 4)), np.zeros(4))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 3))
        w = rng.normal(size=(3, 16)) * 0.4
        u = rng.normal(size=(4, 16)) * 0.4
        b = rng.normal(size=16) * 0.2
        r = rng.normal(size=(2, 4))

        def loss():
            h, _ = lstm_forward(x, w, u, b)
            return float((h * r).sum())

        h, cache = lstm_forward(x, w, u, b)
        dx, dw, du, db = lstm_backward(r, cache, w, u)
        step = 1e-6
        for tensor, grad in ((x, dx), (w, dw), (u, du), (b, db)):
            it = np.nditer(tensor, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = tensor[idx]
                tensor[idx] = orig + step
                up = loss()
                tensor[idx] = orig - step
                down = loss()
                tensor[idx] = orig
                assert (up - down) / (2 * step) == pytest.approx(grad[idx], rel=1e-4, abs=1e-8)


class TestDense:
    def test_sigmoid_at_zero(self):
        y, _ = dense_forward(np.zeros((1, 3)), np.zeros((3, 2)), np.zeros(2), "sigmoid")
        assert y.tolist() == [[0.5, 0.5]]

    def test_relu_clamps_negative(self):
        x = np.array([[-1.0, -2.0]])
        y, _ = dense_forward(x, np.eye(2), np.zeros(2), "relu")
        assert (y == 0).all()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            dense_forward(np.zeros((1, 3)), np.zeros((4, 2)), np.zeros(2), "relu")

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        for activation in ("relu", "sigmoid"):
            x = rng.normal(size=(3, 4)) + 0.05  # keep relu inputs off the kink
            w = rng.normal(size=(4, 2))
            b = rng.normal(size=2)
            r = rng.normal(size=(3, 2))

            def loss():
                y, _ = dense_forward(x, w, b, activation)
                return float((y * r).sum())

            _, cache = dense_forward(x, w, b, activation)
            dx, dw, db = dense_backward(r, cache, w, activation)
            h = 1e-6
            for tensor, grad in ((x, dx), (w, dw), (b, db)):
                it = np.nditer(tensor, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = tensor[idx]
                    tensor[idx] = orig + h
                    up = loss()
                    tensor[idx] = orig - h
                    down = loss()
                    tensor[idx] = orig
                    assert (up - down) / (2 * h) == pytest.approx(grad[idx], rel=1e-4, abs=1e-8)


class TestSpecs:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Conv1DSpec(0, 4)
        with pytest.raises(ValueError):
            MaxPool1DSpec(0)
        with pytest.raises(ValueError):
            DropoutSpec(1.0)
        with pytest.raises(ValueError):
            LSTMSpec(0)
        with pytest.raises(ValueError):
            DenseSpec(4, "softmax")


def test_stable_sigmoid_extremes():
    x = np.array([-800.0, 0.0, 800.0])
    y = sigmoid(x)
    assert y[0] == 0.0 and y[1] == 0.5 and y[2] == 1.0
    assert np.isfinite(sigmoid(np.array([-1e4, 1e4]))).all()


# ---------------------------------------------------------------------------
# Reference kernels. The current kernels must give the same bytes, forward
# and backward, as the pool, LSTM and dense kernels as they were before their
# caches were cut to what backward reads; as the conv kernels as whole-batch
# shifted matmuls (`_batch_conv1d_*`), before they took one sample at a time;
# with one input channel, as broadcast multiplies (`_broadcast_conv1d_forward`),
# before they took blocks of rows; and as the masked sigmoid. The conv kernels
# as they were before they became k shifted matmuls (`_ref_conv1d_*`) sum in
# another order, so they agree to rounding.

def _ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _ref_conv1d_forward(x, w, b):
    windows = sliding_window_view(x, w.shape[0], axis=1)  # (B, L-k+1, C, k)
    return np.einsum("btck,kcf->btf", windows, w) + b, x


def _ref_conv1d_backward(dy, x, w):
    k = w.shape[0]
    dw = np.einsum("btck,btf->kcf", sliding_window_view(x, k, axis=1), dy)
    db = dy.sum(axis=(0, 1))
    dyp = np.pad(dy, ((0, 0), (k - 1, k - 1), (0, 0)))
    dx = np.einsum("btfk,kcf->btc", sliding_window_view(dyp, k, axis=1), w[::-1])
    return dx, dw, db


def _batch_conv1d_forward(x, w, b):
    steps = x.shape[1] - w.shape[0] + 1
    y = x[:, :steps] @ w[0]
    for j in range(1, w.shape[0]):
        y += x[:, j : j + steps] @ w[j]
    y += b
    return y, x


def _broadcast_conv1d_forward(x, w, b):
    """One-channel forward as one broadcast multiply per tap over the batch."""
    steps = x.shape[1] - w.shape[0] + 1
    y = x[:, :steps] * w[0]
    for j in range(1, w.shape[0]):
        y += x[:, j : j + steps] * w[j]
    y += b
    return y


def _batch_conv1d_backward(dy, x, w):
    k = w.shape[0]
    steps = dy.shape[1]
    dx = np.zeros(x.shape, dtype=np.result_type(dy, w))
    for j in range(k):
        dx[:, j : j + steps] += dy @ w[j].T
    dw = np.stack([(x[:, j : j + steps].transpose(0, 2, 1) @ dy).sum(axis=0) for j in range(k)])
    db = dy.sum(axis=(0, 1))
    return dx, dw, db


def _ref_maxpool1d_forward(x, pool):
    b, length, c = x.shape
    out_len = length // pool
    tiles = x[:, : out_len * pool, :].reshape(b, out_len, pool, c)
    arg = tiles.argmax(axis=2)
    y = np.take_along_axis(tiles, arg[:, :, None, :], axis=2).squeeze(2)
    return y, (arg, x.shape)


def _ref_maxpool1d_backward(dy, cache, pool):
    arg, x_shape = cache
    b, length, c = x_shape
    out_len = length // pool
    dtiles = np.zeros((b, out_len, pool, c), dtype=dy.dtype)
    np.put_along_axis(dtiles, arg[:, :, None, :], dy[:, :, None, :], axis=2)
    dx = np.zeros(x_shape, dtype=dy.dtype)
    dx[:, : out_len * pool, :] = dtiles.reshape(b, out_len * pool, c)
    return dx


def _ref_lstm_forward(x, w, u, b):
    batch, steps, _ = x.shape
    units = u.shape[0]
    h = np.zeros((batch, units), dtype=x.dtype)
    c = np.zeros((batch, units), dtype=x.dtype)
    gi = np.empty((steps, batch, units), dtype=x.dtype)
    gf, gg, go, tanh_c, h_prev, c_prev = (np.empty_like(gi) for _ in range(6))
    for t in range(steps):
        z = x[:, t, :] @ w + h @ u + b
        i = sigmoid(z[:, :units])
        f = sigmoid(z[:, units : 2 * units])
        g = np.tanh(z[:, 2 * units : 3 * units])
        o = sigmoid(z[:, 3 * units :])
        h_prev[t], c_prev[t] = h, c
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        gi[t], gf[t], gg[t], go[t], tanh_c[t] = i, f, g, o, tc
    return h, (x, h_prev, c_prev, gi, gf, gg, go, tanh_c)


def _ref_lstm_backward(dh, cache, w, u):
    x, h_prev, c_prev, gi, gf, gg, go, tanh_c = cache
    steps = gi.shape[0]
    units = u.shape[0]
    dw = np.zeros_like(w)
    du = np.zeros_like(u)
    db = np.zeros(4 * units, dtype=w.dtype)
    dx = np.empty_like(x)
    dc = np.zeros_like(dh)
    for t in reversed(range(steps)):
        i, f, g, o, tc = gi[t], gf[t], gg[t], go[t], tanh_c[t]
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc**2)
        dz = np.concatenate(
            [dc * g * i * (1.0 - i), dc * c_prev[t] * f * (1.0 - f), dc * i * (1.0 - g**2), do * o * (1.0 - o)],
            axis=1,
        )
        dw += x[:, t, :].T @ dz
        du += h_prev[t].T @ dz
        db += dz.sum(axis=0)
        dx[:, t, :] = dz @ w.T
        dh = dz @ u.T
        dc = dc * f
    return dx, dw, du, db


def _ref_dense_forward(x, w, b, activation):
    z = x @ w + b
    if activation == "relu":
        a = np.maximum(z, 0.0)
    elif activation == "sigmoid":
        a = sigmoid(z)
    else:
        a = z
    return a, (x, z, a)


def _ref_dense_backward(dy, cache, w, activation):
    x, z, a = cache
    if activation == "relu":
        dz = dy * (z > 0)
    elif activation == "sigmoid":
        dz = dy * a * (1.0 - a)
    else:
        dz = dy
    return dz @ w.T, x.T @ dz, dz.sum(axis=0)


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


DTYPES = (np.float32, np.float64)


class TestAgainstReferenceKernels:
    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize(
        "batch, length, channels, filters, kernel",
        [
            (3, 40, 1, 6, 5),  # one input channel, as in the first layer
            (4, 33, 7, 5, 4),
            (2, 12, 3, 4, 1),  # k = 1
            (2, 6, 3, 4, 6),  # output of length 1
            (1, 25, 5, 3, 3),  # batch 1
        ],
    )
    def test_conv1d(self, dtype, rtol, batch, length, channels, filters, kernel):
        rng = np.random.default_rng(length * kernel + channels)
        x = rng.normal(size=(batch, length, channels)).astype(dtype)
        w = rng.normal(size=(kernel, channels, filters)).astype(dtype)
        b = rng.normal(size=filters).astype(dtype)
        y, cache = conv1d_forward(x, w, b)
        ref_y, ref_cache = _ref_conv1d_forward(x, w, b)
        dy = rng.normal(size=ref_y.shape).astype(dtype)
        pairs = [(y, ref_y), *zip(conv1d_backward(dy, cache, w), _ref_conv1d_backward(dy, ref_cache, w))]
        for got, want in pairs:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.abs(got - want).max() <= rtol * np.abs(want).max()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "batch, length, channels, filters, kernel",
        [
            (3, 40, 1, 6, 5),  # one input channel, as in the first layer
            (16, 600, 1, 16, 8),
            (4, 33, 7, 5, 4),
            (16, 300, 16, 24, 6),
            (2, 12, 1, 4, 1),  # k = 1
            (2, 12, 3, 4, 1),
            (2, 6, 1, 4, 6),  # output of length 1
            (2, 6, 3, 4, 6),
            (1, 25, 1, 3, 3),  # batch 1
            (1, 25, 5, 3, 3),
        ],
    )
    def test_conv1d_same_bytes_as_whole_batch(self, dtype, batch, length, channels, filters, kernel):
        rng = np.random.default_rng(length * kernel + channels)
        x = rng.normal(size=(batch, length, channels)).astype(dtype)
        x[:, 2 * length // 3 :] = 0.0  # a zero tail, like the feature vectors' padding
        w = rng.normal(size=(kernel, channels, filters)).astype(dtype)
        b = rng.normal(size=filters).astype(dtype)
        y, cache = conv1d_forward(x, w, b)
        ref_y, ref_cache = _batch_conv1d_forward(x, w, b)
        _assert_same_bytes(y, ref_y)
        dy = rng.normal(size=y.shape).astype(dtype)
        for got, want in zip(conv1d_backward(dy, cache, w), _batch_conv1d_backward(dy, ref_cache, w)):
            _assert_same_bytes(got, want)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("kernel", [1, 4])
    @pytest.mark.parametrize("bias", ["zero", "negative-zero", "normal"])
    @pytest.mark.parametrize(
        "block_rows", [5, 23, 40], ids=["several-blocks-last-partial", "one-full-block", "longer-than-output"]
    )
    def test_one_channel_conv1d_blocks_keep_the_bytes(self, monkeypatch, dtype, batch, kernel, bias, block_rows):
        steps = 23
        length = steps + kernel - 1
        monkeypatch.setattr(layers_module, "CONV_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(block_rows * kernel + batch)
        x = rng.normal(size=(batch, length, 1)).astype(dtype)
        x[:, 2 * length // 3 :] = 0.0  # a zero tail, like the feature vectors' padding
        x[:, 1], x[:, 4], x[:, 9], x[:, 12] = -0.0, np.inf, -np.inf, np.nan
        w = rng.normal(size=(kernel, 1, 6)).astype(dtype)
        w[:, 0, 0] = -np.abs(w[:, 0, 0])  # every tap of the zero tail gives filter 0 a -0.0
        b = {"zero": 0.0, "negative-zero": -0.0, "normal": rng.normal(size=6)}[bias]
        b = np.broadcast_to(b, 6).astype(dtype)
        y, _ = conv1d_forward(x, w, b)
        assert y.dtype == dtype and y.tobytes() == _broadcast_conv1d_forward(x, w, b).tobytes()
        assert np.isnan(y).any() and np.isinf(y).any()
        assert np.signbit(y[y == 0]).any() == (bias == "negative-zero")
        if bias != "negative-zero":  # the K = 1 GEMM writes +0.0 for 0 times a negative weight
            assert y.tobytes() == _batch_conv1d_forward(x, w, b)[0].tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_sigmoid(self, dtype):
        special = [-0.0, 0.0, 800.0, -800.0, 1e4, -1e4, np.nan, -np.nan, np.inf, -np.inf]
        x = np.concatenate([special, np.random.default_rng(7).normal(scale=30.0, size=1000)])
        x = x.astype(dtype)
        got, want = sigmoid(x), _ref_sigmoid(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # NaN compares by its bits here

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "length, pool, tied",
        [(12, 2, False), (11, 2, False), (13, 3, False), (12, 2, True), (11, 3, True), (5, 1, False)],
    )
    def test_maxpool(self, dtype, length, pool, tied):
        rng = np.random.default_rng(length * pool)
        shape = (3, length, 4)
        # Values from {1, 2, 3} make most windows hold a tied maximum.
        x = (rng.integers(1, 4, shape) if tied else rng.normal(size=shape)).astype(dtype)
        y, cache = maxpool1d_forward(x, pool)
        ref_y, ref_cache = _ref_maxpool1d_forward(x, pool)
        _assert_same_bytes(y, ref_y)
        dy = rng.normal(size=y.shape).astype(dtype)
        _assert_same_bytes(maxpool1d_backward(dy, cache, pool), _ref_maxpool1d_backward(dy, ref_cache, pool))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("pool, remainder", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 2), (4, 0), (4, 3)])
    def test_maxpool_backward_corners(self, dtype, pool, remainder):
        rng = np.random.default_rng(pool * 10 + remainder)
        x = rng.integers(1, 4, (2, 8 * pool + remainder, 3)).astype(dtype)  # many tied maxima
        x[:, :pool] = 5.0  # every value of the first window equal
        x[:, pool : 2 * pool] = -np.inf  # a window whose maximum is -inf
        x[:, 2 * pool : 3 * pool] = -rng.random((2, pool, 3))  # a negative maximum
        x[:, 3 * pool : 4 * pool : 2] = -0.0  # signed zeros tie with +0.0
        x[:, 3 * pool + 1 : 4 * pool : 2] = 0.0
        x[:, 8 * pool :] = 9.0  # the dropped remainder outranks every window
        y, cache = maxpool1d_forward(x, pool)
        _, ref_cache = _ref_maxpool1d_forward(x, pool)
        dy = rng.normal(size=y.shape).astype(dtype)
        dy[:, ::3] = -0.0
        dy[:, 1::3, 0] = 0.0
        assert (dy < 0).any() and np.signbit(dy[dy == 0]).any()
        _assert_same_bytes(maxpool1d_backward(dy, cache, pool), _ref_maxpool1d_backward(dy, ref_cache, pool))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("steps", [9, 600])
    def test_lstm(self, steps, dtype):
        rng = np.random.default_rng(5)
        x, w, u, b, dh = (
            rng.normal(size=shape).astype(dtype) * scale
            for shape, scale in (((3, steps, 2), 1.0), ((2, 20), 0.5), ((5, 20), 0.5), ((20,), 0.3), ((3, 5), 1.0))
        )
        h, cache = lstm_forward(x, w, u, b)
        ref_h, ref_cache = _ref_lstm_forward(x, w, u, b)
        _assert_same_bytes(h, ref_h)
        for got, want in zip(lstm_backward(dh, cache, w, u), _ref_lstm_backward(dh, ref_cache, w, u)):
            _assert_same_bytes(got, want)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_dense(self, dtype, activation):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 4)).astype(dtype)
        x[0] = 0.0  # with b[0] = 0 this row's first pre-activation is exactly 0
        w = rng.normal(size=(4, 3)).astype(dtype)
        b = rng.normal(size=3).astype(dtype)
        b[0] = 0.0
        dy = rng.normal(size=(5, 3)).astype(dtype)
        a, cache = dense_forward(x, w, b, activation)
        ref_a, ref_cache = _ref_dense_forward(x, w, b, activation)
        _assert_same_bytes(a, ref_a)
        got = dense_backward(dy, cache, w, activation)
        for g, want in zip(got, _ref_dense_backward(dy, ref_cache, w, activation)):
            _assert_same_bytes(g, want)


def test_one_channel_conv_forward_holds_at_most_two_outputs():
    """The output plus one tap's product. Inference calls it on one row at
    a time, so at inference it holds about two rows' output."""
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, 3000, 1)).astype(np.float32)
    w = rng.normal(size=(6, 1, 16)).astype(np.float32)
    b = np.zeros(16, dtype=np.float32)
    tracemalloc.start()
    try:
        y, _ = conv1d_forward(x, w, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * y.nbytes


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("channels", [1, 8])
def test_conv_forward_holds_the_output_and_one_sample_product(channels):
    rng = np.random.default_rng(10)
    x = rng.normal(size=(16, 3000, channels)).astype(np.float32)
    w = rng.normal(size=(6, channels, 16)).astype(np.float32)
    b = rng.normal(size=16).astype(np.float32)
    (y, _), peak = _traced_peak(conv1d_forward, x, w, b)
    assert peak <= 1.15 * y.nbytes, (peak, y.nbytes)


@pytest.mark.parametrize("length", [3000, 30000])
def test_one_channel_conv_scratch_depends_on_the_block_not_the_length(length):
    rng = np.random.default_rng(13)
    x = rng.normal(size=(2, length, 1)).astype(np.float32)
    w = rng.normal(size=(4, 1, 128)).astype(np.float32)
    b = rng.normal(size=128).astype(np.float32)
    (y, _), peak = _traced_peak(conv1d_forward, x, w, b)
    assert peak - y.nbytes <= 1 << 20, (peak, y.nbytes)


def test_conv_backward_holds_dx_dw_and_one_sample_product():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(16, 3000, 8)).astype(np.float32)
    w = rng.normal(size=(6, 8, 16)).astype(np.float32)
    dy = rng.normal(size=(16, 2995, 16)).astype(np.float32)
    (dx, dw, _), peak = _traced_peak(conv1d_backward, dy, x, w)
    assert peak <= 1.15 * (dx.nbytes + dw.nbytes), (peak, dx.nbytes + dw.nbytes)


def test_maxpool_forward_allocates_only_its_output():
    x = np.random.default_rng(8).normal(size=(4, 2000, 8)).astype(np.float32)
    (y, cache), peak = _traced_peak(lambda: maxpool1d_forward(x, 2, want_cache=False))
    assert cache is None
    assert peak <= 1.1 * y.nbytes


@pytest.mark.parametrize("pool", [2, 3])
def test_maxpool_forward_caches_one_bool_per_input(pool):
    """The cache is the routing mask, not the input: the forward holds its
    output, the mask and one window-sized bool of offsets already taken.
    numpy's ufunc buffers add a fixed 43 KB, 1.6-2.5 % here when measured."""
    x = np.random.default_rng(8).normal(size=(32, 3000, 8)).astype(np.float32)
    (y, cache), peak = _traced_peak(maxpool1d_forward, x, pool)
    (routed,) = cache
    assert routed.dtype == bool and routed.shape == x.shape
    held = y.nbytes + routed.nbytes + y.size
    assert peak <= 1.05 * held, (peak, held)


def test_lstm_forward_holds_less_than_its_input():
    """Only the current h and c live through the steps; the histories are
    rebuilt by the backward pass."""
    rng = np.random.default_rng(14)
    x = rng.normal(size=(8, 600, 24)).astype(np.float32)
    w = (rng.normal(size=(24, 256)) * 0.2).astype(np.float32)
    u = (rng.normal(size=(64, 256)) * 0.2).astype(np.float32)
    b = np.zeros(256, dtype=np.float32)
    _, peak = _traced_peak(lstm_forward, x, w, u, b)
    assert peak < x.nbytes, (peak, x.nbytes)


def test_maxpool_backward_holds_dx_the_window_maxima_and_two_masks():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(4, 3000, 8)).astype(np.float32)
    y, cache = maxpool1d_forward(x, 2)
    dy = rng.normal(size=y.shape).astype(np.float32)
    dx, peak = _traced_peak(maxpool1d_backward, dy, cache, 2)
    assert peak <= 2.1 * dx.nbytes, (peak, dx.nbytes)


@pytest.mark.parametrize("pool", [2, 3])
def test_maxpool_backward_allocates_only_dx(pool):
    """The routing mask spares the backward the window maxima and its own
    masks. numpy's ufunc buffers add a fixed 67 KB, 2.2 % here when measured."""
    rng = np.random.default_rng(12)
    x = rng.normal(size=(32, 3000, 8)).astype(np.float32)
    y, cache = maxpool1d_forward(x, pool)
    dy = rng.normal(size=y.shape).astype(np.float32)
    dx, peak = _traced_peak(maxpool1d_backward, dy, cache, pool)
    assert peak <= 1.1 * dx.nbytes, (peak, dx.nbytes)
