"""Layer math: forward passes, cached intermediates and exact backward passes.

The kernels are pure functions; parameters and gradients travel as plain
numpy arrays. Shapes follow the (batch, length, channels) convention for
sequence layers and (batch, features) after the recurrent layer.

Each layer kind is one spec class below (the contract is in network.py);
`LAYER_KINDS` maps each checkpoint tag to its class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

ACTIVATIONS = ("relu", "sigmoid", "linear")


class ShapeError(ValueError):
    pass


@dataclass(frozen=True)
class Conv1DSpec:
    kind: ClassVar[str] = "conv1d"
    filters: int
    kernel: int

    def __post_init__(self):
        if self.filters < 1 or self.kernel < 1:
            raise ValueError("conv filters and kernel must be >= 1")

    def out_shape(self, in_shape):
        if len(in_shape) != 2:
            raise ShapeError("convolution needs sequence input")
        out_len = in_shape[0] - self.kernel + 1
        if out_len < 1:
            raise ShapeError(f"output length {out_len} < 1")
        return (out_len, self.filters)

    def init(self, in_shape, rng, dtype) -> dict:
        in_channels = in_shape[-1]
        limit = np.sqrt(1.0 / (self.kernel * in_channels))
        w = rng.uniform(-limit, limit, (self.kernel, in_channels, self.filters))
        return {"w": w.astype(dtype), "b": np.zeros(self.filters, dtype=dtype)}

    def forward(self, x, params, mask_source):
        return conv1d_forward(x, params["w"], params["b"])

    def backward(self, dy, cache, params):
        dx, dw, db = conv1d_backward(dy, cache, params["w"])
        return dx, {"w": dw, "b": db}


@dataclass(frozen=True)
class MaxPool1DSpec:
    kind: ClassVar[str] = "maxpool1d"
    pool: int

    def __post_init__(self):
        if self.pool < 1:
            raise ValueError("pool size must be >= 1")

    def out_shape(self, in_shape):
        if len(in_shape) != 2:
            raise ShapeError("pooling needs sequence input")
        out_len = in_shape[0] // self.pool
        if out_len < 1:
            raise ShapeError(f"output length {out_len} < 1")
        return (out_len, in_shape[1])

    def init(self, in_shape, rng, dtype) -> dict:
        return {}

    def forward(self, x, params, mask_source):
        return maxpool1d_forward(x, self.pool)

    def backward(self, dy, cache, params):
        return maxpool1d_backward(dy, cache, self.pool), {}


@dataclass(frozen=True)
class DropoutSpec:
    kind: ClassVar[str] = "dropout"
    rate: float

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")

    def out_shape(self, in_shape):
        return in_shape

    def init(self, in_shape, rng, dtype) -> dict:
        return {}

    def forward(self, x, params, mask_source):
        """Identity (cache None) at inference or at rate 0; otherwise draws
        its mask from `mask_source(shape, rate)` and caches it."""
        if mask_source is None or self.rate == 0.0:
            return x, None
        mask = mask_source(x.shape, self.rate)
        return dropout_forward(x, self.rate, mask), mask

    def backward(self, dy, cache, params):
        return (dy if cache is None else dropout_backward(dy, self.rate, cache)), {}


@dataclass(frozen=True)
class LSTMSpec:
    kind: ClassVar[str] = "lstm"
    units: int

    def __post_init__(self):
        if self.units < 1:
            raise ValueError("lstm units must be >= 1")

    def out_shape(self, in_shape):
        if len(in_shape) != 2:
            raise ShapeError("lstm needs sequence input")
        return (self.units,)

    def init(self, in_shape, rng, dtype) -> dict:
        return init_lstm(self, in_shape[-1], rng, dtype)

    def forward(self, x, params, mask_source):
        return lstm_forward(x, params["w"], params["u"], params["b"])

    def backward(self, dy, cache, params):
        dx, dw, du, db = lstm_backward(dy, cache, params["w"], params["u"])
        return dx, {"w": dw, "u": du, "b": db}


@dataclass(frozen=True)
class DenseSpec:
    kind: ClassVar[str] = "dense"
    units: int
    activation: str = "linear"

    def __post_init__(self):
        if self.units < 1:
            raise ValueError("dense units must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    def out_shape(self, in_shape):
        if len(in_shape) != 1:
            raise ShapeError("dense needs flat feature input")
        return (self.units,)

    def init(self, in_shape, rng, dtype) -> dict:
        in_features = in_shape[0]
        limit = np.sqrt(1.0 / in_features)
        w = rng.uniform(-limit, limit, (in_features, self.units))
        return {"w": w.astype(dtype), "b": np.zeros(self.units, dtype=dtype)}

    def forward(self, x, params, mask_source):
        return dense_forward(x, params["w"], params["b"], self.activation)

    def backward(self, dy, cache, params):
        dx, dw, db = dense_backward(dy, cache, params["w"], self.activation)
        return dx, {"w": dw, "b": db}


LayerSpec = Conv1DSpec | MaxPool1DSpec | DropoutSpec | LSTMSpec | DenseSpec

LAYER_KINDS = {cls.kind: cls for cls in (Conv1DSpec, MaxPool1DSpec, DropoutSpec, LSTMSpec, DenseSpec)}


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# Conv1D (valid convolution, stride 1, no padding)

def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """x (B, L, C), w (k, C, F), b (F,) -> (B, L-k+1, F)."""
    k = w.shape[0]
    if x.shape[1] < k:
        raise ValueError(f"input length {x.shape[1]} shorter than kernel {k}")
    windows = sliding_window_view(x, k, axis=1)  # (B, L-k+1, C, k)
    y = np.einsum("btck,kcf->btf", windows, w) + b
    return y, x


def conv1d_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray):
    k = w.shape[0]
    windows = sliding_window_view(x, k, axis=1)
    dw = np.einsum("btck,btf->kcf", windows, dy)
    db = dy.sum(axis=(0, 1))
    dyp = np.pad(dy, ((0, 0), (k - 1, k - 1), (0, 0)))
    dy_windows = sliding_window_view(dyp, k, axis=1)  # (B, L, F, k)
    dx = np.einsum("btfk,kcf->btc", dy_windows, w[::-1])
    return dx, dw, db


# ---------------------------------------------------------------------------
# MaxPool1D (stride == pool, trailing remainder dropped)

def maxpool1d_forward(x: np.ndarray, pool: int):
    b, length, c = x.shape
    out_len = length // pool
    tiles = x[:, : out_len * pool, :].reshape(b, out_len, pool, c)
    arg = tiles.argmax(axis=2)  # first max wins on ties
    y = np.take_along_axis(tiles, arg[:, :, None, :], axis=2).squeeze(2)
    return y, (arg, x.shape)


def maxpool1d_backward(dy: np.ndarray, cache, pool: int):
    arg, x_shape = cache
    b, length, c = x_shape
    out_len = length // pool
    dtiles = np.zeros((b, out_len, pool, c), dtype=dy.dtype)
    np.put_along_axis(dtiles, arg[:, :, None, :], dy[:, :, None, :], axis=2)
    dx = np.zeros(x_shape, dtype=dy.dtype)
    dx[:, : out_len * pool, :] = dtiles.reshape(b, out_len * pool, c)
    return dx


# ---------------------------------------------------------------------------
# Dropout (inverted: survivors scaled by 1/(1-rate) at train time)

def sample_dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    return rng.random(shape) >= rate


def dropout_forward(x: np.ndarray, rate: float, mask: np.ndarray) -> np.ndarray:
    return x * mask / (1.0 - rate)


def dropout_backward(dy: np.ndarray, rate: float, mask: np.ndarray) -> np.ndarray:
    return dy * mask / (1.0 - rate)


# ---------------------------------------------------------------------------
# LSTM (single layer, zero initial state, returns final hidden state)
#
# Gate layout along the 4U axis: input, forget, candidate, output.

def lstm_forward(x: np.ndarray, w: np.ndarray, u: np.ndarray, b: np.ndarray):
    """x (B, T, C), w (C, 4U), u (U, 4U), b (4U,) -> h_T (B, U)."""
    batch, steps, _ = x.shape
    units = u.shape[0]
    if steps == 0:
        raise ValueError("lstm input has zero time steps")
    h = np.zeros((batch, units), dtype=x.dtype)
    c = np.zeros((batch, units), dtype=x.dtype)
    gi = np.empty((steps, batch, units), dtype=x.dtype)
    gf = np.empty_like(gi)
    gg = np.empty_like(gi)
    go = np.empty_like(gi)
    tanh_c = np.empty_like(gi)
    h_prev = np.empty_like(gi)
    c_prev = np.empty_like(gi)
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


def lstm_backward(dh: np.ndarray, cache, w: np.ndarray, u: np.ndarray):
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
            [
                dc * g * i * (1.0 - i),
                dc * c_prev[t] * f * (1.0 - f),
                dc * i * (1.0 - g**2),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        dw += x[:, t, :].T @ dz
        du += h_prev[t].T @ dz
        db += dz.sum(axis=0)
        dx[:, t, :] = dz @ w.T
        dh = dz @ u.T
        dc = dc * f
    return dx, dw, du, db


# ---------------------------------------------------------------------------
# Dense

def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, activation: str):
    """x (B, n), w (n, m), b (m,) -> (B, m)."""
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"dense input width {x.shape[1]} != weight rows {w.shape[0]}")
    z = x @ w + b
    if activation == "relu":
        a = np.maximum(z, 0.0)
    elif activation == "sigmoid":
        a = sigmoid(z)
    else:
        a = z
    return a, (x, z, a)


def dense_backward(dy: np.ndarray, cache, w: np.ndarray, activation: str):
    x, z, a = cache
    if activation == "relu":
        dz = dy * (z > 0)
    elif activation == "sigmoid":
        dz = dy * a * (1.0 - a)
    else:
        dz = dy
    dw = x.T @ dz
    db = dz.sum(axis=0)
    dx = dz @ w.T
    return dx, dw, db


# ---------------------------------------------------------------------------
# LSTM parameter initialization (fan-in-scaled uniform kernels, zero biases,
# forget-gate bias offset +1)

def init_lstm(spec: LSTMSpec, in_channels: int, rng: np.random.Generator, dtype) -> dict:
    limit = np.sqrt(1.0 / (in_channels + spec.units))
    w = rng.uniform(-limit, limit, (in_channels, 4 * spec.units))
    u = rng.uniform(-limit, limit, (spec.units, 4 * spec.units))
    b = np.zeros(4 * spec.units, dtype=dtype)
    b[spec.units : 2 * spec.units] = 1.0
    return {"w": w.astype(dtype), "u": u.astype(dtype), "b": b}
