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

ACTIVATIONS = ("relu", "sigmoid")


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

    def forward(self, x, params, mask_source, want_cache):
        return conv1d_forward(x, params["w"], params["b"])

    def backward(self, dy, cache, params, want_dx):
        """The input gradient, and each gradient's addends as stacks of rows:
        the sample-by-sample products of each tap for `w`, and `dy` taken
        (row, position) by (row, position) for `b`."""
        w = params["w"]
        dx = conv1d_input_grad(dy, w, cache.shape) if want_dx else None
        return dx, {"w": conv1d_weight_terms(dy, cache, len(w)), "b": dy.reshape(1, -1, dy.shape[2])}


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

    def forward(self, x, params, mask_source, want_cache):
        return maxpool1d_forward(x, self.pool, want_cache)

    def backward(self, dy, cache, params, want_dx):
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

    def forward(self, x, params, mask_source, want_cache):
        """Identity (cache None) at inference or at rate 0; otherwise draws
        its mask from `mask_source(shape, rate)` and caches it."""
        if mask_source is None or self.rate == 0.0:
            return x, None
        mask = mask_source(x.shape, self.rate)
        return dropout_forward(x, self.rate, mask), mask

    def backward(self, dy, cache, params, want_dx):
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
        """Fan-in-scaled uniform kernels, zero biases, forget-gate bias +1."""
        in_channels = in_shape[-1]
        limit = np.sqrt(1.0 / (in_channels + self.units))
        w = rng.uniform(-limit, limit, (in_channels, 4 * self.units))
        u = rng.uniform(-limit, limit, (self.units, 4 * self.units))
        b = np.zeros(4 * self.units, dtype=dtype)
        b[self.units : 2 * self.units] = 1.0
        return {"w": w.astype(dtype), "u": u.astype(dtype), "b": b}

    def forward(self, x, params, mask_source, want_cache):
        return lstm_forward(x, params["w"], params["u"], params["b"])

    def backward(self, dy, cache, params, want_dx):
        dx, dw, du, db = lstm_backward(dy, cache, params["w"], params["u"], want_dx)
        return dx, {"w": dw, "u": du, "b": db}


@dataclass(frozen=True)
class DenseSpec:
    kind: ClassVar[str] = "dense"
    units: int
    activation: str

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

    def forward(self, x, params, mask_source, want_cache):
        return dense_forward(x, params["w"], params["b"], self.activation)

    def backward(self, dy, cache, params, want_dx):
        dx, dw, db = dense_backward(dy, cache, params["w"], self.activation)
        return dx, {"w": dw, "b": db}


LayerSpec = Conv1DSpec | MaxPool1DSpec | DropoutSpec | LSTMSpec | DenseSpec

LAYER_KINDS = {cls.kind: cls for cls in (Conv1DSpec, MaxPool1DSpec, DropoutSpec, LSTMSpec, DenseSpec)}


def sigmoid(x: np.ndarray) -> np.ndarray:
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))  # exp of no positive value


# ---------------------------------------------------------------------------
# Conv1D (valid convolution, stride 1, no padding)

# Output rows of one block of the one-channel convolution. A block's repeated
# input, its k weight tiles, its bias tile, one tap product and its slice of
# the output stay in L2 together: 1 MiB for the stock conv1 (128 float32
# filters, k = 4). Set in rows, not bytes, so the scratch shrinks with the
# filter count and stays a small share of the output.
CONV_BLOCK_ROWS = 256


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """x (B, L, C), w (k, C, F), b (F,) -> (B, L-k+1, F): sum over j of x shifted by j @ w[j].

    Each sample's k tap products add into its slice of the output through one
    reused (L-k+1, F) buffer. With one input channel a tap is an outer
    product; `_one_channel_conv1d` takes it in blocks instead."""
    k = w.shape[0]
    if x.shape[1] < k:
        raise ValueError(f"input length {x.shape[1]} shorter than kernel {k}")
    steps = x.shape[1] - k + 1
    y = np.empty((x.shape[0], steps, w.shape[2]), dtype=np.result_type(x, w))
    if x.shape[2] == 1:
        _one_channel_conv1d(x, w, b, y)
        return y, x
    term = np.empty(y.shape[1:], dtype=y.dtype)
    for xs, ys in zip(x, y):
        np.matmul(xs[:steps], w[0], out=ys)
        for j in range(1, k):
            ys += np.matmul(xs[j : j + steps], w[j], out=term)
    y += b
    return y, x


def _one_channel_conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray, y: np.ndarray) -> None:
    """Fill y with the one-channel convolution, CONV_BLOCK_ROWS output rows at a time.

    Every multiply and add takes same-shape contiguous operands, which numpy
    runs at about half the cost of broadcasting a (T, 1) column against an
    (F,) row: the block's input repeated across the filters, each `w[j]` and
    `b` tiled down the rows. Each output element gets tap 0, + tap 1, ...,
    + b, in that order and in each operand's own dtype, so the bytes do not
    depend on the block size and equal those of one broadcast multiply per
    tap over the whole sample."""
    k, _, filters = w.shape
    steps = y.shape[1]
    rows = min(steps, CONV_BLOCK_ROWS)
    taps = [np.tile(wj, (rows, 1)) for wj in w]
    bias = np.tile(b, (rows, 1))
    spread = np.empty((rows + k - 1, filters), dtype=x.dtype)
    term = np.empty((rows, filters), dtype=y.dtype)
    for xs, ys in zip(x, y):
        for start in range(0, steps, rows):
            n = min(rows, steps - start)
            np.copyto(spread[: n + k - 1], xs[start : start + n + k - 1])
            out = ys[start : start + n]
            np.multiply(spread[:n], taps[0][:n], out=out)
            for j in range(1, k):
                out += np.multiply(spread[j : j + n], taps[j][:n], out=term[:n])
            out += bias[:n]


def conv1d_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray):
    """(dx, dw, db) of one batch."""
    dx = conv1d_input_grad(dy, w, x.shape)
    dw = np.stack([terms.sum(axis=0) for terms in conv1d_weight_terms(dy, x, w.shape[0])])
    db = dy.sum(axis=(0, 1))
    return dx, dw, db


def conv1d_input_grad(dy: np.ndarray, w: np.ndarray, x_shape) -> np.ndarray:
    """Each sample's `dy @ w[j].T`, added into its input positions j .. j+T."""
    k = w.shape[0]
    steps = dy.shape[1]
    dx = np.zeros(x_shape, dtype=np.result_type(dy, w))
    term = np.empty((steps, x_shape[2]), dtype=dx.dtype)
    for dys, dxs in zip(dy, dx):
        for j in range(k):
            dxs[j : j + steps] += np.matmul(dys, w[j].T, out=term)
    return dx


def conv1d_weight_terms(dy: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """(k, B, C, F): tap j's weight gradient of each sample, `x[s, j:j+T].T @ dy[s]`.
    The weight gradient is each tap's sum over the samples."""
    steps = dy.shape[1]
    terms = np.empty((k, x.shape[0], x.shape[2], dy.shape[2]), dtype=np.result_type(x, dy))
    for j in range(k):
        np.matmul(x[:, j : j + steps].transpose(0, 2, 1), dy, out=terms[j])
    return terms


# ---------------------------------------------------------------------------
# MaxPool1D (stride == pool, trailing remainder dropped)

def _tiles(x: np.ndarray, pool: int) -> np.ndarray:
    """(B, L, C) -> a (B, L // pool, pool, C) view of the pooled windows."""
    b, length, c = x.shape
    out_len = length // pool
    return x[:, : out_len * pool, :].reshape(b, out_len, pool, c)


def maxpool1d_forward(x: np.ndarray, pool: int, want_cache: bool = True):
    """(window maxima, (routed,)), or (window maxima, None) without `want_cache`.

    `routed` is one bool per input position, True where the position is its
    window's first maximum, as `argmax` picks it: each offset is marked where
    it equals its window's maximum and no earlier offset was. A window holding
    NaN, and the dropped remainder, route nowhere (argmax would pick the first
    NaN); training refuses a non-finite loss before any backward pass. Cached
    in place of the input, the mask takes a quarter of a float32 input's bytes
    and spares the backward the maxima (Jain et al. 2018, *Gist: Efficient
    Data Encoding for Deep Neural Network Training*)."""
    tiles = _tiles(x, pool)
    y = tiles.max(axis=2)
    if not want_cache:
        return y, None
    routed = np.zeros(x.shape, dtype=bool)
    hits = _tiles(routed, pool)
    taken = np.zeros(y.shape, dtype=bool)
    for j in range(pool):
        hit = hits[:, :, j]
        np.equal(tiles[:, :, j], y, out=hit)
        np.greater(hit, taken, out=hit)  # hit and not taken
        taken |= hit
    return y, (routed,)


def maxpool1d_backward(dy: np.ndarray, cache, pool: int):
    """Each window's gradient goes to the position its forward's mask routes it to."""
    (routed,) = cache
    dx = np.zeros(routed.shape, dtype=dy.dtype)
    # Multiply bit patterns, not floats: dy * False would leave -0.0 where
    # dy < 0 (NaN where dy is infinite), not the +0.0 of an unrouted slot.
    bits = np.dtype(f"u{dx.itemsize}")
    dbits, dy_bits, hits = _tiles(dx.view(bits), pool), dy.view(bits), _tiles(routed, pool)
    for j in range(pool):
        np.multiply(dy_bits, hits[:, :, j], out=dbits[:, :, j])
    return dx


# ---------------------------------------------------------------------------
# Dropout (inverted: survivors scaled by 1/(1-rate) at train time; the gradient
# takes the same mask and scale, so backward is the forward function)

# Uniform draws per chunk of a dropout mask: 256 KiB of float64, which stay
# in L2 between the draw and the comparison.
DROPOUT_CHUNK = 1 << 15


def sample_dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """The bytes of `rng.random(shape) >= rate`, and the generator left in the
    same state, drawn DROPOUT_CHUNK at a time into one reused buffer instead
    of a float64 array the size of the mask."""
    mask = np.empty(shape, dtype=bool)
    flat = mask.reshape(-1)
    draws = np.empty(min(flat.size, DROPOUT_CHUNK))
    for start in range(0, flat.size, DROPOUT_CHUNK):
        part = draws[: min(DROPOUT_CHUNK, flat.size - start)]
        rng.random(out=part)
        np.greater_equal(part, rate, out=flat[start : start + len(part)])
    return mask


def dropout_forward(x: np.ndarray, rate: float, mask: np.ndarray) -> np.ndarray:
    y = np.multiply(x, mask)
    y /= 1.0 - rate
    return y


dropout_backward = dropout_forward


# ---------------------------------------------------------------------------
# LSTM (single layer, zero initial state, returns final hidden state)
#
# Gate layout along the 4U axis: input, forget, candidate, output.

def _lstm_step(x_t, h, c, w, u, b):
    """x_t (B, C) and the previous h, c (B, U) -> (activated gates (B, 4U), c, h)."""
    units = u.shape[0]
    z = x_t @ w + h @ u + b
    gates = sigmoid(z)
    gates[:, 2 * units : 3 * units] = np.tanh(z[:, 2 * units : 3 * units])
    i, f, g, o = np.split(gates, 4, axis=1)
    c = f * c + i * g
    h = o * np.tanh(c)
    return gates, c, h


def lstm_forward(x: np.ndarray, w: np.ndarray, u: np.ndarray, b: np.ndarray):
    """x (B, T, C), w (C, 4U), u (U, 4U), b (4U,) -> h_T (B, U). Keeps only the
    current h and c and caches (x, b), from which `lstm_backward` replays the
    steps (Gruslys et al. 2016, *Memory-Efficient Backpropagation Through Time*)."""
    batch, steps, _ = x.shape
    if steps == 0:
        raise ValueError("lstm input has zero time steps")
    h = np.zeros((batch, u.shape[0]), dtype=x.dtype)
    c = np.zeros_like(h)
    for t in range(steps):
        _, c, h = _lstm_step(x[:, t], h, c, w, u, b)
    return h, (x, b)


def lstm_backward(dh: np.ndarray, cache, w: np.ndarray, u: np.ndarray, want_dx: bool = True):
    """Replays the forward steps to rebuild h and c over steps 0..T and the
    activated gates of each step, then runs backpropagation through time.
    dx is None unless `want_dx`."""
    x, b = cache
    batch, steps, _ = x.shape
    units = u.shape[0]
    h = np.zeros((steps + 1, batch, units), dtype=x.dtype)
    c = np.zeros_like(h)
    gates = np.empty((steps, batch, 4 * units), dtype=np.result_type(x, w))
    for t in range(steps):
        gates[t], c[t + 1], h[t + 1] = _lstm_step(x[:, t], h[t], c[t], w, u, b)
    dw = np.zeros_like(w)
    du = np.zeros_like(u)
    db = np.zeros(4 * units, dtype=w.dtype)
    dx = np.empty_like(x) if want_dx else None
    dc = np.zeros_like(dh)
    dz = np.empty((batch, 4 * units), dtype=np.result_type(dh, gates))
    dzi, dzf, dzg, dzo = np.split(dz, 4, axis=1)
    for t in reversed(range(steps)):
        i, f, g, o = np.split(gates[t], 4, axis=1)
        tc = np.tanh(c[t + 1])
        dzo[:] = dh * tc * o * (1.0 - o)
        dc = dc + dh * o * (1.0 - tc**2)
        dzi[:] = dc * g * i * (1.0 - i)
        dzf[:] = dc * c[t] * f * (1.0 - f)
        dzg[:] = dc * i * (1.0 - g**2)
        dw += x[:, t, :].T @ dz
        du += h[t].T @ dz
        db += dz.sum(axis=0)
        if want_dx:
            dx[:, t, :] = dz @ w.T
        dh = dz @ u.T
        dc = dc * f
    return dx, dw, du, db


# ---------------------------------------------------------------------------
# Dense

def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, activation: str):
    """x (B, n), w (n, m), b (m,) -> (B, m), through a relu or a sigmoid."""
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"dense input width {x.shape[1]} != weight rows {w.shape[0]}")
    z = x @ w + b
    if activation == "relu":
        a = np.maximum(z, 0.0)
    else:
        a = sigmoid(z)
    return a, (x, a)


def dense_backward(dy: np.ndarray, cache, w: np.ndarray, activation: str):
    x, a = cache
    if activation == "relu":
        dz = dy * (a > 0)
    else:
        dz = dy * a * (1.0 - a)
    dw = x.T @ dz
    db = dz.sum(axis=0)
    dx = dz @ w.T
    return dx, dw, db

