"""The layer stack: shape inference, parameter accounting, forward/backward
through the whole network, binary cross-entropy with an L2 weight penalty,
and Adam updates.

The default architecture is four convolution/pool/dropout stages (128, 64,
64, 24 filters, kernel 4, pool 2, rate 0.166), a 64-unit LSTM, then dense
layers 64 (relu, followed by dropout), 32, 16 and a sigmoid output unit. At
input length 16,730 it has exactly 85,657 trainable parameters.

Every layer kind is one spec class in `layers.py`, registered in
`LAYER_KINDS`; this module only loops over specs. Shapes are (length,
channels) up to the LSTM and (features,) after it; the input is
(input_length, 1). A spec class provides:

- `kind`: class attribute, the layer's tag in checkpoints;
- `out_shape(in_shape)`: the output shape, or raises `ShapeError`;
- `init(in_shape, rng, dtype)`: a dict of parameter tensors (empty if the
  layer has none). Layers draw from one shared `rng` in stack order;
- `forward(x, params, mask_source)` -> `(y, cache)`. `mask_source` is None
  at inference, else a callable `(shape, rate) -> dropout mask`;
- `backward(dy, cache, params)` -> `(dx, grads)`, `grads` keyed like `params`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import (
    Conv1DSpec,
    DenseSpec,
    DropoutSpec,
    LayerSpec,
    LSTMSpec,
    MaxPool1DSpec,
    ShapeError,
    sample_dropout_mask,
)

BCE_EPSILON = 1e-7


@dataclass(frozen=True)
class Architecture:
    """Hyperparameters of the CNN-LSTM template. The defaults are the stock
    architecture; the run config and the search take theirs from here."""

    conv_filters: tuple[int, ...] = (128, 64, 64, 24)
    kernel_size: int = 4
    pool_size: int = 2
    dropout_rate: float = 0.166
    lstm_units: int = 64
    dense_units: tuple[int, ...] = (64, 32, 16)

    def specs(self) -> list[LayerSpec]:
        """Conv/pool/dropout stages, an LSTM, dense stack (dropout after the
        first dense layer), sigmoid output unit."""
        specs: list[LayerSpec] = []
        for filters in self.conv_filters:
            specs.append(Conv1DSpec(filters, self.kernel_size))
            specs.append(MaxPool1DSpec(self.pool_size))
            specs.append(DropoutSpec(self.dropout_rate))
        specs.append(LSTMSpec(self.lstm_units))
        for j, units in enumerate(self.dense_units):
            specs.append(DenseSpec(units, "relu"))
            if j == 0:
                specs.append(DropoutSpec(self.dropout_rate))
        specs.append(DenseSpec(1, "sigmoid"))
        return specs


def default_architecture() -> list[LayerSpec]:
    return Architecture().specs()


def infer_shapes(specs: list[LayerSpec], input_length: int) -> list[tuple[int, ...]]:
    """Symbolic pass over the stack; one output shape per layer.

    Raises ShapeError naming the first offending layer.
    """
    shapes: list[tuple[int, ...]] = []
    shape: tuple[int, ...] = (input_length, 1)
    for idx, spec in enumerate(specs):
        try:
            shape = spec.out_shape(shape)
        except ShapeError as exc:
            raise ShapeError(f"layer {idx} ({type(spec).__name__}): {exc}") from None
        shapes.append(shape)
    return shapes


def per_layer_param_counts(specs: list[LayerSpec], input_length: int) -> list[int]:
    return [sum(t.size for t in layer.values()) for layer in Network(input_length, specs).params]


def param_count(specs: list[LayerSpec], input_length: int) -> int:
    return sum(per_layer_param_counts(specs, input_length))


class Network:
    """An ordered layer stack with its parameter tensors."""

    def __init__(
        self,
        input_length: int,
        specs: list[LayerSpec] | None = None,
        seed: int = 0,
        dtype=np.float32,
    ):
        self.input_length = input_length
        self.specs = list(specs) if specs is not None else default_architecture()
        self.seed = seed
        self.dtype = dtype
        in_shapes = [(input_length, 1), *infer_shapes(self.specs, input_length)[:-1]]
        rng = np.random.default_rng(seed)
        self.params: list[dict[str, np.ndarray]] = [
            spec.init(shape, rng, dtype) for spec, shape in zip(self.specs, in_shapes)
        ]

    def param_count(self) -> int:
        return sum(t.size for layer in self.params for t in layer.values())

    def zero_like_params(self) -> list[dict[str, np.ndarray]]:
        return [{k: np.zeros_like(v) for k, v in layer.items()} for layer in self.params]

    def weight_squared_sum(self) -> float:
        """Sum of squared weight-matrix entries; biases excluded."""
        total = 0.0
        for layer in self.params:
            for key, tensor in layer.items():
                if key != "b":
                    total += float((tensor.astype(np.float64) ** 2).sum())
        return total

    def forward(self, x: np.ndarray, train: bool = False, rng=None, masks=None, want_caches: bool = False):
        """Run the stack on a (batch, input_length) matrix.

        In train mode dropout masks are taken from `masks` when given,
        otherwise sampled from `rng`. With `want_caches` it also returns the
        caches the backward pass needs (conv inputs, pool argmaxes, gate
        activations, masks); without, no layer's cache outlives the layer.
        """
        if x.ndim != 2 or x.shape[1] != self.input_length:
            raise ValueError(f"expected input (batch, {self.input_length}), got {x.shape}")
        remaining = list(masks or ())

        def mask_source(shape, rate):
            if masks is not None:
                return remaining.pop(0)
            if rng is None:
                raise ValueError("train-mode dropout needs an rng or explicit masks")
            return sample_dropout_mask(rng, shape, rate)

        cur = x.astype(self.dtype, copy=False)[:, :, None]
        caches = []
        for spec, params in zip(self.specs, self.params):
            cur, cache = spec.forward(cur, params, mask_source if train else None)
            if want_caches:
                caches.append(cache)
        return (cur, caches) if want_caches else cur

    def dropout_masks_from_caches(self, caches) -> list:
        return [
            cache
            for spec, cache in zip(self.specs, caches)
            if isinstance(spec, DropoutSpec) and cache is not None
        ]

    def backward(self, dout: np.ndarray, caches) -> list[dict[str, np.ndarray]]:
        """Gradients of every parameter tensor given d(loss)/d(output)."""
        if caches is None or len(caches) != len(self.specs):
            raise ValueError("backward requires the caches of a completed forward pass")
        grads = []
        grad = dout
        for spec, params, cache in zip(self.specs[::-1], self.params[::-1], caches[::-1]):
            grad, layer_grads = spec.backward(grad, cache, params)
            grads.append(layer_grads)
        return grads[::-1]

    def add_l2_gradients(self, grads, lam: float) -> None:
        """Add d(lam * sum w^2)/dw = 2*lam*w to every weight gradient."""
        if lam == 0.0:
            return
        for layer_params, layer_grads in zip(self.params, grads):
            for key, tensor in layer_params.items():
                if key != "b":
                    layer_grads[key] = layer_grads[key] + 2.0 * lam * tensor

    def predict_scores(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Inference-mode scores in [0, 1], one per row."""
        scores = [
            self.forward(x[i : i + batch_size]).reshape(-1)
            for i in range(0, x.shape[0], batch_size)
        ]
        return np.concatenate(scores) if scores else np.zeros(0, dtype=self.dtype)


# ---------------------------------------------------------------------------
# Loss

def batch_bce_l2(predictions: np.ndarray, labels: np.ndarray, network: Network, lam: float):
    """Mean BCE over the batch plus the L2 penalty; also returns
    d(loss)/d(predictions) evaluated at the clamped predictions."""
    p = np.clip(predictions.astype(np.float64), BCE_EPSILON, 1.0 - BCE_EPSILON)
    y = labels.astype(np.float64)
    n = p.shape[0]
    loss = float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean() + lam * network.weight_squared_sum())
    dpred = (p - y) / (p * (1.0 - p)) / n
    return loss, dpred


# ---------------------------------------------------------------------------
# Adam

@dataclass
class AdamState:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: list[dict[str, np.ndarray]] = field(default_factory=list)
    v: list[dict[str, np.ndarray]] = field(default_factory=list)

    @classmethod
    def for_network(cls, network: Network, **kwargs) -> "AdamState":
        return cls(m=network.zero_like_params(), v=network.zero_like_params(), **kwargs)


def adam_step(state: AdamState, params, grads):
    """One bias-corrected Adam update, in place; returns the parameters."""
    state.step += 1
    t = state.step
    correction1 = 1.0 - state.beta1**t
    correction2 = 1.0 - state.beta2**t
    for layer_p, layer_g, layer_m, layer_v in zip(params, grads, state.m, state.v):
        for key, p in layer_p.items():
            g = layer_g[key]
            if g.shape != p.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
            m = layer_m[key]
            v = layer_v[key]
            m *= state.beta1
            m += (1.0 - state.beta1) * g
            v *= state.beta2
            v += (1.0 - state.beta2) * g * g
            m_hat = m / correction1
            v_hat = v / correction2
            p -= (state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)).astype(p.dtype)
    return params
