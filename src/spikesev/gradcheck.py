"""Central finite-difference verification of the analytic gradients.

Runs a tiny composed model (one of each layer type) in double precision with
frozen dropout masks and compares every analytic parameter gradient against
central differences of the loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Conv1DSpec, DenseSpec, DropoutSpec, LSTMSpec, MaxPool1DSpec
from .network import Architecture, Network, batch_bce_l2
from .training import TrainConfig

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4


def tiny_model(seed: int = 2024, input_length: int = 32) -> Network:
    specs = [
        Conv1DSpec(2, 4),
        MaxPool1DSpec(2),
        DropoutSpec(Architecture.dropout_rate),
        LSTMSpec(3),
        DenseSpec(4, "relu"),
        DenseSpec(1, "sigmoid"),
    ]
    return Network(input_length, specs, seed=seed, dtype=np.float64)


def finite_difference_gradient(loss_fn, tensor: np.ndarray, h: float = DEFAULT_STEP) -> np.ndarray:
    """Central differences of loss_fn with respect to every tensor entry."""
    grad = np.zeros_like(tensor)
    it = np.nditer(tensor, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = tensor[idx]
        tensor[idx] = orig + h
        plus = loss_fn()
        tensor[idx] = orig - h
        minus = loss_fn()
        tensor[idx] = orig
        grad[idx] = (plus - minus) / (2.0 * h)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    num = float(np.linalg.norm(analytic - numeric))
    den = float(np.linalg.norm(analytic) + np.linalg.norm(numeric))
    return num / max(den, 1e-12)


@dataclass(frozen=True)
class GradCheckResult:
    tensor: str
    rel_error: float
    passed: bool


def run_gradient_checks(
    seed: int = 2024,
    input_length: int = 32,
    h: float = DEFAULT_STEP,
    tolerance: float = DEFAULT_TOLERANCE,
    lam: float = TrainConfig.lambda_l2,
) -> tuple[list[GradCheckResult], bool]:
    rng = np.random.default_rng(seed)
    net = tiny_model(seed=seed, input_length=input_length)
    x = rng.normal(0.0, 1.0, (3, input_length))
    y = rng.integers(0, 2, 3).astype(np.float64)

    out, caches = net.forward(x, train=True, rng=rng, want_caches=True)
    masks = net.dropout_masks_from_caches(caches)

    def loss_fn() -> float:
        preds = net.forward(x, train=True, masks=masks).reshape(-1)
        loss, _ = batch_bce_l2(preds, y, net, lam)
        return loss

    _, dpred = batch_bce_l2(out.reshape(-1), y, net, lam)
    grads = net.backward(dpred.reshape(-1, 1), caches)
    net.add_l2_gradients(grads, lam)

    results: list[GradCheckResult] = []
    all_passed = True
    for idx, layer in enumerate(net.params):
        for key in sorted(layer):
            numeric = finite_difference_gradient(loss_fn, layer[key], h)
            rel = relative_error(grads[idx][key], numeric)
            ok = rel < tolerance
            all_passed &= ok
            results.append(GradCheckResult(f"layer{idx}/{key}", rel, ok))
    return results, all_passed
