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
(input_length, 1). The leading layers whose output is a sequence (conv,
pool, dropout) are the sequence layers: they treat rows alike and run on
ranges of rows. A spec class provides:

- `kind`: class attribute, the layer's tag in checkpoints;
- `out_shape(in_shape)`: the output shape, or raises `ShapeError`;
- `init(in_shape, rng, dtype)`: a dict of parameter tensors (empty if the
  layer has none). Layers draw from one shared `rng` in stack order;
- `forward(x, params, mask_source, want_cache)` -> `(y, cache)`. In
  training a dropout layer's `mask_source` is a callable `(shape, rate) ->
  dropout mask`; at inference it is None, and a layer that draws no mask may
  get None in training too. With `want_cache` false (no backward pass
  follows) a layer may skip its cache and return None for it;
- `backward(dy, cache, params, want_dx)` -> `(dx, grads)`, `grads` keyed
  like `params`. With `want_dx` false (layer 0, whose input gradient nothing
  reads) a layer may skip `dx` and return None for it. A sequence layer
  returns each gradient's addends instead, as an array (groups, rows, ...):
  the gradient is each group's sum over its rows, in the parameter's shape.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import Architecture, TrainConfig
from .layers import DropoutSpec, LayerSpec, ShapeError, sample_dropout_mask

BCE_EPSILON = 1e-7

# A cgroup's CPU quota as its files give it: v2's "quota period" (quota
# "max" when there is none), or v1's quota (-1 when none) and period.
CPU_QUOTA_FILES = (
    ("/sys/fs/cgroup/cpu.max",),
    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
)


def cpu_count(quota_files=CPU_QUOTA_FILES) -> int:
    """The CPUs this process may run on (its affinity set, 1 where that is
    unknown), capped by its cgroup's CPU quota rounded up: a container
    limited to 2 CPUs on a 64-CPU host has an affinity set of 64."""
    count = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    for files in quota_files:
        try:
            words = " ".join(Path(name).read_text() for name in files).split()
            quota, period = float(words[0]), float(words[1])
        except (OSError, ValueError, IndexError):  # no such files, or "max"
            continue
        if quota > 0 and period > 0:
            return max(1, min(count, math.ceil(quota / period)))
    return count


def worker_count(cpus: int) -> int:
    """Row ranges for `cpus` CPUs shared with OpenBLAS's own threads, whose
    count its environment variables set, read in its order (unset, it runs
    one per CPU). Workers beside as many BLAS threads as CPUs contend with
    them: at 2 BLAS threads on 2 vCPUs, two ranges made a stock step at 1/8
    of the paper's width slower than one (median 0.28 s against 0.23 s)."""
    threads = cpus
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            threads = int(value)
            break
    return max(1, cpus // threads)


# Row ranges of a training step, read once at import.
WORKERS = worker_count(cpu_count())


def infer_shapes(specs: list[LayerSpec], input_length: int) -> list[tuple[int, ...]]:
    """Symbolic pass over the stack; one output shape per layer.

    Raises ShapeError for an input length below 1 or naming the first
    offending layer.
    """
    if input_length < 1:
        raise ShapeError(f"input length {input_length} < 1")
    shapes: list[tuple[int, ...]] = []
    shape: tuple[int, ...] = (input_length, 1)
    for idx, spec in enumerate(specs):
        try:
            shape = spec.out_shape(shape)
        except ShapeError as exc:
            raise ShapeError(f"layer {idx} ({type(spec).__name__}): {exc}") from None
        shapes.append(shape)
    return shapes


def _row_ranges(rows: int, parts: int) -> list[tuple[int, int]]:
    """`parts` contiguous (lo, hi) ranges over `rows` rows, in order; their
    sizes differ by at most one."""
    bounds = [rows * r // parts for r in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def _on_threads(fn, ranges: list[tuple[int, int]]) -> list:
    """[fn(r, lo, hi) for each range r], one thread per range when there are
    several. numpy leaves the GIL in its loops and BLAS calls, so the ranges
    run side by side; a worker's exception reaches the caller."""
    if len(ranges) == 1:
        return [fn(0, *ranges[0])]
    # Imported here, so only training loads it: it loads `logging`, about
    # 7 ms of the start-up of every command that imports this module.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(len(ranges)) as pool:
        return list(pool.map(fn, range(len(ranges)), *zip(*ranges)))


def _sum_rows(before: np.ndarray | None, rows: np.ndarray) -> np.ndarray:
    """Rows whose sum along axis 0 has the bytes of numpy's axis-0 sum of
    `before`'s rows followed by `rows`. numpy adds the rows of an array one
    after another, so that is one row, the running sum: `rows`' first row is
    seeded with `before`'s (and then restored). numpy adds single numbers
    pairwise, so those rows are all kept."""
    if math.prod(rows.shape[1:]) == 1:
        return rows if before is None else np.concatenate([before, rows])
    if before is None:
        return rows.sum(axis=0, keepdims=True)
    first = rows[0].copy()
    rows[0] += before[0]
    total = rows.sum(axis=0, keepdims=True)
    rows[0] = first
    return total


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
        self.specs = list(specs) if specs is not None else Architecture().specs()
        self.seed = seed
        self.dtype = dtype
        self.shapes = infer_shapes(self.specs, input_length)
        self.n_seq = next((i for i, shape in enumerate(self.shapes) if len(shape) != 2), len(self.shapes))
        in_shapes = [(input_length, 1), *self.shapes[:-1]]
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

    def forward(self, x: np.ndarray, train: bool = False, rng=None, want_caches: bool = False):
        """Run the stack on a (batch, input_length) matrix.

        In train mode dropout masks are sampled from `rng`. With
        `want_caches` it also returns the caches the backward pass needs
        (layer inputs, pool routing masks, dense activations, dropout
        masks); without, a pool builds no mask and no layer's cache outlives
        the layer.

        The sequence layers run on ranges of rows, each range's last output
        written into its rows of one (rows, length, channels) array that the
        later layers take as one batch. Without caches each range is one row,
        run in turn, so no sequence output the size of a batch is made (Alwani
        et al. 2016, *Fused-Layer CNN Accelerators*). With caches (a training
        step) there is one range per worker (`WORKERS`), each on its own thread,
        and a sequence layer's cache is a list of its ranges' caches
        (Krizhevsky 2014, *One weird trick for parallelizing convolutional
        neural networks*). The sequence layers' dropout masks are drawn for
        the whole batch, in layer order, before the ranges run. Rows are
        treated alike, so the bytes do not depend on the ranges.
        """
        if x.ndim != 2 or x.shape[1] != self.input_length:
            raise ValueError(f"expected input (batch, {self.input_length}), got {x.shape}")

        def mask_source(shape, rate):
            if rng is None:
                raise ValueError("train-mode dropout needs an rng")
            return sample_dropout_mask(rng, shape, rate)

        cur = x.astype(self.dtype, copy=False)[:, :, None]
        n_seq, rows = self.n_seq, len(cur)
        caches = []
        if n_seq:
            masks = [
                mask_source((rows, *shape), spec.rate)
                if train and isinstance(spec, DropoutSpec) and spec.rate > 0 else None
                for spec, shape in zip(self.specs[:n_seq], self.shapes)
            ]
            seq = np.empty((rows, *self.shapes[n_seq - 1]), dtype=self.dtype)

            def run(r, lo, hi):
                out, kept = cur[lo:hi], []
                for spec, params, mask in zip(self.specs, self.params, masks):
                    source = None if mask is None else lambda shape, rate: mask[lo:hi]
                    out, cache = spec.forward(out, params, source, want_caches)
                    if want_caches:
                        kept.append(cache)
                seq[lo:hi] = out
                return kept

            if want_caches:
                ranges = _row_ranges(rows, max(1, min(WORKERS, rows)))
                caches = [list(layer) for layer in zip(*_on_threads(run, ranges))]
            else:
                for r in range(rows):
                    run(r, r, r + 1)
            cur = seq
        for spec, params in zip(self.specs[n_seq:], self.params[n_seq:]):
            cur, cache = spec.forward(cur, params, mask_source if train else None, want_caches)
            if want_caches:
                caches.append(cache)
        return (cur, caches) if want_caches else cur

    def dropout_masks_from_caches(self, caches) -> list:
        """Each dropout layer's whole-batch mask, in layer order; a sequence
        layer's is joined from its row ranges."""
        masks = []
        for i, (spec, cache) in enumerate(zip(self.specs, caches)):
            if isinstance(spec, DropoutSpec):
                if i < self.n_seq:
                    cache = None if cache[0] is None else np.concatenate(cache)
                if cache is not None:
                    masks.append(cache)
        return masks

    def backward(self, dout: np.ndarray, caches: list) -> list[dict[str, np.ndarray]]:
        """Gradients of every parameter tensor given d(loss)/d(output).

        Consumes `caches`: each entry is set to None once its layer's
        backward has run, so a layer's cache is freed before the layers
        below it run. A second backward needs a new forward pass; caches
        that are all None are refused.

        The sequence layers run on the forward pass's row ranges, one
        fork/join per layer: each range runs the layer's backward on its own
        thread, and after the join the calling thread adds the ranges'
        gradient addends in range order (`_sum_rows`), so the bytes are
        those of one whole-batch sum.
        """
        if caches is None or len(caches) != len(self.specs) or all(cache is None for cache in caches):
            raise ValueError("backward requires the caches of a completed forward pass")
        n_seq = self.n_seq
        grads: list = [None] * len(self.specs)
        grad = dout
        for i in reversed(range(n_seq, len(self.specs))):
            grad, grads[i] = self.specs[i].backward(grad, caches[i], self.params[i], i > 0)
            caches[i] = None
        if not n_seq:
            return grads

        ranges = _row_ranges(len(grad), len(caches[0]))
        dys = [grad[lo:hi] for lo, hi in ranges]
        for i in reversed(range(n_seq)):
            spec, params, cache = self.specs[i], self.params[i], caches[i]

            def run(r, lo, hi):
                out = spec.backward(dys[r], cache[r], params, i > 0)
                cache[r] = None
                return out

            dys, addends = zip(*_on_threads(run, ranges))
            sums = {key: [None] * len(groups) for key, groups in addends[0].items()}
            for part in addends:
                sums = {key: list(map(_sum_rows, sums[key], groups)) for key, groups in part.items()}
            grads[i] = {
                key: np.stack([rows.sum(axis=0) for rows in groups]).reshape(params[key].shape)
                for key, groups in sums.items()
            }
            caches[i] = None
        return grads

    def add_l2_gradients(self, grads, lam: float) -> None:
        """Add d(lam * sum w^2)/dw = 2*lam*w to every weight gradient."""
        for layer_params, layer_grads in zip(self.params, grads):
            for key, tensor in layer_params.items():
                if key != "b":
                    layer_grads[key] = layer_grads[key] + 2.0 * lam * tensor

    def predict_scores(self, x: np.ndarray) -> np.ndarray:
        """Inference-mode scores in [0, 1], one per row: the sequence layers
        hold one row at a time, and the LSTM and dense layers take every row
        at once."""
        return self.forward(x).reshape(-1)


# ---------------------------------------------------------------------------
# Loss

# The L2 penalty's weight: the loss adds LAMBDA_L2 * (sum of squared weights).
LAMBDA_L2 = 0.001


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
# Adam, with the published moment decays and epsilon (Kingma and Ba 2015)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    learning_rate: float = TrainConfig.learning_rate
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
    correction1 = 1.0 - ADAM_BETA1**t
    correction2 = 1.0 - ADAM_BETA2**t
    for layer_p, layer_g, layer_m, layer_v in zip(params, grads, state.m, state.v):
        for key, p in layer_p.items():
            g = layer_g[key]
            if g.shape != p.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
            m = layer_m[key]
            v = layer_v[key]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            m_hat = m / correction1
            v_hat = v / correction2
            p -= (state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)).astype(p.dtype)
    return params
