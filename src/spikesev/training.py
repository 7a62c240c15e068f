"""Training loop with per-epoch logging, stratified k-fold cross-validation
(class balancing applied inside each fold only), and a seeded random
hyperparameter search.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .dataset import FeatureVector, smote, to_arrays
from .network import (
    AdamState,
    Architecture,
    LayerSpec,
    Network,
    adam_step,
    batch_bce_l2,
    param_count,
)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = AdamState.learning_rate
    lambda_l2: float = 0.001
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lambda_l2 < 0:
            raise ValueError("lambda_l2 must be >= 0")


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float | None = None
    val_accuracy: float | None = None


def train(
    network: Network,
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    validation: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[list[EpochLog], AdamState]:
    """Mini-batch training for the configured number of epochs (no early
    stopping); mutates the network in place and returns the epoch logs and
    the final optimizer state.

    Loss and accuracy are logged from the training-mode passes; accuracy uses
    the 0.5 threshold. A non-finite loss aborts with an epoch/batch
    diagnostic.
    """
    if x.ndim != 2 or x.shape[1] != network.input_length:
        raise ValueError(
            f"feature width {x.shape[1] if x.ndim == 2 else x.shape} "
            f"does not match model input length {network.input_length}"
        )
    if x.shape[0] == 0:
        raise ValueError("empty training set")
    n = x.shape[0]
    rng_shuffle = np.random.default_rng([config.seed, 0])
    rng_dropout = np.random.default_rng([config.seed, 1])
    optimizer = AdamState.for_network(network, learning_rate=config.learning_rate)
    logs: list[EpochLog] = []
    for epoch in range(1, config.epochs + 1):
        order = rng_shuffle.permutation(n) if config.shuffle else np.arange(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            xb, yb = x[batch], y[batch]
            out, caches = network.forward(xb, train=True, rng=rng_dropout, want_caches=True)
            preds = out.reshape(-1)
            loss, dpred = batch_bce_l2(preds, yb, network, config.lambda_l2)
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}"
                )
            grads = network.backward(dpred.reshape(-1, 1).astype(network.dtype), caches)
            network.add_l2_gradients(grads, config.lambda_l2)
            adam_step(optimizer, network.params, grads)
            loss_sum += loss * len(batch)
            correct += int(((preds >= 0.5).astype(np.uint8) == yb).sum())
        val_loss = val_acc = None
        if validation is not None:
            xv, yv = validation
            scores = network.predict_scores(xv)
            val_loss, _ = batch_bce_l2(scores, yv, network, config.lambda_l2)
            val_acc = float(((scores >= 0.5).astype(np.uint8) == yv).mean())
        logs.append(
            EpochLog(
                epoch=epoch,
                train_loss=loss_sum / n,
                train_accuracy=correct / n,
                val_loss=val_loss,
                val_accuracy=val_acc,
            )
        )
    return logs, optimizer


def write_epoch_logs(logs: list[EpochLog], path_or_stream) -> None:
    lines = ["epoch\tloss\taccuracy\tval_loss\tval_accuracy"]
    for log in logs:
        vl = f"{log.val_loss:.6f}" if log.val_loss is not None else "-"
        va = f"{log.val_accuracy:.6f}" if log.val_accuracy is not None else "-"
        lines.append(f"{log.epoch}\t{log.train_loss:.6f}\t{log.train_accuracy:.6f}\t{vl}\t{va}")
    text = "\n".join(lines) + "\n"
    if hasattr(path_or_stream, "write"):
        path_or_stream.write(text)
    else:
        Path(path_or_stream).write_text(text, encoding="utf-8")


def stratified_folds(labels: np.ndarray, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """k (train_idx, val_idx) pairs; per-class shuffle then round-robin deal,
    so every fold holds both classes whenever each class has >= k members."""
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(seed)
    fold_members: list[list[int]] = [[] for _ in range(k)]
    for label in (0, 1):
        idxs = np.flatnonzero(labels == label)
        if len(idxs) < k:
            raise ValueError(f"class {label} has {len(idxs)} members, fewer than k={k}")
        rng.shuffle(idxs)
        for j, idx in enumerate(idxs):
            fold_members[j % k].append(int(idx))
    folds = []
    for j in range(k):
        val = np.array(sorted(fold_members[j]))
        rest = np.array(sorted(i for jj in range(k) if jj != j for i in fold_members[jj]))
        folds.append((rest, val))
    return folds


@dataclass(frozen=True)
class CrossValResult:
    fold_f1: list[float]
    mean_f1: float
    std_f1: float


def cross_validate(
    vectors: list[FeatureVector],
    k: int,
    config: TrainConfig,
    specs: list[LayerSpec],
    smote_k: int = 5,
) -> CrossValResult:
    """Stratified k-fold; SMOTE is applied to the training part of each fold
    only, and the held-out part is scored with the support-weighted F1."""
    from .evaluation import evaluate_scores

    labels = np.array([v.label for v in vectors], dtype=np.uint8)
    width = int(vectors[0].values.shape[0])
    scores = []
    for fold_idx, (train_idx, val_idx) in enumerate(stratified_folds(labels, k, config.seed)):
        balanced = smote(
            [vectors[i] for i in train_idx], k=smote_k, seed=config.seed * 1000 + fold_idx
        )
        xb, yb = to_arrays(balanced)
        xv, yv = to_arrays([vectors[i] for i in val_idx])
        net = Network(width, specs, seed=config.seed + fold_idx)
        train(net, xb, yb, config)
        report = evaluate_scores(yv, net.predict_scores(xv))
        scores.append(report.prf_by_convention["weighted"].f1)
    mean = float(np.mean(scores))
    return CrossValResult(fold_f1=scores, mean_f1=mean, std_f1=float(np.std(scores)))


# ---------------------------------------------------------------------------
# Random hyperparameter search

@dataclass(frozen=True)
class Choice:
    values: tuple

    def sample(self, rng: np.random.Generator):
        return self.values[int(rng.integers(0, len(self.values)))]


@dataclass(frozen=True)
class Range:
    low: float
    high: float
    scale: str = "linear"  # "linear" or "log"
    integer: bool = False

    def __post_init__(self):
        if self.high < self.low:
            raise ValueError("range high < low")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"unknown scale {self.scale!r}")

    def sample(self, rng: np.random.Generator):
        if self.integer:
            return int(rng.integers(int(self.low), int(self.high) + 1))
        if self.scale == "log":
            return float(np.exp(rng.uniform(np.log(self.low), np.log(self.high))))
        return float(rng.uniform(self.low, self.high))


SearchSpace = dict[str, Choice | Range]

# Search names: `learning_rate`, each scalar `Architecture` field, and
# `conv{i}_filters` / `dense{i}_units` for element i (1-based) of
# `conv_filters` / `dense_units`: the index goes before the first underscore.
_ELEMENT_NAME = re.compile(r"([a-z]+)([1-9][0-9]*)_(\w+)")
_ARCH_FIELDS = {f.name: isinstance(f.default, tuple) for f in fields(Architecture)}


def _architecture_target(name: str) -> tuple[str, int | None]:
    """The `Architecture` field a search name sets, and the 0-based tuple
    element for an indexed name; ValueError for any other name."""
    m = _ELEMENT_NAME.fullmatch(name)
    if m and _ARCH_FIELDS.get(f"{m[1]}_{m[3]}") is True:
        return f"{m[1]}_{m[3]}", int(m[2]) - 1
    if _ARCH_FIELDS.get(name) is False:
        return name, None
    raise ValueError(f"unknown hyperparameter {name!r}")


def default_search_space() -> SearchSpace:
    return {
        "conv1_filters": Choice((64, 96, 128, 160)),
        "conv2_filters": Choice((32, 48, 64, 96)),
        "conv3_filters": Choice((32, 48, 64, 96)),
        "conv4_filters": Choice((16, 24, 32)),
        "kernel_size": Choice((3, 4, 5, 6)),
        "dropout_rate": Range(0.05, 0.3),
        "lstm_units": Choice((32, 48, 64, 96)),
        "dense1_units": Choice((32, 64, 96)),
        "dense2_units": Choice((16, 32, 48)),
        "dense3_units": Choice((8, 16, 24)),
        "learning_rate": Range(1e-4, 1e-2, scale="log"),
    }


def parse_search_space(text: str) -> SearchSpace:
    """One domain per line: `name\tchoice\tv1\tv2...` or
    `name\t{linear|log|int}\tlow\thigh`."""

    def coerce(token: str):
        try:
            return int(token)
        except ValueError:
            try:
                return float(token)
            except ValueError:
                return token

    space: SearchSpace = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 3:
            raise ValueError(f"search space line {lineno}: expected name, kind, arguments")
        name, kind, *args = parts
        if kind == "choice":
            space[name] = Choice(tuple(coerce(a) for a in args))
        elif kind in ("linear", "log"):
            space[name] = Range(float(args[0]), float(args[1]), scale=kind)
        elif kind == "int":
            space[name] = Range(float(args[0]), float(args[1]), integer=True)
        else:
            raise ValueError(f"search space line {lineno}: unknown domain kind {kind!r}")
        if name != "learning_rate":
            _architecture_target(name)
    if not space:
        raise ValueError("empty search space")
    return space


def sample_hyperparams(space: SearchSpace, rng: np.random.Generator) -> dict:
    return {name: domain.sample(rng) for name, domain in sorted(space.items())}


def specs_from_hyperparams(hp: dict, base: Architecture) -> list[LayerSpec]:
    """`base` with every architecture value in `hp` put in; an indexed
    name replaces that element of base's tuple. ValueError for an index
    base's stack does not have."""
    values = {name: getattr(base, name) for name in _ARCH_FIELDS}
    for name, value in hp.items():
        if name == "learning_rate":
            continue
        field_name, index = _architecture_target(name)
        if index is None:
            values[field_name] = value
        elif index < len(values[field_name]):
            old = values[field_name]
            values[field_name] = old[:index] + (value,) + old[index + 1 :]
        else:
            raise ValueError(
                f"{name}: the configured {field_name} has only {len(values[field_name])} entries"
            )
    return Architecture(**values).specs()


@dataclass
class Trial:
    index: int
    hyperparams: dict
    status: str = "ok"
    fold_f1: list[float] = field(default_factory=list)
    mean_f1: float | None = None
    std_f1: float | None = None
    n_params: int | None = None
    error: str | None = None


def random_search(
    space: SearchSpace,
    n_trials: int,
    vectors: list[FeatureVector],
    config: TrainConfig,
    base: Architecture,
    cv_k: int = 5,
    smote_k: int = 5,
    fixed_trials: list[dict] | None = None,
) -> list[Trial]:
    """Seeded independent draws, each applied to the `base` architecture and
    scored by cross-validation; ranked by mean F1 descending with smaller
    parameter count breaking ties. Trials whose sampled stack cannot be
    built or fails shape inference are recorded as failed."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    rng = np.random.default_rng(config.seed)
    all_hp = list(fixed_trials or []) + [sample_hyperparams(space, rng) for _ in range(n_trials)]
    width = int(vectors[0].values.shape[0])
    trials: list[Trial] = []
    for idx, hp in enumerate(all_hp):
        trial = Trial(index=idx, hyperparams=hp)
        try:
            specs = specs_from_hyperparams(hp, base)
            trial.n_params = param_count(specs, width)
            trial_config = replace(
                config,
                learning_rate=float(hp.get("learning_rate", config.learning_rate)),
                seed=config.seed + idx,
            )
            result = cross_validate(vectors, cv_k, trial_config, specs=specs, smote_k=smote_k)
            trial.fold_f1 = result.fold_f1
            trial.mean_f1 = result.mean_f1
            trial.std_f1 = result.std_f1
        except ValueError as exc:
            trial.status = "failed"
            trial.error = str(exc)
        trials.append(trial)
    ok = [t for t in trials if t.status == "ok"]
    failed = [t for t in trials if t.status != "ok"]
    ok.sort(key=lambda t: (-t.mean_f1, t.n_params, t.index))
    return ok + failed


def write_trials(trials: list[Trial], path_or_stream) -> None:
    keys = sorted({k for t in trials for k in t.hyperparams})
    header = ["rank", "trial", "status", "mean_f1", "std_f1", "param_count", *keys, "error"]
    lines = ["\t".join(header)]
    for rank, t in enumerate(trials, start=1):
        row = [
            str(rank),
            str(t.index),
            t.status,
            f"{t.mean_f1:.6f}" if t.mean_f1 is not None else "-",
            f"{t.std_f1:.6f}" if t.std_f1 is not None else "-",
            str(t.n_params) if t.n_params is not None else "-",
        ]
        for key in keys:
            value = t.hyperparams.get(key, "-")
            row.append(f"{value:.6g}" if isinstance(value, float) else str(value))
        row.append(t.error or "-")
        lines.append("\t".join(row))
    text = "\n".join(lines) + "\n"
    if hasattr(path_or_stream, "write"):
        path_or_stream.write(text)
    else:
        Path(path_or_stream).write_text(text, encoding="utf-8")
