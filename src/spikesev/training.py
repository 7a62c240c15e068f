"""Training loop with per-epoch logging, stratified k-fold cross-validation
(class balancing applied inside each fold only), and a seeded random
hyperparameter search.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .config import Architecture, TrainConfig
from .dataset import FeatureMatrix, check_smote, smote
from .evaluation import evaluate_scores
from .network import LAMBDA_L2, AdamState, LayerSpec, Network, adam_step, batch_bce_l2


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float | None = None
    val_accuracy: float | None = None


def _check_labelled(name: str, x: np.ndarray, y: np.ndarray, input_length: int) -> None:
    """ValueError unless `x` is (rows, input_length), rows > 0, with one
    label per row."""
    if x.ndim != 2 or x.shape[1] != input_length:
        raise ValueError(
            f"{name} feature width {x.shape[1] if x.ndim == 2 else x.shape} "
            f"does not match model input length {input_length}"
        )
    if len(y) != x.shape[0]:
        raise ValueError(f"{name} set has {x.shape[0]} rows but {len(y)} labels")
    if x.shape[0] == 0:
        raise ValueError(f"empty {name} set")


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
    _check_labelled("training", x, y, network.input_length)
    if validation is not None:
        _check_labelled("validation", *validation, network.input_length)
    n = x.shape[0]
    rng_shuffle = np.random.default_rng([config.seed, 0])
    rng_dropout = np.random.default_rng([config.seed, 1])
    optimizer = AdamState.for_network(network, learning_rate=config.learning_rate)
    logs: list[EpochLog] = []
    for epoch in range(1, config.epochs + 1):
        order = rng_shuffle.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            xb, yb = x[batch], y[batch]
            out, caches = network.forward(xb, train=True, rng=rng_dropout, want_caches=True)
            preds = out.reshape(-1)
            loss, dpred = batch_bce_l2(preds, yb, network, LAMBDA_L2)
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}"
                )
            grads = network.backward(dpred.reshape(-1, 1).astype(network.dtype), caches)
            network.add_l2_gradients(grads, LAMBDA_L2)
            adam_step(optimizer, network.params, grads)
            loss_sum += loss * len(batch)
            correct += int(((preds >= 0.5).astype(np.uint8) == yb).sum())
        val_loss = val_acc = None
        if validation is not None:
            xv, yv = validation
            scores = network.predict_scores(xv)
            val_loss, _ = batch_bce_l2(scores, yv, network, LAMBDA_L2)
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


def epoch_logs_tsv(logs: list[EpochLog]) -> str:
    lines = ["epoch\tloss\taccuracy\tval_loss\tval_accuracy"]
    for log in logs:
        vl = f"{log.val_loss:.6f}" if log.val_loss is not None else "-"
        va = f"{log.val_accuracy:.6f}" if log.val_accuracy is not None else "-"
        lines.append(f"{log.epoch}\t{log.train_loss:.6f}\t{log.train_accuracy:.6f}\t{vl}\t{va}")
    return "\n".join(lines) + "\n"


def stratified_folds(labels: np.ndarray, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """k (train_idx, val_idx) pairs over 0/1 `labels`; per-class shuffle then
    round-robin deal, so every fold holds both classes whenever each class
    has >= k members."""
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(seed)
    fold = np.empty(len(labels), dtype=np.intp)
    for label in (0, 1):
        idxs = np.flatnonzero(labels == label)
        if len(idxs) < k:
            raise ValueError(f"class {label} has {len(idxs)} members, fewer than k={k}")
        rng.shuffle(idxs)
        fold[idxs] = np.arange(len(idxs)) % k
    return [(np.flatnonzero(fold != j), np.flatnonzero(fold == j)) for j in range(k)]


def cross_validate(
    m: FeatureMatrix,
    k: int,
    config: TrainConfig,
    specs: list[LayerSpec],
    smote_k: int = 5,
) -> list[float]:
    """Stratified k-fold; SMOTE is applied to the training part of each fold
    only, and the held-out part is scored with the support-weighted F1. One
    F1 per fold, in fold order."""
    scores = []
    for fold_idx, (train_idx, val_idx) in enumerate(stratified_folds(m.y, k, config.seed)):
        balanced = smote(m.take(train_idx), k=smote_k, seed=config.seed * 1000 + fold_idx)
        net = Network(m.x.shape[1], specs, seed=config.seed + fold_idx)
        train(net, balanced.x, balanced.y, config)
        report = evaluate_scores(m.y[val_idx], net.predict_scores(m.x[val_idx]))
        scores.append(report.prf_by_convention["weighted"].f1)
    return scores


# ---------------------------------------------------------------------------
# Random hyperparameter search

@dataclass(frozen=True)
class Choice:
    values: tuple

    def sample(self, rng: np.random.Generator):
        return self.values[int(rng.integers(0, len(self.values)))]


RANGE_KINDS = ("linear", "log", "int")


@dataclass(frozen=True)
class Range:
    """Uniform draws from [low, high]: `linear` floats, `log` floats uniform
    in log space, or `int` whole numbers with both bounds included."""

    low: float
    high: float
    kind: str = "linear"

    def __post_init__(self):
        if self.kind not in RANGE_KINDS:
            raise ValueError(f"unknown range kind {self.kind!r}, expected one of {', '.join(RANGE_KINDS)}")
        if self.high < self.low:
            raise ValueError("range high < low")
        if self.kind == "log" and self.low <= 0:
            raise ValueError(f"log-scale range needs low > 0, got {self.low}")

    def sample(self, rng: np.random.Generator):
        if self.kind == "int":
            return int(rng.integers(int(self.low), int(self.high) + 1))
        if self.kind == "log":
            return float(np.exp(rng.uniform(np.log(self.low), np.log(self.high))))
        return float(rng.uniform(self.low, self.high))


SearchSpace = dict[str, Choice | Range]

# Search names: `learning_rate`, each scalar `Architecture` field, and
# `conv{i}_filters` / `dense{i}_units` for element i (1-based) of
# `conv_filters` / `dense_units`: the index goes before the first underscore.
_ELEMENT_NAME = re.compile(r"([a-z]+)([1-9][0-9]*)_(\w+)")
_STOCK = {f.name: f.default for f in fields(Architecture)} | {"learning_rate": TrainConfig.learning_rate}


def _search_target(name: str) -> tuple[str, int | None, type]:
    """The field a search name sets, the 0-based tuple element for an
    indexed name, and the type (int or float) of the stock value it
    replaces; ValueError for any other name."""
    m = _ELEMENT_NAME.fullmatch(name)
    if m and isinstance(_STOCK.get(f"{m[1]}_{m[3]}"), tuple):
        field_name = f"{m[1]}_{m[3]}"
        return field_name, int(m[2]) - 1, type(_STOCK[field_name][0])
    if name in _STOCK and not isinstance(_STOCK[name], tuple):
        return name, None, type(_STOCK[name])
    raise ValueError(f"unknown hyperparameter {name!r}")


def _number(token: str, value_type: type) -> int | float:
    """`token` as a finite `value_type`; ValueError naming it otherwise."""
    try:
        value = value_type(token)
    except ValueError:
        if value_type is int:
            raise ValueError(f"expected a whole number, got {token!r}") from None
        raise
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {token!r}")
    return value


def default_search_space(base: Architecture) -> SearchSpace:
    """The built-in domains, with `conv{i}_filters` and `dense{i}_units`
    only for the stages `base` has, so every draw builds on it."""
    conv = ((64, 96, 128, 160), (32, 48, 64, 96), (32, 48, 64, 96), (16, 24, 32))
    dense = ((32, 64, 96), (16, 32, 48), (8, 16, 24))
    return {
        **{f"conv{i}_filters": Choice(v) for i, v in enumerate(conv[: len(base.conv_filters)], 1)},
        **{f"dense{i}_units": Choice(v) for i, v in enumerate(dense[: len(base.dense_units)], 1)},
        "kernel_size": Choice((3, 4, 5, 6)),
        "dropout_rate": Range(0.05, 0.3),
        "lstm_units": Choice((32, 48, 64, 96)),
        "learning_rate": Range(1e-4, 1e-2, "log"),
    }


def parse_search_space(text: str) -> SearchSpace:
    """One domain per line: `name\tchoice\tv1\tv2...` or
    `name\t{linear|log|int}\tlow\thigh`. Values take the type of the
    field they set: integer fields take whole-number choices or an int
    range, `dropout_rate` and `learning_rate` finite-number choices or a
    linear or log range. A malformed line, or a name given twice, raises a
    ValueError naming the line."""
    space: SearchSpace = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            parts = line.split("\t")
            if len(parts) < 3:
                raise ValueError("expected name, kind, arguments")
            name, kind, *args = parts
            if name in space:
                raise ValueError(f"repeated name {name!r}")
            if kind not in ("choice", *RANGE_KINDS):
                raise ValueError(f"unknown domain kind {kind!r}")
            value_type = _search_target(name)[2]
            if kind == "choice":
                space[name] = Choice(tuple(_number(a, value_type) for a in args))
            elif value_type is int and kind != "int":
                raise ValueError(f"{name} takes whole numbers: use a choice or an int range, not {kind}")
            elif value_type is float and kind == "int":
                raise ValueError(f"{name} takes real numbers: use a choice, a linear or a log range, not int")
            elif len(args) != 2:
                raise ValueError(f"{kind} range needs 2 bounds, got {len(args)}")
            else:
                space[name] = Range(*(_number(a, value_type) for a in args), kind)
        except ValueError as exc:
            raise ValueError(f"search space line {lineno}: {exc}") from None
    if not space:
        raise ValueError("empty search space")
    return space


def sample_hyperparams(space: SearchSpace, rng: np.random.Generator) -> dict:
    return {name: domain.sample(rng) for name, domain in sorted(space.items())}


def specs_from_hyperparams(hp: dict, base: Architecture) -> list[LayerSpec]:
    """`base` with every architecture value in `hp` put in; an indexed
    name replaces that element of base's tuple. ValueError for an index
    base's stack does not have."""
    changes = {}
    for name, value in hp.items():
        field_name, index, _ = _search_target(name)
        if index is not None:
            old = changes.get(field_name, getattr(base, field_name))
            if index >= len(old):
                raise ValueError(f"{name}: the configured {field_name} has only {len(old)} entries")
            value = old[:index] + (value,) + old[index + 1 :]
        changes[field_name] = value
    changes.pop("learning_rate", None)
    return replace(base, **changes).specs()


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
    m: FeatureMatrix,
    config: TrainConfig,
    base: Architecture,
    cv_k: int = 5,
    smote_k: int = 5,
    include_default: bool = False,
) -> list[Trial]:
    """Seeded independent draws, each applied to the `base` architecture and
    scored by cross-validation; ranked by mean F1 descending with smaller
    parameter count breaking ties. With `include_default`, `base` itself,
    with nothing sampled, is trial 0. Trials whose sampled stack cannot be
    built or fails shape inference are recorded as failed; a `base`, `cv_k`,
    `smote_k` or label vector that no trial could use raises ValueError
    first."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    check_smote(m.y, smote_k)  # before the folds, so a bad smote_k is not put down to cv_k
    base.specs()
    # Each class's share of each fold is fixed by the round-robin deal, not
    # by the seed, so these folds stand for every trial's.
    for train_idx, _ in stratified_folds(m.y, cv_k, config.seed):
        try:
            check_smote(m.y[train_idx], smote_k)
        except ValueError as exc:
            raise ValueError(f"cv_k={cv_k} leaves a training fold that SMOTE cannot balance: {exc}") from None
    rng = np.random.default_rng(config.seed)
    all_hp = ([{}] if include_default else []) + [sample_hyperparams(space, rng) for _ in range(n_trials)]
    width = m.x.shape[1]
    trials: list[Trial] = []
    for idx, hp in enumerate(all_hp):
        trial = Trial(index=idx, hyperparams=hp)
        try:
            specs = specs_from_hyperparams(hp, base)
            trial.n_params = Network(width, specs).param_count()
            trial_config = replace(
                config,
                learning_rate=float(hp.get("learning_rate", config.learning_rate)),
                seed=config.seed + idx,
            )
            trial.fold_f1 = cross_validate(m, cv_k, trial_config, specs=specs, smote_k=smote_k)
            trial.mean_f1 = float(np.mean(trial.fold_f1))
            trial.std_f1 = float(np.std(trial.fold_f1))
        except ValueError as exc:
            trial.status = "failed"
            trial.error = str(exc)
        trials.append(trial)
    ok = [t for t in trials if t.status == "ok"]
    failed = [t for t in trials if t.status != "ok"]
    ok.sort(key=lambda t: (-t.mean_f1, t.n_params, t.index))
    return ok + failed


def trials_tsv(trials: list[Trial]) -> str:
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
    return "\n".join(lines) + "\n"
