"""Flat key-value run configuration.

A config file holds `key = value` lines, each key at most once. A `#` at the
start of a line or after whitespace starts a comment; any other `#` is part
of the value, so `registry = /data/run#2/scales.tsv` keeps its path.
Command-line flags override file values; every run writes its fully resolved
configuration next to its outputs. A value that file could not load back (a
line break, leading or trailing whitespace, or a `#` that would start a
comment) is refused.

The stock values `RunConfig` takes its defaults from (`Architecture`,
`TrainConfig`, `DEFAULT_N_MODEL`) live here, and `network`, `training` and
`dataset` import them, so that reading a configuration loads no numpy.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .layers import LayerSpec

# Feature-vector width of the paper's model input.
DEFAULT_N_MODEL = 16730


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
        from .layers import Conv1DSpec, DenseSpec, DropoutSpec, LSTMSpec, MaxPool1DSpec

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


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be a positive finite number, got {self.learning_rate}")


class ConfigError(ValueError):
    pass


# A '#' that starts the line or follows whitespace.
_COMMENT = re.compile(r"(?<!\S)#")


# numpy's generators take no negative seed.
_SEEDS = ("split_seed", "smote_seed", "train_seed")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",")) if text else ()


@dataclass
class RunConfig:
    # paths
    workdir: str = "."
    registry: str = ""  # empty -> packaged default registry
    search_space: str = ""  # empty -> built-in default space
    # featurization
    n_model: int = DEFAULT_N_MODEL
    # split
    ratio: float = 0.8
    split_seed: int = 0
    # balancing
    smote_k: int = 5
    smote_seed: int = 0
    # training; stock values from TrainConfig
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    train_seed: int = TrainConfig.seed
    # architecture; stock values from Architecture
    conv_filters: tuple[int, ...] = Architecture.conv_filters
    kernel_size: int = Architecture.kernel_size
    pool_size: int = Architecture.pool_size
    dropout_rate: float = Architecture.dropout_rate
    lstm_units: int = Architecture.lstm_units
    dense_units: tuple[int, ...] = Architecture.dense_units
    # evaluation / prediction
    threshold: float = 0.5
    # search
    trials: int = 8
    cv_k: int = 5

    def apply(self, overrides: dict[str, str]) -> None:
        """Coerce and assign string values onto typed fields."""
        by_name = {f.name: f for f in fields(self)}
        for key, raw in overrides.items():
            if key not in by_name:
                raise ConfigError(f"unknown configuration key: {key}")
            if raw.splitlines() not in ([], [raw]) or raw != raw.strip() or _COMMENT.search(raw):
                raise ConfigError(
                    f"bad value for {key}: {raw!r} (a config file cannot hold a line break, "
                    "leading or trailing whitespace, or a '#' at the start or after whitespace)"
                )
            current = getattr(self, key)
            try:
                if isinstance(current, int):
                    value = int(raw)
                elif isinstance(current, float):
                    value = float(raw)
                elif isinstance(current, tuple):
                    value = _parse_int_list(raw)
                else:
                    value = raw
                if key in _SEEDS and value < 0:
                    raise ValueError("a seed must be a non-negative integer")
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None
            setattr(self, key, value)

    def resolved_lines(self, extra: dict[str, str] | None = None) -> str:
        items = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            items[f.name] = str(value)
        items.update(extra or {})
        return "\n".join(f"{k} = {items[k]}" for k in sorted(items)) + "\n"


def parse_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    linenos: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in linenos:
            raise ConfigError(f"{path}:{lineno}: {key} is already set on line {linenos[key]}")
        values[key], linenos[key] = value, lineno
    return values


def load_config(config_path: str | None, cli_overrides: dict[str, str]) -> RunConfig:
    cfg = RunConfig()
    if config_path:
        cfg.apply(parse_config_file(config_path))
    cfg.apply(cli_overrides)
    return cfg
