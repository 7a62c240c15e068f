"""Flat key-value run configuration.

A config file holds `key = value` lines, each key at most once. A `#` at the
start of a line or after whitespace starts a comment; any other `#` is part
of the value, so `registry = /data/run#2/scales.tsv` keeps its path.
Command-line flags override file values; every run writes its fully resolved
configuration next to its outputs. A value that file could not load back (a
line break, leading or trailing whitespace, or a `#` that would start a
comment) is refused.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from pathlib import Path

from .dataset import DEFAULT_N_MODEL
from .network import Architecture
from .training import TrainConfig


class ConfigError(ValueError):
    pass


# A '#' that starts the line or follows whitespace.
_COMMENT = re.compile(r"(?<!\S)#")


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
