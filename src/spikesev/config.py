"""Flat key-value run configuration.

A config file holds `key = value` lines ('#' starts a comment). Command-line
flags override file values; every run writes its fully resolved configuration
next to its outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .network import Architecture
from .training import TrainConfig


class ConfigError(ValueError):
    pass


def _parse_bool(text: str) -> bool:
    value = text.strip().casefold()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


@dataclass
class RunConfig:
    # paths
    fasta: str = ""
    metadata: str = ""
    workdir: str = "."
    registry: str = ""  # empty -> packaged default registry
    search_space: str = ""  # empty -> built-in default space
    # metadata parsing
    delimiter: str = "auto"  # auto | tab | comma
    # featurization
    n_model: int = 16730
    block_weight_sequence: float = 1.0
    block_weight_covariates: float = 1.0
    age_binning: str = "exact"  # exact | decade
    jobs: int = 1
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
    lambda_l2: float = TrainConfig.lambda_l2
    train_seed: int = TrainConfig.seed
    shuffle: bool = TrainConfig.shuffle
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
            current = getattr(self, key)
            try:
                if isinstance(current, bool):
                    value = _parse_bool(raw)
                elif isinstance(current, int):
                    value = int(raw)
                elif isinstance(current, float):
                    value = float(raw)
                elif isinstance(current, tuple):
                    value = _parse_int_list(raw)
                else:
                    value = raw
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None
            setattr(self, key, value)

    def resolved_lines(self, extra: dict[str, str] | None = None) -> str:
        items = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            items[f.name] = str(value)
        items.update(extra or {})
        return "\n".join(f"{k} = {items[k]}" for k in sorted(items)) + "\n"


def parse_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def load_config(config_path: str | None, cli_overrides: dict[str, str]) -> RunConfig:
    cfg = RunConfig()
    if config_path:
        cfg.apply(parse_config_file(config_path))
    cfg.apply(cli_overrides)
    return cfg
