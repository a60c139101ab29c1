"""Flat key=value run configuration shared by the CLI commands.

One file holds architecture, optimizer and corruption settings; command
line --set overrides win over file values, which win over defaults. The
keys, their types and their defaults are the fields of ModelConfig and of
TrainConfig, defined here. Unknown keys are rejected, and every effective
value is echoed into log headers so a run's provenance is always
recoverable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, fields

from .model import ModelConfig


class ConfigError(ValueError):
    """Bad key, value or file in a run configuration."""


@dataclass(frozen=True)
class TrainConfig:
    """Adam and schedule settings of a training run (immutable); every float must be finite."""

    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7
    batch_size: int = 32
    max_steps: int = 1000
    checkpoint_every: int = 200
    init_seed: int = 1
    epoch_seed: int = 2

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is int:  # a plain int, whatever integer type; 2.5 is rejected
                object.__setattr__(self, f.name, operator.index(value))
            elif isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not 0.0 < self.beta1 < 1.0 or not 0.0 < self.beta2 < 1.0:
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if self.epsilon <= 0.0 or self.learning_rate <= 0.0:
            raise ValueError("epsilon and learning_rate must be positive")
        if self.batch_size < 1 or self.max_steps < 1 or self.checkpoint_every < 1:
            raise ValueError("batch_size, max_steps and checkpoint_every must be >= 1")


def _set(values: dict[str, object], key: str, raw: str) -> None:
    """Parse raw as the type of the key's default and store it."""
    key, raw = key.strip(), raw.strip()
    if key not in values:
        raise ConfigError(f"unknown configuration key {key!r}")
    if isinstance(values[key], tuple):
        try:
            values[key] = tuple(int(p) for p in raw.split(",") if p != "")
        except ValueError as e:
            raise ConfigError(f"{key} must be comma-separated integers: {raw!r}") from e
        return
    try:
        values[key] = type(values[key])(raw)
    except ValueError as e:
        raise ConfigError(f"bad value for {key}: {raw!r}") from e


def load_run_config(config_path=None, overrides: list[str] | None = None,
                    model: ModelConfig | None = None) -> dict[str, object]:
    """Defaults, then the file's key=value lines, then --set pairs: key -> value.

    The model keys default to `model`'s values when given (a resumed
    checkpoint's config), else to ModelConfig's defaults.
    """
    values = {**asdict(model or ModelConfig()), **asdict(TrainConfig())}
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as f:
                lines = f.readlines()
        except OSError as e:
            raise ConfigError(f"cannot read config file {config_path}: {e}") from e
        except UnicodeDecodeError as e:
            raise ConfigError(f"{config_path}: not UTF-8 text ({e.reason})") from None
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(
                    f"{config_path}:{lineno}: expected key=value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            _set(values, key, value)
    for pair in overrides or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        _set(values, key, value)
    return values


def build_config(cls, values: dict[str, object]):
    """Construct and validate one config dataclass from its fields' values."""
    try:
        return cls(**{f.name: values[f.name] for f in fields(cls)})
    except ValueError as e:
        raise ConfigError(str(e)) from e


def echo_lines(*configs) -> list[str]:
    """Sorted key=value lines of the given configs, tuples joined by commas."""
    values = {}
    for config in configs:
        values.update(asdict(config))
    out = []
    for key in sorted(values):
        val = values[key]
        if isinstance(val, tuple):
            val = ",".join(str(x) for x in val)
        out.append(f"{key}={val}")
    return out
