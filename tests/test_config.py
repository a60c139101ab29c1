import importlib
from dataclasses import FrozenInstanceError, fields

import pytest

from irunet.config import ConfigError, build_config, echo_lines, load_run_config
from irunet.model import ModelConfig
from irunet.train import TrainConfig

KEYS = [(cls, f.name) for cls in (ModelConfig, TrainConfig) for f in fields(cls)]


def off_default(value):
    """A valid value of the same type that differs from the default."""
    if isinstance(value, tuple):
        return tuple(v + 1 for v in value)
    if isinstance(value, float):
        return value / 2
    return value + 1


def as_text(value):
    return ",".join(str(v) for v in value) if isinstance(value, tuple) else repr(value)


@pytest.mark.parametrize("cls, key", KEYS, ids=[key for _, key in KEYS])
class TestEveryKey:
    def test_field_cannot_be_assigned(self, cls, key):
        config = cls()
        with pytest.raises(FrozenInstanceError):
            setattr(config, key, off_default(getattr(config, key)))
        assert getattr(config, key) == getattr(cls(), key)

    def test_set_and_file_give_typed_value(self, tmp_path, cls, key):
        default = getattr(cls(), key)
        want = off_default(default)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key}={as_text(want)}\n")
        for values in (load_run_config(overrides=[f"{key}={as_text(want)}"]),
                       load_run_config(config_path=cfg_file)):
            got = getattr(build_config(cls, values), key)
            assert got == want
            assert type(got) is type(default)
            if isinstance(got, tuple):
                assert all(type(v) is int for v in got)

    def test_malformed_value_names_key(self, tmp_path, cls, key):
        with pytest.raises(ConfigError, match=key):
            load_run_config(overrides=[f"{key}=1,x"])
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key}=1,x\n")
        with pytest.raises(ConfigError, match=key):
            load_run_config(config_path=cfg_file)


def test_default_echo():
    values = load_run_config()
    assert echo_lines(build_config(ModelConfig, values), build_config(TrainConfig, values)) == [
        "base_width=16", "batch_size=32", "beta1=0.9", "beta2=0.999", "branch_width=8",
        "checkpoint_every=200", "dilation_rate=2", "epoch_seed=2", "epsilon=1e-07",
        "init_seed=1", "input_channels=3", "kernel=3", "learning_rate=0.0001",
        "max_steps=1000", "sigma_high=50", "sigma_low=0", "stage_widths=24,32,48,64",
    ]


FLOAT_KEYS = [f.name for f in fields(TrainConfig)
              if isinstance(getattr(TrainConfig(), f.name), float)]


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_train_float_rejected(key, raw):
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        TrainConfig(**{key: float(raw)})
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        build_config(TrainConfig, load_run_config(overrides=[f"{key}={raw}"]))


def test_train_config_is_one_class_under_every_name():
    import irunet
    from irunet import config

    train = importlib.import_module("irunet.train")  # the package's `train` is the function
    assert irunet.TrainConfig is train.TrainConfig is config.TrainConfig
