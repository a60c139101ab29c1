import re
from dataclasses import asdict
from pathlib import Path

import irunet
from irunet.config import TrainConfig, load_run_config
from irunet.imageio import save_image
from irunet.model import ModelConfig

from conftest import synth_image

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title: str) -> str:
    """The README's `## title` section, up to the next one."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"## {title}")
    return text[start:text.index("\n## ", start)]


def library_snippets() -> list[str]:
    """Every python block of the README's "Library use" section, in order."""
    return re.findall(r"```python\n(.*?)```", section("Library use"), re.S)


def test_config_table_lists_every_field_with_its_default():
    rows = []  # (key, default as the table spells it)
    for keys, defaults in re.findall(r"^\| (`.*?) \| (.*?) \|", section("Configuration keys"),
                                     re.M):
        names, values = re.findall(r"`(\w+)`", keys), defaults.split(", ")
        assert len(names) == len(values), keys
        rows.extend(zip(names, values))
    defaults = {**asdict(ModelConfig()), **asdict(TrainConfig())}
    assert sorted(key for key, _ in rows) == sorted(defaults)
    # parsed as the config file parses each value
    assert load_run_config(overrides=[f"{k}={v}" for k, v in rows]) == defaults


def test_library_use_snippet_runs_as_written(tmp_path, monkeypatch):
    (tmp_path / "clean").mkdir()
    save_image(synth_image(3, size=32), tmp_path / "clean" / "img000.png")
    monkeypatch.chdir(tmp_path)  # the first snippet reads clean/img000.png
    snippets = library_snippets()
    assert len(snippets) == 2
    namespace: dict = {}
    for snippet in snippets:  # each block continues the ones before it
        exec(snippet, namespace)
    restored = namespace["restored"]
    assert restored.shape == (1, 3, 32, 32)
    assert namespace["latent"].shape == (1, 64, 2, 2)
    assert restored.data.min() >= 0.0 and restored.data.max() <= 1.0
    missing = [name for name in irunet.__all__ if not hasattr(irunet, name)]
    assert missing == []
