import re
from pathlib import Path

import irunet
from irunet.imageio import save_image

from conftest import synth_image

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippets() -> list[str]:
    """Every python block of the README's "Library use" section, in order."""
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library use")
    section = text[start:text.index("\n## ", start)]
    return re.findall(r"```python\n(.*?)```", section, re.S)


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
