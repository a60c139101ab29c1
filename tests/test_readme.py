import re
from pathlib import Path

import irunet
from irunet.imageio import save_image

from conftest import synth_image

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet() -> str:
    """The first python block of the README's "Library use" section."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_snippet_runs_as_written(tmp_path, monkeypatch):
    (tmp_path / "clean").mkdir()
    save_image(synth_image(3, size=32), tmp_path / "clean" / "img000.png")
    monkeypatch.chdir(tmp_path)  # the snippet reads clean/img000.png
    namespace: dict = {}
    exec(library_snippet(), namespace)
    restored = namespace["restored"]
    assert restored.shape == (1, 3, 32, 32)
    assert restored.data.min() >= 0.0 and restored.data.max() <= 1.0
    missing = [name for name in irunet.__all__ if not hasattr(irunet, name)]
    assert missing == []
