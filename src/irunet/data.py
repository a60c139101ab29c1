"""Dataset manifest and deterministic batch construction.

A manifest row pins one corrupted instance: which clean file, which sigma,
which noise seed, and the train/test split it belongs to. Batches are then
a pure function of (manifest, epoch seed), so any training step can be
replayed exactly.
"""

from __future__ import annotations

import numbers
import operator
import os
from dataclasses import dataclass

from . import imageio, rng
from .model import check_image_size
from .noise import SIGMA_MAX, NoiseSpec, corrupt

MANIFEST_HEADER = "clean_path,sigma,seed,split"
SPLITS = ("train", "test")


def _check_manifest_path(path: str) -> None:
    """Reject a path holding a comma or a line end (load ends lines at LF and at CR)."""
    if "," in path or "\n" in path or "\r" in path:
        raise ValueError(f"path not representable in manifest: {path!r}")


@dataclass(frozen=True)
class ManifestRow:
    clean_path: str
    sigma: int
    seed: int
    split: str

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")
        # an integer: save writes the value as it is, and load reads an int
        if not (isinstance(self.sigma, numbers.Integral) and 0 <= self.sigma <= SIGMA_MAX):
            raise ValueError(f"sigma must be an integer in 0..{SIGMA_MAX:g}, got {self.sigma}")
        _check_manifest_path(self.clean_path)

    @property
    def noise(self) -> NoiseSpec:
        """The noise that corrupts this row's clean image."""
        return NoiseSpec(sigma=float(self.sigma), seed=self.seed)


def _instance(root: str, row: ManifestRow) -> tuple[str, int, int]:
    """The corrupted instance a row names: (clean file, sigma, seed), however spelt."""
    return os.path.abspath(os.path.join(root, row.clean_path)), row.sigma, row.seed


class DatasetManifest:
    """Ordered rows naming unique (clean file, sigma, seed) instances."""

    def __init__(self, rows: list[ManifestRow], root: str = ""):
        if len({_instance(root, r) for r in rows}) != len(rows):
            raise ValueError("manifest rows are not unique over (clean_path, sigma, seed)")
        self.rows = list(rows)
        self.root = root  # directory non-absolute clean paths resolve against

    def resolve(self, row: ManifestRow) -> str:
        return os.path.join(self.root, row.clean_path)

    def split_rows(self, split: str) -> list[ManifestRow]:
        if split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
        return [r for r in self.rows if r.split == split]

    def missing_files(self, rows: list[ManifestRow]) -> str:
        """The listing of the rows' clean files that do not exist, each once; "" if none."""
        missing = dict.fromkeys(p for p in map(self.resolve, rows) if not os.path.isfile(p))
        return "missing clean files:\n  " + "\n  ".join(missing) if missing else ""

    def sigma_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for r in self.rows:
            counts[r.sigma] = counts.get(r.sigma, 0) + 1
        return dict(sorted(counts.items()))

    def save(self, path) -> None:
        """Write CSV; clean paths are rewritten relative to the manifest's directory."""
        base = os.path.dirname(os.path.abspath(path))
        lines = [MANIFEST_HEADER]
        for r in self.rows:
            resolved = os.path.abspath(self.resolve(r))
            try:
                out_path = os.path.relpath(resolved, base)
            except ValueError:
                out_path = resolved
            _check_manifest_path(out_path)
            lines.append(f"{out_path},{r.sigma},{r.seed},{r.split}")
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        try:
            with open(path, "r", encoding="utf-8") as f:
                lines = [ln.rstrip("\n") for ln in f]
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not UTF-8 text ({e.reason})") from None
        if not lines or lines[0] != MANIFEST_HEADER:
            raise ValueError(f"{path}: missing manifest header {MANIFEST_HEADER!r}")
        root = os.path.dirname(os.path.abspath(path))
        rows = []
        first_line: dict[tuple, int] = {}  # _instance(root, row) -> line
        for i, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(f"{path}:{i}: expected 4 fields, got {len(parts)}")
            try:
                row = ManifestRow(
                    clean_path=parts[0], sigma=int(parts[1]), seed=int(parts[2]), split=parts[3])
            except ValueError as e:
                raise ValueError(f"{path}:{i}: {e}") from None
            key = _instance(root, row)
            if key in first_line:
                raise ValueError(f"{path}:{i}: duplicate row: clean_path, sigma and seed "
                                 f"repeat line {first_line[key]}")
            first_line[key] = i
            rows.append(row)
        manifest = cls(rows, root=root)
        missing = manifest.missing_files(manifest.rows)
        if missing:
            raise FileNotFoundError(f"{path}: {missing}")
        return manifest


def list_images(clean_dir) -> list[str]:
    names = sorted(n for n in os.listdir(clean_dir)
                   if n.lower().endswith(imageio.IMAGE_EXTENSIONS)
                   and os.path.isfile(os.path.join(clean_dir, n)))
    return names


def build_manifest(clean_dir, sigma_set, base_seed: int,
                   split_ratio: float = 0.8) -> DatasetManifest:
    """Assign one sigma per clean image, balanced round-robin over sorted names.

    Per-row noise seeds derive from (base_seed, path, sigma); the row order
    is then shuffled deterministically by base_seed and split with the first
    split_ratio fraction as train.
    """
    sigmas = []
    for s in sigma_set:  # plain ints, whatever integer type; 25.5 or "7" is no sigma
        try:
            sigmas.append(operator.index(s))
        except TypeError:
            raise ValueError(f"sigma values must be integers, got {s!r}") from None
    if not sigmas:
        raise ValueError("sigma_set must be non-empty")
    for s in sigmas:
        if not 0 <= s <= SIGMA_MAX:
            raise ValueError(f"sigma values must lie in 0..{SIGMA_MAX:g}, got {s}")
    if not 0.0 <= split_ratio <= 1.0:
        raise ValueError(f"split_ratio must be in [0,1], got {split_ratio}")
    names = list_images(clean_dir)
    if not names:
        raise ValueError(f"no readable images (png/ppm) in {clean_dir}")

    assigned = []
    for i, name in enumerate(names):
        sigma = sigmas[i % len(sigmas)]
        assigned.append((name, sigma, rng.hash64(base_seed, name, sigma)))
    order = rng.permutation(base_seed, len(assigned))
    n_train = int(len(assigned) * split_ratio + 0.5)
    rows = []
    for pos, idx in enumerate(order):
        name, sigma, seed = assigned[idx]
        rows.append(ManifestRow(
            clean_path=name, sigma=sigma, seed=seed,
            split="train" if pos < n_train else "test"))
    return DatasetManifest(rows, root=os.path.abspath(clean_dir))


def epoch_plan(rows: list[ManifestRow], batch_size: int, epoch_seed: int) -> list[list[ManifestRow]]:
    """Deterministic batch partition of one epoch (final batch may be short)."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not rows:
        raise ValueError("cannot build batches from an empty split")
    order = rng.permutation(epoch_seed, len(rows))
    shuffled = [rows[i] for i in order]
    return [shuffled[i:i + batch_size] for i in range(0, len(shuffled), batch_size)]


def materialize_batch(manifest: DatasetManifest, batch_rows: list[ManifestRow], cache: dict):
    """Load, corrupt and normalize one batch.

    Returns (noisy [N,3,H,W] in [0,1], clean [N,3,H,W] in [0,1]). All images
    in the batch must share dimensions. A row's corruption is a pure function
    of (clean image, sigma, seed), so `cache` keeps each row's (clean, noisy)
    uint8 pair and corrupts it once.
    """
    cleans, noisies = [], []
    for row in batch_rows:
        key = _instance(manifest.root, row)
        if key in cache:
            clean, noisy = cache[key]
        else:
            clean = imageio.load_image(manifest.resolve(row))
            noisy = corrupt(clean, row.noise)
            cache[key] = clean, noisy
        cleans.append(clean)
        noisies.append(noisy)
    shape = cleans[0].shape
    for row, img in zip(batch_rows, cleans):
        check_image_size(img.shape[0], img.shape[1], manifest.resolve(row))
        if img.shape != shape:
            raise ValueError(
                f"mixed dimensions in one batch: {shape} vs {img.shape} ({row.clean_path})")
    return imageio.to_batch(noisies), imageio.to_batch(cleans)
