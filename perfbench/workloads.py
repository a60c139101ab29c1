"""The three benchmark workloads and their correctness checks.

Every workload is a closed loop: one process, one thread, one unit of work
at a time, the next unit starting when the previous one returns. A unit is
one train step (train_b8_p64), one image file denoised file to file
(denoise_p256), or one evaluate_model pass over the test split
(evaluate_mixed). Unit 0 is a warm-up and is not timed. Inputs are pure
functions of the seed; irunet only ever sees the generated files.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import corpus
import hostspeed
from irunet import checkpoint, imageio, metrics, model
from irunet.data import DatasetManifest, ManifestRow
from irunet.imageio import load_image as decode_exact  # bound before any tracing patch
from irunet.tensor import no_grad

train = importlib.import_module("irunet.train")  # the package re-exports train() as `train`

SETUP_REPEATS = 101
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
REFERENCE_SEED = 0  # fixed inputs of the reference checks, independent of --seed
TRAIN_REFERENCE = {"size": 32, "images": 4, "batch": 2, "steps": 4, "lr": 1e-3}


@dataclass
class UnitLog:
    """What one run of a workload did: unit spans, pixels, probes, failures and checks."""

    units: list[tuple[int, float, float]] = field(default_factory=list)  # (index, start, end)
    pixels: list[int] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)  # host-speed probe after each unit
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)

    def timed(self) -> list[tuple[int, float, float]]:
        return [u for u in self.units if u[0] > 0]

    def seconds(self) -> tuple[list[float], list[float], list[int]]:
        """Raw and host-speed-compensated seconds, and pixels, of the timed units."""
        raw, compensated, pixels = [], [], []
        for (index, start, end), scale, px in zip(
                self.units, hostspeed.scales(self.probes), self.pixels):
            if index > 0:
                raw.append(end - start)
                compensated.append((end - start) * scale)
                pixels.append(px)
        return raw, compensated, pixels

    def fail(self, unit: int, message: str) -> None:
        self.failed += 1
        self.errors.append(f"unit {unit}: {message}")


def _sigmas(gen: np.random.Generator, n: int) -> list[int]:
    """n noise levels spread evenly over 0..50, in seeded order."""
    return [int(s) for s in gen.permutation(np.round(np.linspace(0, 50, n)).astype(int))]


def _write_corpus(directory: str, shapes, seed: int, mixed_filters: bool) -> dict[str, np.ndarray]:
    """Synthetic images of the given (h, w) shapes; returns file name -> pixels."""
    os.makedirs(directory, exist_ok=True)
    gen = np.random.default_rng(seed)
    images = {}
    for i, (h, w) in enumerate(shapes):
        name = f"img{i:03d}.png"
        img = corpus.synthetic_image(int(gen.integers(2**63)), h, w)
        filter_seed = int(gen.integers(2**63)) if mixed_filters else None
        corpus.write_png(img, os.path.join(directory, name), filter_seed)
        images[name] = img
    return images


def _decodes_exactly(directory: str, images: dict[str, np.ndarray]) -> bool:
    return all(np.array_equal(decode_exact(os.path.join(directory, name)), img)
               for name, img in images.items())


def _write_manifest(directory: str, names, split: str, seed: int) -> str:
    gen = np.random.default_rng(seed)
    sigmas = _sigmas(gen, len(names))
    rows = [ManifestRow(clean_path=name, sigma=sigma, seed=int(gen.integers(2**62)), split=split)
            for name, sigma in zip(names, sigmas)]
    path = os.path.join(directory, "manifest.csv")
    DatasetManifest(rows, root=directory).save(path)
    return path


def _write_checkpoint(directory: str, seed: int) -> str:
    path = os.path.join(directory, "model.ckpt")
    config = model.ModelConfig()
    checkpoint.save_checkpoint(model.build_params(config, seed), config, path)
    return path


def closed_loop(unit, seconds: float, tracer) -> UnitLog:
    """Run unit(index) back to back until `seconds` have passed (at least 2 units).

    unit returns (pixels, verify); verify() runs after the clock stops and
    says whether the unit's outputs are correct.
    """
    log = UnitLog()
    probe = hostspeed.Probe()
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        if tracer is not None:
            tracer.unit = index
        log.attempted += 1
        start = time.perf_counter()
        try:
            pixels, verify = unit(index)
        except Exception as e:  # a failed unit is counted, the loop goes on
            end = time.perf_counter()
            log.fail(index, repr(e))
        else:
            end = time.perf_counter()
            if verify():
                log.units.append((index, start, end))
                log.pixels.append(pixels)
                log.probes.append(probe())
            else:
                log.fail(index, "output check failed")
        index += 1
        if end >= deadline and index >= 2:
            return log


# ------------------------------------------------------------------ train

class _Deadline(Exception):
    pass


class _StepClock:
    """Log stream for train(): each step line ends a unit, then the probe runs."""

    def __init__(self, seconds: float, tracer):
        self.probe = hostspeed.Probe()
        self.deadline = time.perf_counter() + seconds
        self.tracer = tracer
        self.log = UnitLog()
        self.losses: list[float] = []
        self.start = time.perf_counter()

    def write(self, line: str) -> None:
        end = time.perf_counter()
        self.log.units.append((len(self.log.units), self.start, end))
        self.losses.append(float(line.split("\t")[1]))
        self.log.probes.append(self.probe())
        if self.tracer is not None:
            self.tracer.unit = len(self.log.units)
        if end >= self.deadline and len(self.log.units) >= 2:
            raise _Deadline
        self.start = time.perf_counter()

    def flush(self) -> None:
        pass


@dataclass
class TrainWorkload:
    """train() on 64x64 PNGs at batch 8, sigma 0..50, checkpoints every 5 steps.

    The only workload that records the autograd graph: conv backward,
    autodiff bookkeeping, Adam and checkpoint writes do the work. After the
    first epoch the image cache leaves imageio nearly idle.
    """

    name = "train_b8_p64"
    size: int = 64
    images: int = 48
    batch: int = 8
    checkpoint_every: int = 5
    step_units = True

    def prepare(self, workdir: str, seed: int) -> dict[str, bool]:
        clean = os.path.join(workdir, "clean")
        images = _write_corpus(clean, [(self.size, self.size)] * self.images, seed, True)
        self.manifest_path = _write_manifest(clean, sorted(images), "train", seed + 1)
        self.workdir = workdir
        self.seed = seed
        return {"corpus_decodes_exactly": _decodes_exactly(clean, images),
                "train_reference_trace": check_train_reference(os.path.join(workdir, "ref"))}

    def setup(self):
        manifest = DatasetManifest.load(self.manifest_path)
        model.build_params(model.ModelConfig(), self.seed)
        return manifest

    def run(self, manifest, seconds: float, tracer) -> UnitLog:
        config = train.TrainConfig(batch_size=self.batch, max_steps=10**9,
                                   checkpoint_every=self.checkpoint_every,
                                   init_seed=self.seed, epoch_seed=self.seed + 2)
        out_dir = os.path.join(self.workdir, "traced" if tracer else "untraced")
        if tracer is not None:
            tracer.unit = 0
        clock = _StepClock(seconds, tracer)
        log = clock.log
        try:  # the log stream stops train() after the first step past the deadline
            train.train(model.ModelConfig(), config, manifest, out_dir, log_stream=clock)
        except _Deadline:
            pass
        except Exception as e:  # a failing step ends the run; the steps before it still count
            log.fail(len(log.units), repr(e))
        log.pixels = [self.batch * self.size * self.size] * len(log.units)
        log.attempted = len(log.units) + log.failed
        log.checks["losses_finite"] = log.failed == 0 and all(
            math.isfinite(v) for v in clock.losses)
        return log


def train_reference_losses(workdir: str) -> list[float]:
    """Loss trace of a short fixed training run (the reference check's input)."""
    ref = TRAIN_REFERENCE
    clean = os.path.join(workdir, "clean")
    images = _write_corpus(clean, [(ref["size"], ref["size"])] * ref["images"],
                           REFERENCE_SEED, True)
    manifest = DatasetManifest.load(_write_manifest(clean, sorted(images), "train",
                                                    REFERENCE_SEED))
    config = train.TrainConfig(learning_rate=ref["lr"], batch_size=ref["batch"],
                               max_steps=ref["steps"], checkpoint_every=2)
    with open(os.devnull, "w") as devnull:
        result = train.train(model.ModelConfig(), config, manifest,
                             os.path.join(workdir, "run"), log_stream=devnull)
    return result.losses


def check_train_reference(workdir: str) -> bool:
    ref = load_reference()
    got = train_reference_losses(workdir)
    return len(got) == len(ref["train_losses"]) and bool(
        np.allclose(got, ref["train_losses"], rtol=ref["rtol"], atol=0.0))


# ---------------------------------------------------------------- denoise

@dataclass
class DenoiseWorkload:
    """256x256 PNGs denoised file to file at batch 1 under no_grad.

    The same public calls `irunet denoise` makes: load_image, to_batch,
    forward, tensor_to_image, save_image. Inputs are written with filter 0,
    as `irunet corrupt` writes them, so the decode path stays light and
    forward-only convs on large maps dominate.
    """

    name = "denoise_p256"
    size: int = 256
    files: int = 8
    step_units = False

    def prepare(self, workdir: str, seed: int) -> dict[str, bool]:
        noisy = os.path.join(workdir, "noisy")
        clean = _write_corpus(os.path.join(workdir, "clean"),
                              [(self.size, self.size)] * self.files, seed, False)
        gen = np.random.default_rng(seed + 1)
        images = {}
        os.makedirs(noisy, exist_ok=True)
        for (name, img), sigma in zip(sorted(clean.items()), _sigmas(gen, self.files)):
            grain = gen.normal(0.0, sigma, size=img.shape)
            images[name] = np.floor(np.clip(img + grain, 0, 255) + 0.5).astype(np.uint8)
            corpus.write_png(images[name], os.path.join(noisy, name), None)
        self.inputs = [os.path.join(noisy, name) for name in sorted(images)]
        self.outputs = os.path.join(workdir, "denoised")
        os.makedirs(self.outputs, exist_ok=True)
        self.checkpoint = _write_checkpoint(workdir, seed)
        return {"corpus_decodes_exactly": _decodes_exactly(noisy, images)}

    def setup(self):
        return checkpoint.load_checkpoint(self.checkpoint)

    def run(self, loaded, seconds: float, tracer) -> UnitLog:
        def unit(index: int):
            src = self.inputs[index % len(self.inputs)]
            dst = os.path.join(self.outputs, os.path.basename(src))
            img = imageio.load_image(src)
            x = imageio.to_batch([img])
            with no_grad():
                z = model.forward(x, loaded.config, loaded.params)
            restored = imageio.tensor_to_image(z)
            imageio.save_image(restored, dst)
            return img.shape[0] * img.shape[1], lambda: (
                bool(np.all(np.isfinite(z.data)))
                and np.array_equal(decode_exact(dst), restored))

        log = closed_loop(unit, seconds, tracer)
        log.checks["denoised_png_roundtrip"] = log.failed == 0
        return log


# --------------------------------------------------------------- evaluate

@dataclass
class EvaluateWorkload:
    """evaluate_model over a test split of 128x128 and 96x160 PNGs, interleaved.

    Rows carry mixed Sub/Up/Average/Paeth filters and sigmas over 0..50, so
    PNG defiltering, AWGN corruption and SSIM take a large share of the time.
    The two shapes alternate, so batching same-shape images must group them.
    """

    name = "evaluate_mixed"
    shapes: tuple = ((128, 128), (96, 160))
    per_shape: int = 2
    step_units = False

    def prepare(self, workdir: str, seed: int) -> dict[str, bool]:
        clean = os.path.join(workdir, "clean")
        shapes = [s for _ in range(self.per_shape) for s in self.shapes]
        images = _write_corpus(clean, shapes, seed, True)
        self.manifest_path = _write_manifest(clean, sorted(images), "test", seed + 1)
        self.pixels = sum(h * w for h, w in shapes)
        self.checkpoint = _write_checkpoint(workdir, seed)
        ref = load_reference()
        got = evaluate_reference_row(os.path.join(workdir, "ref"))
        return {"corpus_decodes_exactly": _decodes_exactly(clean, images),
                "evaluate_reference_all_row": bool(
                    np.allclose(got, ref["evaluate_all_row"], rtol=ref["rtol"], atol=0.0))}

    def setup(self):
        return (DatasetManifest.load(self.manifest_path),
                checkpoint.load_checkpoint(self.checkpoint))

    def run(self, state, seconds: float, tracer) -> UnitLog:
        manifest, loaded = state
        first: dict = {}

        def unit(index: int):
            report = metrics.evaluate_model(loaded.params, loaded.config, manifest, "test")
            row = report.group_means()[-1]
            return self.pixels, lambda: (
                row[0] == "ALL" and all(math.isfinite(v) for v in row[2:])
                and first.setdefault("row", row) == row)

        log = closed_loop(unit, seconds, tracer)
        log.checks["evaluate_passes_agree"] = log.failed == 0
        return log


def evaluate_reference_row(workdir: str) -> list[float]:
    """ALL-row (psnr, ssim, mae) of a fixed checkpoint on a fixed four-image split."""
    clean = os.path.join(workdir, "clean")
    shapes = [(32, 32), (16, 48), (32, 32), (16, 48)]
    images = _write_corpus(clean, shapes, REFERENCE_SEED, True)
    manifest = DatasetManifest.load(_write_manifest(clean, sorted(images), "test",
                                                    REFERENCE_SEED))
    loaded = checkpoint.load_checkpoint(_write_checkpoint(workdir, REFERENCE_SEED + 1))
    report = metrics.evaluate_model(loaded.params, loaded.config, manifest, "test")
    return list(report.group_means()[-1][2:])


# ---------------------------------------------------------------- registry

def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)


WORKLOADS = {w.name: w for w in (TrainWorkload, DenoiseWorkload, EvaluateWorkload)}
