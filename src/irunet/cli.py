"""Command line front end: corrupt, train, denoise, evaluate, params, gradcheck.

Exit codes are a stable scripting contract: 0 success, 1 check failure,
2 usage or input error, 3 runtime abort (non-finite loss).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import time

from . import gradcheck as gradcheck_mod
from . import imageio
from .checkpoint import load_checkpoint
from .config import build_config, echo_lines, load_run_config
from .data import DatasetManifest, build_manifest, list_images
from .metrics import evaluate_model
from .model import ModelConfig, check_image_size, forward, layer_specs, param_count
from .noise import corrupt
from .tensor import no_grad
from .train import NonFiniteLossError, TrainConfig, train

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ABORT = 3


class UsageError(Exception):
    pass


def _parse_sigmas(text: str) -> list[int]:
    """Accept '25', '10,25,50' or '0..50' (inclusive range)."""
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..")
            lo, hi = int(lo_s), int(hi_s)
            if lo > hi:
                raise ValueError
            values = list(range(lo, hi + 1))
        else:
            values = [int(p) for p in text.split(",") if p != ""]
        if not values:
            raise ValueError
    except ValueError:
        raise UsageError(f"cannot parse sigma list {text!r} (use N, N,M,... or LO..HI)")
    return values


# ------------------------------------------------------------- commands

def cmd_corrupt(args) -> int:
    if not os.path.isdir(args.input):
        raise UsageError(f"input directory not readable: {args.input}")
    sigmas = _parse_sigmas(args.sigmas)
    manifest = build_manifest(args.input, sigmas, args.seed, split_ratio=args.train_frac)
    os.makedirs(args.output, exist_ok=True)
    for row in manifest.rows:
        clean = imageio.load_image(manifest.resolve(row))
        noisy = corrupt(clean, row.noise)
        stem, ext = os.path.splitext(row.clean_path)
        imageio.save_image(noisy, os.path.join(args.output, f"{stem}_s{row.sigma:02d}{ext}"))
    manifest_path = os.path.join(args.output, args.manifest_name)
    manifest.save(manifest_path)
    for sigma, count in manifest.sigma_counts().items():
        print(f"sigma {sigma:2d}: {count} image(s)")
    print(f"wrote {len(manifest.rows)} noisy images and {manifest_path}")
    return EXIT_OK


class _RunLog:
    """A run's `train.log`, opened, and headed, at the first line the run logs.

    A fresh run creates the file, and its directory, a resumed one appends
    to it. The header also goes to stdout then. Leaving the block normally (a
    finished run, or an abort) writes the header of a run that logged no
    step. Leaving it by an exception does not, so a run rejected at its start
    or failing on its input before its first step prints no header, leaves
    no new file, and leaves a resumed log byte-identical.
    """

    def __init__(self, path: str, mode: str, header: str):
        self._path, self._mode, self._header = path, mode, header
        self._file = None

    def write(self, text: str) -> None:
        if self._file is None:
            os.makedirs(os.path.dirname(self._path), exist_ok=True)
            self._file = open(self._path, self._mode, encoding="utf-8")
            self._file.write(self._header)
            sys.stdout.write(self._header)
        self._file.write(text)

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()

    def __enter__(self) -> "_RunLog":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.write("")
        if self._file is not None:
            self._file.close()


def cmd_train(args) -> int:
    loaded = None if args.resume is None else load_checkpoint(args.resume)
    resumed = None if loaded is None else loaded.config
    values = load_run_config(args.config, args.set, model=resumed)
    model_config = build_config(ModelConfig, values)
    train_config = build_config(TrainConfig, values)
    manifest = DatasetManifest.load(args.manifest)
    log_path = os.path.join(args.out, "train.log")
    header = "".join(f"# {line}\n" for line in echo_lines(model_config, train_config))
    # a resumed run continues the log: each segment opens with its own header
    with _RunLog(log_path, "w" if args.resume is None else "a", header) as log:
        try:
            result = train(model_config, train_config, manifest, args.out,
                           start=loaded, log_stream=log)
        except NonFiniteLossError as e:
            print(f"ABORT: {e}", file=sys.stderr)
            return EXIT_ABORT
    print(f"trained {len(result.losses)} step(s); final checkpoint {result.final_checkpoint}")
    print(f"log written to {log_path}")
    return EXIT_OK


def _denoise_one(params, config, in_path, out_path) -> float:
    img = imageio.load_image(in_path)
    check_image_size(img.shape[0], img.shape[1], in_path)
    x = imageio.to_batch([img])
    start = time.perf_counter()
    with no_grad():
        z = forward(x, config, params)
    elapsed = time.perf_counter() - start
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    imageio.save_image(imageio.tensor_to_image(z), out_path)
    return elapsed


def cmd_denoise(args) -> int:
    directory = os.path.isdir(args.input)
    # reject the input and the output format before any work
    if directory:
        names = list_images(args.input)
        if not names:
            raise UsageError(f"no supported images (png/ppm) in {args.input}")
    else:
        imageio.image_writer(args.output)
        if not os.path.isfile(args.input):
            raise UsageError(f"input not found: {args.input}")
    loaded = load_checkpoint(args.checkpoint)
    if directory:
        skipped = [n for n in os.listdir(args.input)
                   if os.path.isfile(os.path.join(args.input, n))
                   and not n.lower().endswith(imageio.IMAGE_EXTENSIONS)]
        for name in names:
            seconds = _denoise_one(loaded.params, loaded.config,
                                   os.path.join(args.input, name),
                                   os.path.join(args.output, name))
            print(f"{name}: {seconds:.3f}s")
        for name in sorted(skipped):
            print(f"skipped (unsupported format): {name}")
        print(f"denoised {len(names)} image(s), skipped {len(skipped)}")
    else:
        seconds = _denoise_one(loaded.params, loaded.config, args.input, args.output)
        print(f"{args.input}: {seconds:.3f}s")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if args.out != "-" and os.path.isdir(args.out):  # the error open() would raise, before any work
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
    manifest = DatasetManifest.load(args.manifest)
    loaded = load_checkpoint(args.checkpoint)
    report = evaluate_model(loaded.params, loaded.config, manifest, args.split,
                            unit_scale_psnr=args.unit_scale_psnr)
    text = report.to_tsv()
    if args.out == "-":
        sys.stdout.write(text)
    else:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        print(f"report written to {args.out}")
    return EXIT_OK


def cmd_params(args) -> int:
    config = build_config(ModelConfig, load_run_config(args.config, args.set))
    for name, spec in layer_specs(config):
        print(f"{name:20s} weight{spec.weight_shape} bias({spec.out_channels},)  "
              f"{spec.param_count()}")
    print(f"total trainable parameters: {param_count(config)}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = gradcheck_mod.run(args.level, seed=args.seed)
    for r in results:
        print(r.line())
        if not r.passed:
            for line in r.group_lines():
                print(line)
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} gradient check(s) FAILED")
        return EXIT_CHECK_FAILED
    print(f"all {len(results)} gradient check(s) passed")
    return EXIT_OK


# -------------------------------------------------------------- argparse

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irunet",
        description="Blind image denoiser: dataset corruption, training, "
                    "inference and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corrupt", help="corrupt a clean image directory and write a manifest")
    p.add_argument("--input", required=True, help="directory of clean PNG/PPM images")
    p.add_argument("--output", required=True, help="directory for noisy images + manifest")
    p.add_argument("--sigmas", default="0..50", help="sigma list: N, N,M,... or LO..HI")
    p.add_argument("--seed", type=int, default=0, help="base seed for noise and shuffling")
    p.add_argument("--train-frac", type=float, default=0.8,
                   help="fraction of rows assigned to the train split")
    p.add_argument("--manifest-name", default="manifest.csv")
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("train", help="train a model on a corruption manifest")
    p.add_argument("--config", default=None, help="key=value configuration file")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory for checkpoints and log")
    p.add_argument("--resume", default=None, help="training checkpoint to resume from")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one configuration key (repeatable)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("denoise", help="run a checkpoint on an image or directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="image file or directory")
    p.add_argument("--output", required=True, help="output file or directory")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("evaluate", help="score a checkpoint on a manifest split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test", choices=["train", "test"])
    p.add_argument("--out", default="-", help="TSV report path, or - for stdout")
    p.add_argument("--unit-scale-psnr", action="store_true",
                   help="PSNR on the raw [0,1] reconstruction instead of 8-bit")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("params", help="print per-layer and total parameter counts")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--level", default="all", choices=["layer", "block", "model", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
