"""Synthetic image corpora for the benchmark, written as real encoders write them.

irunet's own `save_image` writes every PNG row with filter 0 (None), which
its decoder handles with one copy per row. Real encoders choose a filter per
row (Sub, Up, Average or Paeth), and those rows go through the per-byte
defilter loop, which is an order of magnitude slower. This module writes
such files with stdlib `zlib` and numpy only, so the benchmark exercises the
decode path that real inputs take, without depending on the program it
measures. Filtered files carry the four filters in equal shares, in a
seeded row order, so a change to any one defilter shows and the decode cost
of a file does not depend on its content.

Every image is a pure function of its numpy seed.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
BPP = 3  # 8-bit RGB


def synthetic_image(seed: int, height: int, width: int) -> np.ndarray:
    """A photo-like uint8 [H,W,3] image: smooth shading, sharp shapes, sensor grain."""
    gen = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.arange(height) / height, np.arange(width) / width, indexing="ij")
    img = np.empty((height, width, 3))
    for c in range(3):
        base = gen.uniform(0.25, 0.75) + gen.uniform(-0.2, 0.2) * xx + gen.uniform(-0.2, 0.2) * yy
        for _ in range(3):
            fx, fy = gen.uniform(0.5, 6.0, size=2)
            base += gen.uniform(0.02, 0.12) * np.sin(
                2 * np.pi * (fx * xx + fy * yy) + gen.uniform(0, 2 * np.pi))
        img[:, :, c] = base
    for _ in range(4):
        cy, cx, r = gen.uniform(0.1, 0.9), gen.uniform(0.1, 0.9), gen.uniform(0.05, 0.25)
        inside = (yy - cy) ** 2 + (xx - cx) ** 2 < r * r
        img[inside] += gen.uniform(-0.25, 0.25, size=3)
    img += gen.normal(0.0, 1.5 / 255.0, size=img.shape)
    return np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def _filtered_rows(img: np.ndarray) -> np.ndarray:
    """All five PNG filters of every row: int16 [5, H, W*3], before the mod-256 wrap."""
    h, w, _ = img.shape
    x = img.reshape(h, w * BPP).astype(np.int16)
    a = np.zeros_like(x)
    a[:, BPP:] = x[:, :-BPP]
    b = np.zeros_like(x)
    b[1:] = x[:-1]
    c = np.zeros_like(x)
    c[1:, BPP:] = x[:-1, :-BPP]
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return np.stack([x, x - a, x - b, x - ((a + b) >> 1), x - paeth])


def mixed_filters(seed: int, height: int) -> np.ndarray:
    """Sub, Up, Average and Paeth (types 1..4) in equal shares, in a seeded row order."""
    return np.random.default_rng(seed).permutation(np.arange(height) % 4 + 1).astype(np.uint8)


def encode_png(img: np.ndarray, filters: np.ndarray) -> bytes:
    """PNG bytes of uint8 [H,W,3] with row y written under filter type filters[y]."""
    h, w, _ = img.shape
    rows = (_filtered_rows(img)[filters, np.arange(h)] & 0xFF).astype(np.uint8)
    body = np.concatenate([filters[:, None].astype(np.uint8), rows], axis=1).tobytes()

    def chunk(ctype: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + ctype + data
                + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (PNG_SIGNATURE + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(body, 6)) + chunk(b"IEND", b""))


def write_png(img: np.ndarray, path, filter_seed: int | None) -> None:
    """Write img to path: mixed filters drawn from filter_seed, or all-None rows if None."""
    h = img.shape[0]
    filters = np.zeros(h, dtype=np.uint8) if filter_seed is None else mixed_filters(filter_seed, h)
    with open(path, "wb") as f:
        f.write(encode_png(img, filters))
