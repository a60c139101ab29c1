import ctypes
import glob
import os

import numpy as np
import pytest

from irunet import rng
from irunet.imageio import quantize, save_image
from irunet.model import forward
from irunet.tensor import observe_ops


def blas_kernel() -> str:
    """The OpenBLAS kernel numpy's GEMMs run on (SkylakeX, Haswell, ...), or "unknown".

    Asked of the OpenBLAS numpy bundles in numpy.libs, which picks the kernel
    from the CPU at load time unless OPENBLAS_CORETYPE names one.
    """
    site = os.path.dirname(os.path.dirname(np.__file__))
    try:
        lib = ctypes.CDLL(glob.glob(os.path.join(site, "numpy.libs", "*openblas*"))[0])
        corename = lib.scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def synth_image(seed: int, size: int = 32) -> np.ndarray:
    """Smooth random field: a few low-frequency sinusoids per channel around 0.5."""
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    img = np.zeros((size, size, 3))
    u = rng.uniform(seed, 3 * 4 * 4)
    i = 0
    for c in range(3):
        f = np.full((size, size), 0.5, dtype=np.float64)
        for k in range(4):
            fx = (u[i] * 2.0 + 0.3) / size
            fy = (u[i + 1] * 2.0 + 0.3) / size
            phase = u[i + 2] * 2.0 * np.pi
            amp = 0.28 * u[i + 3] / (k + 1)
            f += amp * np.sin(2.0 * np.pi * (fx * xx + fy * yy) + phase)
            i += 4
        img[:, :, c] = f
    return quantize(np.clip(img, 0.0, 1.0))


def write_corpus(dirpath, count: int, size: int = 32, tag: str = "img",
                 ext: str = ".png") -> list:
    """Write `count` synthetic clean images into dirpath; returns their names."""
    dirpath.mkdir(parents=True, exist_ok=True)
    names = []
    for i in range(count):
        name = f"{tag}{i:03d}{ext}"
        save_image(synth_image(rng.hash64(tag, i), size=size), str(dirpath / name))
        names.append(name)
    return names


def seeded_mutations(good: bytes, tag: str, count: int = 200):
    """(i, bytes) for `count` seeded truncations, bit flips and byte insertions of good in turn."""
    for i in range(count):
        u = rng.uniform(rng.hash64(tag, i), 2)
        pos = int(u[0] * len(good))
        if i % 3 == 0:
            yield i, good[:pos]
        elif i % 3 == 1:
            buf = bytearray(good)
            buf[pos] ^= 1 << int(u[1] * 8)
            yield i, bytes(buf)
        else:
            yield i, good[:pos] + bytes([int(u[1] * 256)]) + good[pos:]


def received_grads(node) -> list:
    """Wrap node's backward closure; the returned list collects each gradient it is handed.

    backward() drops an op output's `.grad` once its backward has run, so a
    test reads the array the closure received instead.
    """
    received = []
    inner = node._backward

    def backward(g):
        received.append(g)
        inner(g)
    node._backward = backward
    return received


def forward_with_latent(x, config, params):
    """forward() and its H/16 latent, read through observe_ops as the input of dec1.up."""
    latents = []

    def observer(op, fn, args):
        if op == "transposed_conv2d" and args[2].name == "dec1.up":
            latents.append(args[0])
        return fn(*args)

    with observe_ops(observer):
        z = forward(x, config, params)
    assert len(latents) == 1
    return z, latents[0]


@pytest.fixture
def corpus8(tmp_path):
    """Eight 32x32 clean images in a temp directory."""
    clean_dir = tmp_path / "clean"
    names = write_corpus(clean_dir, 8, size=32)
    return clean_dir, names
