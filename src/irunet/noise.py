"""Additive white Gaussian corruption of 8-bit RGB images.

Noise is drawn in the 0..255 intensity domain, added to the clean pixels,
clamped, then re-quantized to 8 bits (round half away from zero). The
normalization to [0,1] happens later, at tensor ingestion, so corrupted
datasets on disk stay in the native 8-bit scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng

SIGMA_MAX = 50.0


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption parameters: zero-mean Gaussian with a fixed seed."""

    sigma: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.sigma <= SIGMA_MAX:
            raise ValueError(f"sigma must be in [0, {SIGMA_MAX:g}], got {self.sigma}")


def corrupt(clean: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """Corrupt an 8-bit RGB image [H,W,3]; deterministic given spec.seed."""
    if not isinstance(clean, np.ndarray) or clean.dtype != np.uint8:
        raise ValueError("corrupt expects an 8-bit (uint8) image")
    if clean.ndim != 3 or clean.shape[2] != 3:
        raise ValueError(f"corrupt expects [H,W,3] RGB, got shape {clean.shape}")
    noise = rng.gaussian(spec.seed, clean.size).reshape(clean.shape) * spec.sigma
    noisy = np.clip(clean.astype(np.float64) + noise, 0.0, 255.0)
    # values are non-negative after clamping, so half away from zero == floor(v + 0.5)
    return np.floor(noisy + 0.5).astype(np.uint8)
