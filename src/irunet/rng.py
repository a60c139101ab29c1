"""Deterministic random streams shared by initialization, corruption and shuffling.

Everything here is counter-based: a draw is a pure function of (seed, index),
so datasets and parameter initializations are reproducible across runs and
platforms without carrying generator state around.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# 2^-53, so 53 random mantissa bits map to [0, 1)
_INV_2_53 = 1.0 / 9007199254740992.0


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: avalanche a 64-bit word."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def raw_uint64(seed: int, start: int, count: int) -> np.ndarray:
    """`count` words of the SplitMix64 stream for `seed`, offsets start..start+count-1."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):  # uint64 arithmetic wraps mod 2^64
        return _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _GOLDEN)


def uniform(seed: int, count: int) -> np.ndarray:
    """Uniform float64 draws in [0, 1)."""
    return (raw_uint64(seed, 0, count) >> np.uint64(11)).astype(np.float64) * _INV_2_53


def gaussian(seed: int, count: int) -> np.ndarray:
    """Standard normal draws via the Box-Muller transform.

    Each pair of stream words yields one (cos, sin) pair of variates; the
    output interleaves them and truncates to `count`. The radial uniform is
    shifted into (0, 1] so log() never sees zero.
    """
    pairs = (count + 1) // 2
    words = raw_uint64(seed, 0, 2 * pairs)
    u1 = ((words[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
    u2 = (words[1::2] >> np.uint64(11)).astype(np.float64) * _INV_2_53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:count]


def hash64(*parts: int | str | bytes) -> int:
    """Stable 64-bit hash of a mixed tuple, for deriving per-item seeds.

    FNV-1a over a type-tagged serialization, then one SplitMix64 finalizer
    round for avalanche. Not cryptographic; just deterministic.
    """
    h = 0xCBF29CE484222325
    fnv = 0x100000001B3
    mask = 0xFFFFFFFFFFFFFFFF

    def absorb(data: bytes) -> None:
        nonlocal h
        for b in data:
            h = ((h ^ b) * fnv) & mask

    for part in parts:
        if isinstance(part, int):
            absorb(b"i" + (part & mask).to_bytes(8, "little"))
        elif isinstance(part, str):
            absorb(b"s" + part.encode("utf-8") + b"\x00")
        elif isinstance(part, bytes):
            absorb(b"b" + part + b"\x00")
        else:
            raise TypeError(f"hash64 cannot absorb {type(part).__name__}")
    z = np.uint64(h)
    with np.errstate(over="ignore"):
        return int(_mix64(z + _GOLDEN))


def permutation(seed: int, n: int) -> np.ndarray:
    """Deterministic Fisher-Yates permutation of range(n).

    Index draws use modulo reduction; the bias is irrelevant here because the
    permutation only needs to be fixed, not perfectly unbiased.
    """
    order = np.arange(n, dtype=np.int64)
    if n < 2:
        return order
    draws = raw_uint64(seed, 0, n - 1)
    for i in range(n - 1, 0, -1):
        j = int(draws[n - 1 - i] % np.uint64(i + 1))
        order[i], order[j] = order[j], order[i]
    return order
