"""The multiscale inception-residual encoder-decoder denoiser.

Topology: a 3x3 conv+ReLU head, four encoder stages (inception reduction
block halving the resolution, then an inception block), and four decoder
stages (2x2 stride-2 transposed conv, concatenation with the matching-
resolution encoder feature, 1x1 merge conv, inception block), closed by a
3x3 conv + sigmoid tail. Skips tap the head output and the first three
stages' inception outputs; the deepest inception output is the latent fed
to the decoder.

Both block types carry a residual shortcut: identity for the inception
block, a 1x1 stride-2 projection for the reduction block, so zeroing the
main path leaves the shortcut map.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import layers, rng
from .layers import ConvSpec, LayerParams, avg_pool2d, conv2d, init_params, transposed_conv2d
from .tensor import Tensor, concat_channels

DOWNSCALE_FACTOR = 16  # four stride-2 halvings


@dataclass
class ModelConfig:
    """Architecture hyperparameters; every field is an integer for serialization."""

    input_channels: int = 3
    base_width: int = 16
    stage_widths: tuple[int, int, int, int] = (24, 32, 48, 64)
    kernel: int = 3
    dilation_rate: int = 2
    branch_width: int = 8
    # corruption range echoed for provenance; not used by the forward pass
    sigma_low: int = 0
    sigma_high: int = 50

    def __post_init__(self):
        self.stage_widths = tuple(int(v) for v in self.stage_widths)
        self.validate()

    def validate(self) -> None:
        if len(self.stage_widths) != 4:
            raise ValueError(f"stage_widths must have 4 entries, got {self.stage_widths}")
        if any(v < 1 for v in self.stage_widths):
            raise ValueError("stage widths must be positive")
        if list(self.stage_widths) != sorted(self.stage_widths):
            raise ValueError(f"stage_widths must be ascending, got {self.stage_widths}")
        for name in ("input_channels", "base_width", "kernel", "dilation_rate", "branch_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not 0 <= self.sigma_low <= self.sigma_high:
            raise ValueError("sigma range must satisfy 0 <= low <= high")


class ParamStore:
    """Ordered map of layer name to its trainable parameters."""

    def __init__(self):
        self._layers: dict[str, LayerParams] = {}

    def add(self, lp: LayerParams) -> None:
        if lp.name in self._layers:
            raise ValueError(f"duplicate layer name {lp.name!r}")
        self._layers[lp.name] = lp

    def __getitem__(self, name: str) -> LayerParams:
        return self._layers[name]

    def __contains__(self, name: str) -> bool:
        return name in self._layers

    def __len__(self) -> int:
        return len(self._layers)

    def layers(self) -> Iterator[LayerParams]:
        return iter(self._layers.values())

    def named_tensors(self) -> dict[str, Tensor]:
        """Flat view: '<layer>.weight' / '<layer>.bias' to tensor, in layer order."""
        out: dict[str, Tensor] = {}
        for lp in self._layers.values():
            out.update(lp.tensors())
        return out

    def count(self) -> int:
        return sum(t.size for t in self.named_tensors().values())

    def zero_grad(self) -> None:
        for t in self.named_tensors().values():
            t.zero_grad()


def layer_specs(config: ModelConfig) -> list[tuple[str, ConvSpec]]:
    """Every convolution of the network, in forward order, with its spec."""
    k = config.kernel
    d = config.dilation_rate
    bw = config.branch_width
    specs: list[tuple[str, ConvSpec]] = []

    def inception(prefix: str, channels: int) -> None:
        specs.append((f"{prefix}.b1", ConvSpec(channels, bw, kernel=k, relu=True)))
        specs.append((f"{prefix}.b2", ConvSpec(channels, bw, kernel=k, relu=True)))
        specs.append((f"{prefix}.b3", ConvSpec(channels, bw, kernel=k, dilation=d, relu=True)))
        specs.append((f"{prefix}.reduce", ConvSpec(3 * bw, channels, kernel=1, relu=True)))

    specs.append(("head", ConvSpec(config.input_channels, config.base_width, kernel=k,
                                   relu=True)))
    c_in = config.base_width
    for i, c_out in enumerate(config.stage_widths, start=1):
        specs.append((f"enc{i}.red.b1", ConvSpec(c_in, bw, kernel=k, stride=2, relu=True)))
        specs.append((f"enc{i}.red.b2", ConvSpec(c_in, bw, kernel=k, stride=2, relu=True)))
        specs.append((f"enc{i}.red.reduce",
                      ConvSpec(2 * bw + c_in, c_out, kernel=1, relu=True)))
        specs.append((f"enc{i}.red.shortcut", ConvSpec(c_in, c_out, kernel=1, stride=2)))
        inception(f"enc{i}.inc", c_out)
        c_in = c_out

    ladder = list(config.stage_widths[:-1][::-1]) + [config.base_width]
    c_in = config.stage_widths[-1]
    for i, c_out in enumerate(ladder, start=1):
        specs.append((f"dec{i}.up",
                      ConvSpec(c_in, c_out, kernel=2, stride=2, transposed=True)))
        specs.append((f"dec{i}.merge", ConvSpec(2 * c_out, c_out, kernel=1, relu=True)))
        inception(f"dec{i}.inc", c_out)
        c_in = c_out

    specs.append(("tail", ConvSpec(config.base_width, config.input_channels, kernel=k)))
    return specs


def param_count(config: ModelConfig) -> int:
    """Total trainable scalars, a pure function of the config."""
    return sum(spec.param_count() for _, spec in layer_specs(config))


def build_params(config: ModelConfig, seed: int, dtype=np.float32) -> ParamStore:
    """Initialize every layer; per-layer streams are derived from (seed, name)."""
    store = ParamStore()
    for name, spec in layer_specs(config):
        store.add(init_params(spec, rng.hash64(seed, name), name=name, dtype=dtype))
    return store


def _apply(x: Tensor, lp: LayerParams) -> Tensor:
    if lp.spec.transposed:
        return transposed_conv2d(x, lp.spec, lp)
    return conv2d(x, lp.spec, lp)


def inception_block(x: Tensor, params: ParamStore, prefix: str) -> Tensor:
    """Three parallel 3x3 branches (one dilated), concat, 1x1 reduce, residual add."""
    b1 = _apply(x, params[f"{prefix}.b1"])
    b2 = _apply(x, params[f"{prefix}.b2"])
    b3 = _apply(x, params[f"{prefix}.b3"])
    layers.release_maps()  # the last sibling: free x's shared map before the concat
    merged = concat_channels([b1, b2, b3])
    main = _apply(merged, params[f"{prefix}.reduce"])
    return main + x


def inception_reduction_block(x: Tensor, params: ParamStore, prefix: str) -> Tensor:
    """Two strided 3x3 branches plus 2x2 average pooling, concat, 1x1 reduce.

    The shortcut is a 1x1 stride-2 projection so the residual add matches
    the halved resolution and the new channel count.
    """
    if x.shape[2] % 2 or x.shape[3] % 2:
        raise ValueError(f"reduction block needs even spatial extents, got {x.shape}")
    b1 = _apply(x, params[f"{prefix}.b1"])
    b2 = _apply(x, params[f"{prefix}.b2"])
    layers.release_maps()  # the last sibling: free x's shared maps before pooling
    pooled = avg_pool2d(x)
    merged = concat_channels([b1, b2, pooled])
    main = _apply(merged, params[f"{prefix}.reduce"])
    shortcut = _apply(x, params[f"{prefix}.shortcut"])
    return main + shortcut


@functools.cache
def _keep_freed_heap() -> None:
    """Keep the memory a pass frees for the next pass, instead of returning it.

    Every forward pass, training step or not, frees its activations and then
    allocates the same sizes again. glibc by default hands a freed heap top
    back to the OS, so each pass page-faults them in afresh (≈3800 faults
    per 1x3x256x256 forward). mallopt turns that off (trimming only past
    1 GiB free) and keeps arrays up to 32 MiB on the heap, the cap glibc's
    own adaptive threshold would reach. The setting is process-wide, made
    once at the first forward. Without mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def forward(x: Tensor, config: ModelConfig, params: ParamStore,
            return_latent: bool = False):
    """Denoise a batch: [N,3,H,W] in [0,1] -> [N,3,H,W] in (0,1).

    H and W must be divisible by 16. With return_latent the lowest-resolution
    representation (H/16 x W/16) is returned alongside the reconstruction.
    """
    _keep_freed_heap()
    if x.ndim != 4:
        raise ValueError(f"expected [N,C,H,W] input, got shape {x.shape}")
    if x.shape[1] != config.input_channels:
        raise ValueError(
            f"channel mismatch: input has {x.shape[1]}, model expects {config.input_channels}")
    if x.shape[2] % DOWNSCALE_FACTOR or x.shape[3] % DOWNSCALE_FACTOR:
        raise ValueError(
            f"spatial extents {x.shape[2]}x{x.shape[3]} must be divisible by {DOWNSCALE_FACTOR}")

    with layers.sharing_maps():  # sibling convs build their input's maps once
        cur = _apply(x, params["head"])
        skips = [cur]
        for i in range(1, 5):
            cur = inception_reduction_block(cur, params, f"enc{i}.red")
            cur = inception_block(cur, params, f"enc{i}.inc")
            if i < 4:
                skips.append(cur)
        latent = cur

        for i in range(1, 5):
            cur = _apply(cur, params[f"dec{i}.up"])
            cur = concat_channels([cur, skips.pop()])
            cur = _apply(cur, params[f"dec{i}.merge"])
            cur = inception_block(cur, params, f"dec{i}.inc")

        z = _apply(cur, params["tail"]).sigmoid()
    if return_latent:
        return z, latent
    return z
