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

Under no_grad, two stages run over row bands of the image, about
_BAND_PIXELS pixels of each image per band, so their maps are never live for
the whole image at once:
- head -> enc1.red, over rows of the input. Each band writes its rows of
  the half-resolution enc1.red output into one array, so no whole-image head
  output exists.
- the full-resolution stage: head, dec4.up, the concat of the two, dec4.merge,
  dec4.inc, tail and the sigmoid. Each band recomputes its rows of the head
  skip (64 B/px) from the input rows around them, instead of keeping the
  whole skip alive across the encoder: compute traded for memory.
Each band runs the same layer calls as one pass over the whole image, on its
own rows plus a halo on each side, read as views of the stage's inputs, and
writes only its own rows into the stage's output. The halo covers the reach
of the stage's convs (head's and the strided convs' at head -> enc1.red;
head's, dec4.inc's dilated branch's and tail's at full resolution), rounded
up to _BAND_STEP: 4 rows for both at the default kernel 3 and dilation 2. A
band at the top or bottom of the image has no halo on that side, so image
edges keep their zero padding. For the default float32 model the output is
bit-identical to one pass over the whole image on every shape tried (see
_BAND_STEP and the README's BLAS note). An observer installed with
tensor.observe_ops sees head once per band of each stage, and the enc1.red
layers once per band of the first.

An image that fits in one band, and any forward that records a graph, runs
the plain layer sequence: head once, its output kept as dec4's skip.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import layers, rng
from .layers import ConvSpec, LayerParams, avg_pool2d, conv2d, init_params, transposed_conv2d
from .tensor import Tensor, concat_channels, records_graph

DOWNSCALE_FACTOR = 16  # four stride-2 halvings


def check_image_size(h: int, w: int, source) -> None:
    """Reject an h x w image from `source` (a path, or a name) that forward() cannot run."""
    if h % DOWNSCALE_FACTOR or w % DOWNSCALE_FACTOR:
        raise ValueError(f"{source}: dimensions {w}x{h} not divisible by {DOWNSCALE_FACTOR}; "
                         f"pad the image to a multiple of {DOWNSCALE_FACTOR} first")


# Pixels per image in one band of each banded stage under no_grad: 64 rows at
# width 256. When only the full-resolution stage ran in bands, a no_grad
# 1x3x256x256 forward on a 2-core Xeon peaked at 59.5 MB RSS in one band,
# 53.8 MB in 128-row bands and 48.0 MB in 64-row bands; 32-row bands saved
# 1.5 MB more but ran slower than one band.
_BAND_PIXELS = 16 * 1024

# Every band starts on a multiple of 4 rows and reads a multiple of 4 rows
# past its own, so it starts on an even row, as the stride-2 layers need, and
# holds an even number of half-resolution rows. Then each image's
# enc1.red.reduce GEMM (K = 32) spans a multiple of 16 columns in every band,
# as it does over the whole image: OpenBLAS's Haswell sgemm rounds a last
# partial block of 1 to 8 columns differently at K >= 32, which changed the
# last bits of a 336x80 output when its last band held 9 half-resolution rows.
_BAND_STEP = 4


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

    def named_tensors(self) -> dict[str, Tensor]:
        """Flat view: '<layer>.weight' / '<layer>.bias' to tensor, in layer order."""
        out: dict[str, Tensor] = {}
        for lp in self._layers.values():
            out.update(lp.tensors())
        return out

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


def _branches(x: Tensor, params: ParamStore, prefix: str, names: tuple[str, ...]) -> list[Tensor]:
    """A block's sibling convs on x; they build x's maps once, and leaving the scope frees them."""
    with layers.sharing_maps():
        return [_apply(x, params[f"{prefix}.{name}"]) for name in names]


def inception_block(x: Tensor, params: ParamStore, prefix: str) -> Tensor:
    """Three parallel 3x3 branches (one dilated), concat, 1x1 reduce, residual add.

    The branches and their concat are temporaries, so under no_grad each is
    freed as soon as the next layer has read it. In a recorded graph the add
    reads neither addend in backward, so the 1x1 reduce output keeps only its
    relu mask (layers.release); x stays, since the branches rebuild its maps.
    """
    main = _apply(concat_channels(_branches(x, params, prefix, ("b1", "b2", "b3"))),
                  params[f"{prefix}.reduce"])
    out = main + x
    layers.release(main)
    return out


def inception_reduction_block(x: Tensor, params: ParamStore, prefix: str) -> Tensor:
    """Two strided 3x3 branches plus 2x2 average pooling, concat, 1x1 reduce.

    The shortcut is a 1x1 stride-2 projection so the residual add matches
    the halved resolution and the new channel count. As in inception_block,
    the concat's parts are temporaries, and a recorded graph releases both
    addends after the add.
    """
    if x.shape[2] % 2 or x.shape[3] % 2:
        raise ValueError(f"reduction block needs even spatial extents, got {x.shape}")
    main = _apply(concat_channels(_branches(x, params, prefix, ("b1", "b2")) + [avg_pool2d(x)]),
                  params[f"{prefix}.reduce"])
    shortcut = _apply(x, params[f"{prefix}.shortcut"])
    out = main + shortcut
    layers.release(main)
    layers.release(shortcut)
    return out


def _decoder_stage(maps: list[Tensor], params: ParamStore, prefix: str) -> Tensor:
    """Upsample the map on top of `maps`, concat the skip under it, 1x1 merge, inception block.

    Pops both, so each is freed after its last use unless something else holds it.
    """
    cur = _apply(maps.pop(), params[f"{prefix}.up"])
    cur = concat_channels([cur, maps.pop()])
    cur = _apply(cur, params[f"{prefix}.merge"])
    return inception_block(cur, params, f"{prefix}.inc")


def _halos(config: ModelConfig) -> tuple[int, int]:
    """Rows a band reads past its own on each side, per banded stage (see the module docstring).

    A "same" conv reads ceil((k - 1) * dilation / 2) rows past an output row.
    head -> enc1.red adds head's reach to that of the strided convs; the
    full-resolution stage adds head's (each band recomputes the skip) to that
    of dec4.inc's dilated branch and tail. Each is rounded up to _BAND_STEP.
    """
    k, d = config.kernel, config.dilation_rate
    reach = -(-(k - 1) // 2)
    sums = (2 * reach, 2 * reach + -(-(k - 1) * d // 2))
    return tuple(-(-r // _BAND_STEP) * _BAND_STEP for r in sums)


def _in_bands(stage: Callable[[list[Tensor]], Tensor], maps: list[Tensor],
              halo: int, whole: bool) -> Tensor:
    """stage(maps) in row bands of the image, or in one call if `whole` or it fits one band.

    maps[0] covers the image at full resolution, each other map at a fraction
    of the image's rows that divides every band edge. A band owns `rows`
    image rows and reads `halo` more on each side, where the image has them,
    as views of every map; it writes only its own rows of the output, whose
    scale it reads off the stage's output. Rows and halo are multiples of
    _BAND_STEP, and a band owns at least 4 halos, so the halos at most add
    half of its rows. The stage may consume the list it is given, so one call
    frees each map after its last use unless something else holds it.
    """
    n, _, h, w = maps[0].shape
    rows = max(_BAND_PIXELS // w, 4 * halo, _BAND_STEP) // _BAND_STEP * _BAND_STEP
    if whole or rows >= h:
        return stage(maps)
    out = None
    for r0 in range(0, h, rows):
        e0, e1 = max(r0 - halo, 0), min(r0 + rows + halo, h)
        # views of the band's rows of each map: Tensor() would copy them contiguous
        z = stage([Tensor._make(m.data[:, :, e0 * m.shape[2] // h:e1 * m.shape[2] // h], (), None)
                   for m in maps])
        s = (e1 - e0) // z.shape[2]
        if out is None:
            out = np.empty((n, z.shape[1], h // s, z.shape[3]), dtype=z.dtype)
        out[:, :, r0 // s:(r0 + rows) // s] = z.data[:, :, (r0 - e0) // s:(r0 - e0 + rows) // s]
    return Tensor._make(out, (), None)


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


def forward(x: Tensor, config: ModelConfig, params: ParamStore) -> Tensor:
    """Denoise a batch: [N,3,H,W] in [0,1] -> [N,3,H,W] in (0,1).

    H and W must be divisible by 16. The lowest-resolution representation
    (H/16 x W/16) is the input of dec1.up, which tensor.observe_ops can see.
    """
    _keep_freed_heap()
    if x.ndim != 4:
        raise ValueError(f"expected [N,C,H,W] input, got shape {x.shape}")
    if x.shape[1] != config.input_channels:
        raise ValueError(
            f"channel mismatch: input has {x.shape[1]}, model expects {config.input_channels}")
    check_image_size(x.shape[2], x.shape[3], "input")

    h, w = x.shape[2:]
    # One pass over the whole image keeps head's output as dec4's skip: a graph
    # needs it, and an image that fits one band would only compute it twice.
    whole = records_graph([x, *params.named_tensors().values()]) or h * w <= _BAND_PIXELS
    entry_halo, full_halo = _halos(config)

    def head(t: Tensor) -> Tensor:
        return t if whole else _apply(t, params["head"])

    def encoder_entry(band: list[Tensor]) -> Tensor:
        return inception_reduction_block(head(band.pop()), params, "enc1.red")

    def full_resolution(band: list[Tensor]) -> Tensor:  # band = [x or skip, dec3 output]
        band[0] = head(band[0])
        tail = _apply(_decoder_stage(band, params, "dec4"), params["tail"])
        z = tail.sigmoid()
        layers.release(tail)  # the sigmoid's backward reads only its own output
        return z

    # the skips, or x for the head skip, and on top the map the decoder stages run on
    maps = [_apply(x, params["head"]) if whole else x]
    cur = inception_block(_in_bands(encoder_entry, maps[:1], entry_halo, whole), params,
                          "enc1.inc")
    maps.append(cur)
    for i in range(2, 5):
        cur = inception_reduction_block(cur, params, f"enc{i}.red")
        cur = inception_block(cur, params, f"enc{i}.inc")
        maps.append(cur)

    for i in range(1, 4):
        maps.append(_decoder_stage(maps, params, f"dec{i}"))
    return _in_bands(full_resolution, maps, full_halo, whole)
