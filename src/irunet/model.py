"""The multiscale inception-residual encoder-decoder denoiser.

Topology: a 3x3 conv+ReLU head, four encoder stages (inception reduction
block halving the resolution, then an inception block), and four decoder
stages (2x2 stride-2 transposed conv, concatenation with the matching-
resolution encoder feature, 1x1 merge conv, inception block), closed by a
3x3 conv + sigmoid tail. Skips tap the head output and the first three
stages' inception outputs; the deepest inception output is the latent fed
to the decoder. _network states this once, as a table of blocks that
layer_specs reads the convs from and _run executes.

Both block types carry a residual shortcut: identity for the inception
block, a 1x1 stride-2 projection for the reduction block, so zeroing the
main path leaves the shortcut map.

Under no_grad, forward runs an image larger than one band through x ->
enc1.red and then x and dec3.inc -> tail in row bands (_in_bands), so none
of their maps is live for the whole image at once; the second recomputes
each band's rows of the head skip instead of keeping the skip alive across
the encoder: compute traded for memory.
"""

from __future__ import annotations

import ctypes
import functools
import operator
from dataclasses import dataclass, fields

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


# Pixels per image in one band under no_grad: 64 rows at width 256. With only
# x, dec3.inc -> tail banded, a no_grad 1x3x256x256 forward on a 2-core Xeon
# peaked at 59.5 MB RSS in one band, 53.8 MB in 128-row bands and 48.0 MB in
# 64-row bands; 32-row bands saved 1.5 MB more but ran slower than one band.
_BAND_PIXELS = 16 * 1024

# Every band starts on a multiple of 4 rows and reads a multiple of 4 rows
# past its own, so it starts on an even row, as the stride-2 layers need, and
# holds an even number of half-resolution rows. Then each image's
# enc1.red.reduce GEMM (K = 32) spans a multiple of 16 columns in every band,
# as it does over the whole image: OpenBLAS's SkylakeX sgemm rounds a last
# partial block of 1 to 8 columns differently at K >= 32, which changed the
# last bits of a 336x80 output when its last band held 9 half-resolution rows.
# This makes bands bit-identical to one pass under the SkylakeX kernel only:
# under Haswell-class kernels (AVX2 CPUs, Zen included) a column's bits also
# depend on its position in the call, and bands differ by 1 ulp (ROADMAP item 3).
_BAND_STEP = 4


@dataclass(frozen=True)
class ModelConfig:
    """Immutable architecture hyperparameters; every field is an integer for serialization."""

    input_channels: int = 3
    base_width: int = 16
    stage_widths: tuple[int, int, int, int] = (24, 32, 48, 64)
    kernel: int = 3
    dilation_rate: int = 2
    branch_width: int = 8

    def __post_init__(self):
        # plain ints, whatever integer type built the config; 3.0 is rejected
        for f in fields(self):
            value = getattr(self, f.name)
            object.__setattr__(self, f.name, tuple(map(operator.index, value))
                               if f.name == "stage_widths" else operator.index(value))
        if len(self.stage_widths) != 4:
            raise ValueError(f"stage_widths must have 4 entries, got {self.stage_widths}")
        if any(v < 1 for v in self.stage_widths):
            raise ValueError("stage widths must be positive")
        if list(self.stage_widths) != sorted(self.stage_widths):
            raise ValueError(f"stage_widths must be ascending, got {self.stage_widths}")
        for name in ("input_channels", "base_width", "kernel", "dilation_rate", "branch_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


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


_Block = tuple[str, str, tuple[str, ...], tuple[tuple[str, ConvSpec], ...]]


@functools.lru_cache(maxsize=32)
def _network(config: ModelConfig) -> tuple[_Block, ...]:
    """The network's blocks (name, kind, inputs, convs) in forward order, i.e. checkpoint order.

    inputs names earlier blocks, or "x" for the image; convs lists the block's
    layers in call order. _block runs each kind of block. The table is built
    once per set of config values.
    """
    k, d, bw = config.kernel, config.dilation_rate, config.branch_width

    def inception(name: str, src: str, c: int) -> _Block:
        return (name, "inception", (src,), (
            (f"{name}.b1", ConvSpec(c, bw, kernel=k, relu=True)),
            (f"{name}.b2", ConvSpec(c, bw, kernel=k, relu=True)),
            (f"{name}.b3", ConvSpec(c, bw, kernel=k, dilation=d, relu=True)),
            (f"{name}.reduce", ConvSpec(3 * bw, c, kernel=1, relu=True))))

    src, c_in = "head", config.base_width
    net = [(src, "head", ("x",), ((src, ConvSpec(config.input_channels, c_in, kernel=k,
                                                 relu=True)),))]
    skips = []
    for i, c in enumerate(config.stage_widths, start=1):
        red = f"enc{i}.red"
        net.append((red, "reduction", (src,), (
            (f"{red}.b1", ConvSpec(c_in, bw, kernel=k, stride=2, relu=True)),
            (f"{red}.b2", ConvSpec(c_in, bw, kernel=k, stride=2, relu=True)),
            (f"{red}.reduce", ConvSpec(2 * bw + c_in, c, kernel=1, relu=True)),
            (f"{red}.shortcut", ConvSpec(c_in, c, kernel=1, stride=2)))))
        net.append(inception(f"enc{i}.inc", red, c))
        skips.append((src, c_in))  # head and the first three inception outputs
        src, c_in = f"enc{i}.inc", c

    for i, (skip, c) in enumerate(reversed(skips), start=1):
        net.append((f"dec{i}", "decoder", (src, skip), (
            (f"dec{i}.up", ConvSpec(c_in, c, kernel=2, stride=2, transposed=True)),
            (f"dec{i}.merge", ConvSpec(2 * c, c, kernel=1, relu=True)))))
        net.append(inception(f"dec{i}.inc", f"dec{i}", c))
        src, c_in = f"dec{i}.inc", c
    net.append(("tail", "tail", (src,), (("tail", ConvSpec(c_in, config.input_channels,
                                                           kernel=k)),)))
    return tuple(net)


def layer_specs(config: ModelConfig) -> list[tuple[str, ConvSpec]]:
    """Every convolution of the network, in forward order, with its spec."""
    return [conv for *_, convs in _network(config) for conv in convs]


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


def _path(net: tuple[_Block, ...], out: str, given) -> list[_Block]:
    """The blocks that compute block `out` from the maps named in `given`, in forward order."""
    need, path = {out}, []
    for block in reversed(net):
        if block[0] in need and block[0] not in given:
            path.append(block)
            need.update(block[2])
    return path[::-1]


def _halo(net: tuple[_Block, ...], out: str, given) -> int:
    """Rows a band of _run(net, out, maps) reads past its own on each side, for maps named `given`.

    The longest chain of block reaches from a given map to `out`, in image
    rows, rounded up to _BAND_STEP. Every conv with a window reads its block's
    first input, so a block reaches as far as its widest conv.
    """
    def reach_of(spec: ConvSpec) -> int:  # input rows past those under its output rows
        k, s = (spec.kernel[0] - 1) * spec.dilation[0] + 1, spec.stride[0]
        return -(-max(k - s, 0) // (2 * s)) if spec.transposed else -(-(k - 1) // 2)

    scale = {"x": 1}  # image rows per row of each map, set by its block's first conv
    for name, _, inputs, ((_, spec), *_) in net:
        s = spec.stride[0]
        scale[name] = scale[inputs[0]] // s if spec.transposed else scale[inputs[0]] * s
    reach = dict.fromkeys(given, 0)
    for name, _, inputs, convs in _path(net, out, given):
        reach[name] = (max(reach[src] for src in inputs)
                       + scale[inputs[0]] * max(reach_of(spec) for _, spec in convs))
    return -(-reach[out] // _BAND_STEP) * _BAND_STEP


def _block(kind: str, name: str, ins: list[Tensor], params: ParamStore) -> Tensor:
    """Block `name` on its inputs, which it pops so each is freed after its last use."""
    if kind == "inception":
        return inception_block(ins.pop(), params, name)
    if kind == "reduction":
        return inception_reduction_block(ins.pop(), params, name)
    if kind == "decoder":  # upsample the first input, concat the second, 1x1 merge
        cur = _apply(ins.pop(0), params[f"{name}.up"])
        cur = concat_channels([cur, ins.pop()])
        return _apply(cur, params[f"{name}.merge"])
    cur = _apply(ins.pop(), params[name])
    if kind == "head":
        return cur
    z = cur.sigmoid()
    layers.release(cur)  # the sigmoid's backward reads only its own output
    return z


def _run(net: tuple[_Block, ...], out: str, maps: dict[str, Tensor], params: ParamStore) -> Tensor:
    """Block `out`'s output, from the blocks on the path to it from the named tensors `maps`.

    Each block adds its output to maps; a map leaves maps at its last reader.
    """
    path = _path(net, out, maps)
    last = {src: name for name, _, inputs, _ in path for src in inputs}
    for name, kind, inputs, _ in path:
        maps[name] = _block(kind, name, [maps.pop(src) if last[src] == name else maps[src]
                                         for src in inputs], params)
    return maps.pop(out)


def _in_bands(net: tuple[_Block, ...], out: str, maps: dict[str, Tensor],
              params: ParamStore) -> Tensor:
    """_run(net, out, maps, params) in row bands of the image maps["x"], _BAND_PIXELS pixels each.

    Each other map covers the image at a fraction of its rows that divides every
    band edge. A band owns `rows` image rows, at least 4 halos, and reads _halo
    more on each side where the image has them (so image edges keep their zero
    padding), as views of every map; it writes only its own rows of the output.
    """
    n, _, h, w = maps["x"].shape
    halo = _halo(net, out, maps)
    rows = max(_BAND_PIXELS // w, 4 * halo, _BAND_STEP) // _BAND_STEP * _BAND_STEP
    y = None
    for r0 in range(0, h, rows):
        e0, e1 = max(r0 - halo, 0), min(r0 + rows + halo, h)
        # views of the band's rows of each map: Tensor() would copy them contiguous
        z = _run(net, out, {src: Tensor._make(
            m.data[:, :, e0 * m.shape[2] // h:e1 * m.shape[2] // h], (), None)
            for src, m in maps.items()}, params)
        s = (e1 - e0) // z.shape[2]
        if y is None:
            y = np.empty((n, z.shape[1], h // s, z.shape[3]), dtype=z.dtype)
        y[:, :, r0 // s:(r0 + rows) // s] = z.data[:, :, (r0 - e0) // s:(r0 - e0 + rows) // s]
    return Tensor._make(y, (), None)


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

    net = _network(config)
    h, w = x.shape[2:]
    # One pass over the whole image keeps head's output as dec4's skip: a graph
    # needs it, and an image that fits one band would only compute it twice.
    if records_graph([x, *params.named_tensors().values()]) or h * w <= _BAND_PIXELS:
        return _run(net, "tail", {"x": x}, params)
    dec3 = _run(net, "dec3.inc", {"enc1.red": _in_bands(net, "enc1.red", {"x": x}, params)},
                params)
    return _in_bands(net, "tail", {"x": x, "dec3.inc": dec3}, params)
