"""Trainable convolution layers: conv2d, transposed conv2d, average pooling.

Convolution is cross-correlation (no kernel flip). The three raw kernels
(forward, weight gradient, input gradient) share one window/pitch
formulation. The input is zero-padded once and split into its stride phase
maps, each laid out row-major at one row pitch; at stride 1 there is a
single phase map, the padded input itself. At that pitch, the input pixels
that kernel tap (i, j) feeds to all output pixels form one contiguous window
of a phase map, so each tap is one matmul over channels on a view, and no
tap is ever copied. The forward pass accumulates the output at the same
pitch and crops the pitch columns once at the end. The backward passes feed
the output gradient at that pitch, with zeros in the pitch columns, and
read from (weight gradient) or add into (input gradient) the same windows.
The taps sweep the map in cache-sized blocks.

Stride-1 "same" convs with padding up to 2 (3x3 at dilation 1 and 2) share
one map layout that depends only on their geometry (see _Plan). An
inception block runs its three branches, and a reduction block its two,
inside sharing_maps(): consecutive convs there that read one input tensor in
one layout build its maps once in forward and once in backward, and leaving
the block drops the forward copy. A conv outside a block shares nothing and
keeps no forward copy past its own call.

Taps stay separate matmuls, summed in tap order, instead of one im2col GEMM
over C*kh*kw. That keeps a dilated kernel bit-identical to the same kernel
inflated with zero taps (the exact dilation oracle in the tests), and builds
no buffer kh*kw times the size of the input. Two kinds of conv run as one
GEMM instead:
- Where no two taps share an input pixel (1x1 kernels, 2x2 stride-2
  kernels: a `disjoint` plan), tap t reads all of phase map t. The forward
  pass is then one GEMM of the stacked weights over the stacked maps, and
  the input gradient one of their transpose over the output rows, phase p's
  gradient in rows p*C onwards. Only the GEMM differs from a tap conv: the
  same pitched output and crop (a view, as wq == out_w), and the same
  per-phase crop into the input's gradient, which at 2x2 stride 2 is the
  pixel shuffle (Shi et al., 2016).
- A stride-1, dilation-1 conv with a kernel of at most 3x3 on at most 4
  input channels (the model's `head`, 3 -> 16) is too thin for per-tap
  matmuls with K = C. Its forward pass copies the tap windows of each block
  into one stack of kh*kw*C rows (the unfolding of Chellapilla et al., 2006,
  one block at a time) and runs one GEMM with K = kh*kw*C per block; its
  weight and input gradients stay per tap. The stack is never larger than
  one block. Its sums run in BLAS order, not tap order, so its forward pass
  matches the per-tap sums within rounding only. Dilated kernels never
  stack, so the dilation oracle holds, with one exception: a stacked 3x3
  matches the zero-inflation of a 2x2 kernel at dilation 2 only within
  rounding.

All three GEMM shapes read one weight layout, [O, kh*kw*C] (_stacked_weights):
tap t's [O, C] matrix is columns t*C to (t+1)*C, a view for a per-tap matmul,
and the weight gradient is summed in the same layout.

The transposed convolution is defined as the linear adjoint of the
same-spec convolution: its forward pass is the convolution's input
gradient, so output spatial extent = input * stride.

A spec with `relu=True` fuses the activation into conv2d: one graph node
returns max(conv + bias, 0), bit-identical to conv2d followed by
Tensor.relu, and its backward masks the output gradient by output > 0.
The pre-activation is not kept, and the mask comes from the output tensor's
data at backward time, reached through a weak reference: a concat may have
rebound that data to a view of its own output (tensor.concat_channels), and a
strong reference from the closure to its own node would make a cycle.
release() frees a recorded output's values once no backward but its own reads
them, and a relu-fused output then keeps only its mask, packed 8 per byte.
Plans are memoized per input size and spec, and one backward builds the
pitched output gradient once for both the input and weight gradients. The
backward passes keep Tensor.accumulate_grad's ownership rule: the relu mask
multiplies the output gradient in place, the gradients they allocate (input,
weight, bias) go to `.grad` as owned, and an input gradient is added in place,
crop by crop, into an input's `.grad` that a sibling conv or the pooling has
already set, so a tensor read by several layers keeps one gradient array.
A tap conv's input gradient is summed one image group (_blocks) at a time,
into one group-sized scratch whose crop goes into the gradient before the next
group, so it never holds a phase gradient of the whole batch. A disjoint plan's
one GEMM does: a reduction block's 1x1 stride-2 shortcut, for example, holds
the gradient of a quarter of its input's pixels at once. A recorded 8x3x64x64
step of the default model peaks at 26.4 MiB (tracemalloc), in the weight
gradient of a dec4.inc branch: the maps it rebuilds plus the pitched output
gradient.
"""

from __future__ import annotations

import operator
import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import rng
from .tensor import Tensor, _setting, observed


def _pair(v) -> tuple[int, int]:
    """An integer or a pair of integers, of any integer type, as two ints; 3.0 is no integer."""
    try:
        return (operator.index(v),) * 2
    except TypeError:
        a, b = v
        return (operator.index(a), operator.index(b))


@dataclass(frozen=True)
class ConvSpec:
    """Static description of one convolution layer; an immutable, hashable value."""

    in_channels: int
    out_channels: int
    kernel: tuple[int, int] = (3, 3)
    stride: tuple[int, int] = (1, 1)
    dilation: tuple[int, int] = (1, 1)
    padding: str = "same"
    transposed: bool = False
    relu: bool = False  # the layer's output is max(conv + bias, 0)

    def __post_init__(self):
        for name in ("in_channels", "out_channels"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        for name in ("kernel", "stride", "dilation"):
            object.__setattr__(self, name, _pair(getattr(self, name)))
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be positive")
        if min(self.kernel) < 1 or min(self.stride) < 1 or min(self.dilation) < 1:
            raise ValueError("kernel, stride and dilation must be >= 1")
        if self.padding not in ("same", "valid"):
            raise ValueError(f"unknown padding mode {self.padding!r}")
        if self.relu and self.transposed:
            raise ValueError("relu is fused into conv2d only, not into transposed_conv2d")
        if self.transposed and self.padding != "same":
            raise ValueError("a transposed conv is the adjoint of a same-padded conv: "
                             "padding must be 'same'")

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        kh, kw = self.kernel
        if self.transposed:
            return (self.in_channels, self.out_channels, kh, kw)
        return (self.out_channels, self.in_channels, kh, kw)

    @property
    def bias_shape(self) -> tuple[int]:
        return (self.out_channels,)

    def param_count(self) -> int:
        return int(np.prod(self.weight_shape)) + self.out_channels


@dataclass
class LayerParams:
    """Named trainable tensors of one layer."""

    name: str
    spec: ConvSpec
    weight: Tensor
    bias: Tensor

    def tensors(self) -> dict[str, Tensor]:
        return {f"{self.name}.weight": self.weight, f"{self.name}.bias": self.bias}


def glorot_bound(spec: ConvSpec) -> float:
    kh, kw = spec.kernel
    fan_in = spec.in_channels * kh * kw
    fan_out = spec.out_channels * kh * kw
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def init_params(spec: ConvSpec, rng_seed: int, name: str = "", dtype=np.float32) -> LayerParams:
    """Glorot-uniform weights, zero bias, fully determined by the seed."""
    bound = glorot_bound(spec)
    n = int(np.prod(spec.weight_shape))
    w = (rng.uniform(rng_seed, n) * 2.0 - 1.0) * bound
    weight = Tensor(w.reshape(spec.weight_shape).astype(dtype), requires_grad=True)
    bias = Tensor(np.zeros(spec.bias_shape, dtype=dtype), requires_grad=True)
    return LayerParams(name=name, spec=spec, weight=weight, bias=bias)


# --------------------------------------------------------------- geometry

def conv_output_size(in_size: int, kernel: int, stride: int, dilation: int, padding: str) -> int:
    eff = (kernel - 1) * dilation + 1
    if padding == "same":
        return -(-in_size // stride)
    out = (in_size - eff) // stride + 1
    if out < 1:
        raise ValueError(
            f"valid padding leaves no output: input {in_size}, effective kernel {eff}")
    return out


def _geometry(h: int, w: int, kernel, stride, dilation, padding: str):
    """Output extents and (top, bottom, left, right) padding."""
    kh, kw = kernel
    sh, sw = stride
    dh, dw = dilation
    out_h = conv_output_size(h, kh, sh, dh, padding)
    out_w = conv_output_size(w, kw, sw, dw, padding)
    if padding == "same":
        eff_h = (kh - 1) * dh + 1
        eff_w = (kw - 1) * dw + 1
        ph = max((out_h - 1) * sh + eff_h - h, 0)
        pw = max((out_w - 1) * sw + eff_w - w, 0)
        # odd totals put the extra row/column at bottom/right
        pads = (ph // 2, ph - ph // 2, pw // 2, pw - pw // 2)
    else:
        pads = (0, 0, 0, 0)
    return out_h, out_w, pads


@dataclass(frozen=True)
class _Plan:
    """Where every tap of one conv reads in the phase maps of its padded input.

    Phase (a, b) of the padded map holds its pixels at rows a, a+sh, ... and
    columns b, b+sw, ...; each phase map is laid out row-major at pitch `wq`.
    Tap (i, j) reads phase ((i*dh) % sh, (j*dw) % sw) shifted by
    ((i*dh) // sh, (j*dw) // sw), so at stride 1 there is one phase, the
    padded map itself. Read at pitch `wq`, the inputs of all output pixels of
    a tap form one contiguous window of `length` elements starting at the
    tap's offset; the `wq - out_w` columns at the end of each output row are
    pitch padding that is cropped (forward) or fed zeros (backward).

    A stride-1 "same" conv whose padding fits in _MARGIN reads the shared
    layout instead: rows at pitch w + _MARGIN, whose zero columns are also
    the left padding of the next row, under _MARGIN + 1 zero rows (so no tap
    offset is negative) and over _MARGIN. Plans with equal `layout` build
    equal maps, which sibling convs can share (sharing_maps).

    A `stacked` plan (stride 1, dilation 1, kernel at most 3x3, at most
    _STACK_CHANNELS input channels, taps that overlap) runs its forward pass
    as one GEMM over the stacked tap windows of each block (_stacks); every
    other pass, and every other plan whose taps overlap, sums the taps one
    matmul at a time.
    `lead` and `span` place the pitched output gradient (_pitched): it holds
    just the windows the two gradients read.
    """

    out_h: int
    out_w: int
    hq: int
    wq: int
    taps: tuple[tuple[int, int], ...]  # (phase map index, window offset) per tap
    cuts: tuple  # per phase map: (input slices, map slices) holding the same pixels
    is_view: bool  # one phase map that is the input itself
    lead: int  # where output pixel 0 sits in the pitched output gradient
    span: int  # the pitched output gradient's length per channel
    disjoint: bool  # tap t reads all of phase map t: no two taps share an input pixel
    stacked: bool  # the tap windows stack into one K = kh*kw*C GEMM per block
    kernel: tuple[int, int]  # (kh, kw)

    @property
    def length(self) -> int:
        return (self.out_h - 1) * self.wq + self.out_w

    @property
    def layout(self) -> tuple:
        return self.hq, self.wq, self.cuts


# The zero margin of the shared stride-1 layout: enough for 3x3 at dilation 2.
_MARGIN = 2


# The most input channels whose tap windows stack: K = kh*kw*C <= 36.
_STACK_CHANNELS = 4


@lru_cache(maxsize=1024)
def _plan(h: int, w: int, spec: ConvSpec) -> _Plan:
    """The phase maps and tap windows of `spec` on an h x w input.

    For a transposed spec, those of the conv it is the adjoint of, whose
    input is h x w with spec.out_channels channels.
    """
    kh, kw = spec.kernel
    sh, sw = spec.stride
    dh, dw = spec.dilation
    channels = spec.out_channels if spec.transposed else spec.in_channels
    out_h, out_w, pads = _geometry(h, w, spec.kernel, spec.stride, spec.dilation, spec.padding)
    pt, _, pl, _ = pads
    if (sh, sw) == (1, 1) and 0 < max(pads) <= _MARGIN:
        # the shared layout: padded pixel (0, 0) sits at map row top, column left
        hq, wq = h + 2 * _MARGIN + 1, w + _MARGIN
        top, left = _MARGIN + 1 - pt, -pl
    else:
        hq = out_h + (kh - 1) * dh // sh
        wq = out_w + (kw - 1) * dw // sw
        top = left = 0
    phases: list[tuple[int, int]] = []
    taps = []
    for i in range(kh):
        for j in range(kw):
            phase = (i * dh % sh, j * dw % sw)
            if phase not in phases:
                phases.append(phase)
            taps.append((phases.index(phase), (top + i * dh // sh) * wq + left + j * dw // sw))
    cuts = []
    fills_maps, covered = True, 0
    for a, b in phases:
        r0, c0 = (a - pt) % sh, (b - pl) % sw  # first input row/column in the phase
        q0, p0 = top + (r0 + pt) // sh, left + (c0 + pl) // sw
        nr = min(len(range(r0, h, sh)), hq - q0)
        nc = min(len(range(c0, w, sw)), wq - p0)
        cuts.append(((slice(r0, r0 + nr * sh, sh), slice(c0, c0 + nc * sw, sw)),
                     (slice(q0, q0 + nr), slice(p0, p0 + nc))))
        fills_maps = fills_maps and (q0, p0, nr, nc) == (0, 0, hq, wq)
        covered += nr * nc
    is_view = (sh, sw) == (1, 1) and fills_maps and covered == h * w
    disjoint = all(t == p and off == 0 for t, (p, off) in enumerate(taps))
    # The pitched output gradient spans the output rows, which hold the weight
    # gradient's window and a disjoint plan's one GEMM (hq == out_h there), and
    # every window the input gradient reads: per tap, its phase map's input
    # rows shifted back by the tap's offset.
    lo, hi = 0, out_h * wq
    for p, off in taps:
        rows = cuts[p][1][0]
        if rows.start < rows.stop:
            lo, hi = min(lo, rows.start * wq - off), max(hi, rows.stop * wq - off)
    stacked = ((sh, sw) == (dh, dw) == (1, 1) and kh <= 3 and kw <= 3
               and channels <= _STACK_CHANNELS and not disjoint)
    return _Plan(out_h, out_w, hq, wq, tuple(taps), tuple(cuts), is_view,
                 -lo, hi - lo, disjoint, stacked, (kh, kw))


def _to_phases(x: np.ndarray, plan: _Plan) -> np.ndarray:
    """Phase maps of the zero-padded input, [N, P, C, hq*wq]; a view when nothing moves."""
    n, c = x.shape[:2]
    if plan.is_view:
        return x.reshape(n, 1, c, plan.hq * plan.wq)
    xq = np.zeros((n, len(plan.cuts), c, plan.hq, plan.wq), dtype=x.dtype)
    for p, (xs, (rows, cols)) in enumerate(plan.cuts):
        xq[:, p, :, rows, cols] = x[:, :, xs[0], xs[1]]
    return xq.reshape(n, len(plan.cuts), c, plan.hq * plan.wq)


def _write(dst: np.ndarray, src: np.ndarray, add: bool) -> None:
    """dst += src if `add`, else dst[...] = src: dst is a view into an input gradient."""
    if add:
        dst += src
    else:
        dst[...] = src


def _pitched(g: np.ndarray, plan: _Plan) -> np.ndarray:
    """Output gradient at row pitch wq, zeros in the pitch columns and around.

    Output pixel k (counted at pitch wq) sits at `plan.lead + k` of an
    [N, O, span] array, so every window the gradients read, each tap's
    shifted back by its offset, stays inside it.
    """
    n, o = g.shape[:2]
    if (plan.lead, plan.wq, plan.span) == (0, plan.out_w, plan.out_h * plan.out_w):
        return g.reshape(n, o, plan.span)
    gp = np.zeros((n, o, plan.span), dtype=g.dtype)
    rows = gp[..., plan.lead:plan.lead + plan.out_h * plan.wq]
    rows.reshape(n, o, plan.out_h, plan.wq)[..., :plan.out_w] = g
    return gp


# Partial-sum elements per block. One block's partial sums, the windows they
# read and the output they add into (about 1 MB in float32) stay in a 2 MB L2
# cache while all taps sweep it. On a 2-core Xeon with 2 MB L2 per core, 96K
# ran a 256x256 forward pass faster than 32K, 64K, 128K or no blocking; on a
# batch-8 64x64 train step every size from 64K up was within noise.
_BLOCK = 96 * 1024


def _blocks(n: int, rows: int, length: int) -> list[tuple[slice, slice]]:
    """(images, positions) blocks of at most about _BLOCK partial-sum elements."""
    per_image = rows * length
    if per_image >= _BLOCK:
        step = max(1, _BLOCK // rows)
        return [(slice(i, i + 1), slice(k, min(k + step, length)))
                for i in range(n) for k in range(0, length, step)]
    nb = _BLOCK // per_image
    return [(slice(i, min(i + nb, n)), slice(0, length)) for i in range(0, n, nb)]


def _tap_sum(taps, rows: int, length: int,
             out: np.ndarray | None = None) -> Iterator[tuple[slice, np.ndarray]]:
    """Sum the taps one group of images at a time; yield (images, sums) per group.

    sums[i, :, k] = sum over (matrix, src, start) in taps of
    matrix @ src[images][i, :, start + k] for k < length, where every matrix
    has `rows` rows. Taps are summed in the order given, one matmul per tap on
    a window view, over the group's _blocks. The sums are out[images] when
    `out` is given. Otherwise they are one group-sized scratch that the next
    group overwrites, so no array holds the sums of the whole batch. The
    scratch is allocated once per call.
    """
    n, dtype = taps[0][1].shape[0], taps[0][1].dtype
    blocks = _blocks(n, max(rows, taps[0][0].shape[1]), length)
    images = blocks[0][0]  # no later block holds more images
    if out is None:
        scratch = np.empty((images.stop - images.start, rows, length), dtype=dtype)
    for bn, bk in blocks:
        sums = scratch[:bn.stop - bn.start] if out is None else out[bn]
        acc = sums[:, :, bk]
        for t, (mat, src, start) in enumerate(taps):
            window = src[bn, :, start + bk.start:start + bk.stop]
            if t == 0:
                np.matmul(mat, window, out=acc)
            else:
                acc += np.matmul(mat, window)
        if bk.stop == length:  # the group's last block
            yield bn, sums


def _stacks(xq: np.ndarray, plan: _Plan, rows: int) -> Iterator[tuple[slice, slice, np.ndarray]]:
    """(images, positions, stack) per block of a stacked plan, in _blocks order.

    stack[:, t*C + c, k] = xq[images, 0, c, offset of tap t + k]: the taps'
    windows on top of each other, one slice copy per tap, so one matmul with
    the stacked weights (_stacked_weights) sums all taps. `rows` sizes the
    blocks: the stack's kh*kw*C rows plus the O output rows it meets, which
    then share the cache. Each block's stack is a fresh array of at most
    _BLOCK elements.
    """
    n, _, c, _ = xq.shape
    for bn, bk in _blocks(n, rows, plan.length):
        nb, width = bn.stop - bn.start, bk.stop - bk.start
        stack = np.empty((nb, len(plan.taps), c, width), dtype=xq.dtype)
        for t, (_, off) in enumerate(plan.taps):
            stack[:, t] = xq[bn, 0, :, off + bk.start:off + bk.stop]
        yield bn, bk, stack.reshape(nb, -1, width)


def _stacked_weights(weight: np.ndarray) -> np.ndarray:
    """[O, C, kh, kw] -> [O, kh*kw*C], every kernel's weights: tap t's in columns t*C on."""
    o = weight.shape[0]
    return np.ascontiguousarray(weight.transpose(0, 2, 3, 1)).reshape(o, -1)


# ----------------------------------------------------- raw numpy kernels

def _conv2d_raw(xq: np.ndarray, weight: np.ndarray, plan: _Plan) -> np.ndarray:
    """Cross-correlation without bias, from the input's phase maps xq; weight [O,C,kh,kw]."""
    n, _, c = xq.shape[:3]
    out_c = weight.shape[0]
    wst = _stacked_weights(weight)
    y = np.empty((n, out_c, plan.out_h * plan.wq), dtype=xq.dtype)
    if plan.disjoint:  # one GEMM over the stacked maps; wq == out_w, so the crop copies nothing
        np.matmul(wst, xq.reshape(n, -1, plan.hq * plan.wq), out=y)
    elif plan.stacked:
        for bn, bk, stack in _stacks(xq, plan, sum(wst.shape)):
            np.matmul(wst, stack, out=y[bn, :, bk])
    else:
        taps = [(wst[:, t * c:(t + 1) * c], xq[:, p], off) for t, (p, off) in enumerate(plan.taps)]
        for _ in _tap_sum(taps, out_c, plan.length, y):
            pass  # the sums land in y
    return np.ascontiguousarray(y.reshape(n, out_c, plan.out_h, plan.wq)[..., :plan.out_w])


def _conv2d_grad_w(xq: np.ndarray, gp: np.ndarray, plan: _Plan) -> np.ndarray:
    """Gradient of the conv output w.r.t. weight, from phase maps xq and pitched gradient gp."""
    c = xq.shape[2]
    out_c = gp.shape[1]
    kh, kw = plan.kernel
    gp = gp[..., plan.lead:plan.lead + plan.length]
    gw = np.empty((out_c, kh * kw * c), dtype=xq.dtype)
    for t, (p, off) in enumerate(plan.taps):
        window = xq[:, p, :, off:off + plan.length]
        np.matmul(gp, window.transpose(0, 2, 1)).sum(axis=0, out=gw[:, t * c:(t + 1) * c])
    return np.ascontiguousarray(gw.reshape(out_c, kh, kw, c).transpose(0, 3, 1, 2))


def _conv2d_grad_x(gp: np.ndarray, weight: np.ndarray, x_shape, plan: _Plan,
                   gx: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the conv output w.r.t. input, from the pitched output gradient gp.

    Each phase-map pixel gathers, tap by tap, the gradient of the output
    pixel that read it: the forward tap sum run backwards over the windows.
    Only the map rows that hold input pixels are summed, not the margins. A
    disjoint plan sums all taps in one GEMM instead, phase p in rows p*C on.
    Given `gx` (the input's gradient so far), each phase's crop is added into
    it and gx is returned; otherwise the gradient is a fresh array.
    """
    n, c = x_shape[:2]
    add = gx is not None
    wst = _stacked_weights(weight)
    if plan.disjoint:
        gq = np.matmul(wst.T, gp[..., plan.lead:plan.lead + plan.length])
        if plan.is_view and not add:
            return gq.reshape(x_shape)  # the one phase map is the input itself
    if not add:
        gx = np.zeros(x_shape, dtype=gp.dtype)
    for p, (xs, (rows, cols)) in enumerate(plan.cuts):
        if rows.stop <= rows.start:
            continue  # a phase of a tiny map can hold no input row
        first, length = rows.start * plan.wq, (rows.stop - rows.start) * plan.wq
        if plan.disjoint:
            groups = [(slice(0, n), gq[:, p * c:(p + 1) * c, first:first + length])]
        else:
            taps = [(wst[:, t * c:(t + 1) * c].T, gp, plan.lead + first - off)
                    for t, (tp, off) in enumerate(plan.taps) if tp == p]
            groups = _tap_sum(taps, c, length)
        for bn, sums in groups:
            _write(gx[bn, :, xs[0], xs[1]], sums.reshape(len(sums), c, -1, plan.wq)[..., cols], add)
        del sums  # the next phase's scratch then reuses this one's memory
    return gx


# ------------------------------------------------------------ tensor ops

def _check_layer_input(x: Tensor, spec: ConvSpec, params: LayerParams) -> None:
    if x.ndim != 4:
        raise ValueError(f"expected [N,C,H,W] input, got shape {x.shape}")
    if x.shape[1] != spec.in_channels:
        raise ValueError(
            f"channel mismatch: input has {x.shape[1]} channels, layer "
            f"{params.name or '<anon>'} expects {spec.in_channels}")
    if params.weight.shape != spec.weight_shape:
        raise ValueError(
            f"weight shape {params.weight.shape} does not match spec {spec.weight_shape}")
    if params.bias.shape != spec.bias_shape:
        raise ValueError(
            f"bias shape {params.bias.shape} does not match spec {spec.bias_shape}")
    if params.weight.dtype != x.dtype or params.bias.dtype != x.dtype:
        raise ValueError("input and parameter dtypes must match")


@dataclass
class _Maps:
    """The phase maps of one input tensor in one layout, built at the first read.

    The convs that share them hold one instance, so maps rebuilt in backward
    go with the last holder's closure. They are built from the tensor's data
    as it is at that read: a concat may have rebound it to a channel slice of
    its output since the forward pass (tensor.concat_channels), and holding
    the tensor instead of its array lets that array be freed.
    """

    x: Tensor | None
    plan: _Plan | None
    xq: np.ndarray | None = None

    def get(self) -> np.ndarray:
        if self.xq is None:
            self.xq = _to_phases(self.x.data, self.plan)
        return self.xq


# inside sharing_maps(): [the last conv's maps]
_slot: ContextVar[list[_Maps] | None] = ContextVar("slot", default=None)


@contextmanager
def sharing_maps() -> Iterator[None]:
    """Consecutive convs in the scope that read one input tensor in one layout share its maps.

    An inception or reduction block runs its sibling branches in one. Maps
    that another tensor or layout replaces, or that are left when the scope
    ends, drop their forward copy, so none outlives the siblings; backward
    rebuilds them once, at their first reader.
    """
    slot = [_Maps(None, None)]
    with _setting(_slot, slot):
        try:
            yield
        finally:
            slot[0].xq = None


@observed("conv2d")
def conv2d(x: Tensor, spec: ConvSpec, params: LayerParams) -> Tensor:
    """Strided/dilated 2-D convolution with per-channel bias, and relu if the spec says so."""
    if spec.transposed:
        raise ValueError("conv2d called with a transposed spec")
    _check_layer_input(x, spec, params)
    weight, bias = params.weight, params.bias
    plan = _plan(x.shape[2], x.shape[3], spec)
    shared = _slot.get()
    slot = shared or [_Maps(None, None)]  # outside sharing_maps(), a slot of its own
    maps = slot[0]
    if maps.x is not x or maps.plan.layout != plan.layout:
        maps.xq = None
        maps = slot[0] = _Maps(x, plan)
    y = _conv2d_raw(maps.get(), weight.data, plan)
    if shared is None:
        maps.xq = None  # no sibling reads it: backward rebuilds the maps
    y += bias.data[None, :, None, None]
    if spec.relu:
        # a fresh array: clamping y in place measured slower on large forward-only maps
        y = np.maximum(y, 0)

    def backward(g: np.ndarray) -> None:
        if spec.relu:
            g *= mask.get(g.shape)
        gp = _pitched(g, plan)
        if x.requires_grad:  # the first sibling conv's gradient becomes .grad, later ones add
            x.grad = _conv2d_grad_x(gp, weight.data, x.shape, plan, x.grad)
        if weight.requires_grad:
            weight.accumulate_grad(_conv2d_grad_w(maps.get(), gp, plan), owned=True)
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(0, 2, 3)), owned=True)
    out = Tensor._make(y, (x, weight, bias), backward)
    if spec.relu:
        mask = _ReluMask(out)
    return out


class _ReluMask(weakref.ref):
    """A relu-fused conv's backward mask, output > 0, read through a weak reference to the output.

    Until release() frees the output's values, the mask is read from its data
    at backward time; release() packs it into `bits` first.
    """

    __slots__ = ("bits",)

    def __init__(self, out: Tensor):
        super().__init__(out)
        self.bits: np.ndarray | None = None

    def get(self, shape) -> np.ndarray:
        if self.bits is None:
            return self().data > 0
        return np.unpackbits(self.bits, count=int(np.prod(shape))).reshape(shape).view(bool)


def release(t: Tensor) -> None:
    """Free the values of op output t, whose consumers have all run, if t recorded a graph.

    Call it on an output that no backward but its own reads: a residual add's
    addends, or the tail read only by the sigmoid. A relu-fused conv's output
    keeps its relu mask as bits. The values become an empty array of t's
    dtype, so t's gradient keeps that precision and a stray reader fails on
    the shape. A tensor that recorded no graph (no_grad, or a leaf) keeps its
    values.
    """
    if t._backward is None:
        return
    for ref in weakref.getweakrefs(t):
        if isinstance(ref, _ReluMask):
            ref.bits = np.packbits(t.data > 0)
    t.data = np.empty(0, dtype=t.dtype)


@observed("transposed_conv2d")
def transposed_conv2d(x: Tensor, spec: ConvSpec, params: LayerParams) -> Tensor:
    """Learned upsampling: output spatial extent = input extent * stride."""
    if not spec.transposed:
        raise ValueError("transposed_conv2d called with a non-transposed spec")
    _check_layer_input(x, spec, params)
    weight, bias = params.weight, params.bias
    n, _, h, w = x.shape
    sh, sw = spec.stride
    out_shape = (n, spec.out_channels, h * sh, w * sw)
    plan = _plan(h * sh, w * sw, spec)
    y = _conv2d_grad_x(_pitched(x.data, plan), weight.data, out_shape, plan)
    y += bias.data[None, :, None, None]

    def backward(g: np.ndarray) -> None:
        gq = _to_phases(g, plan)
        if x.requires_grad:
            x.accumulate_grad(_conv2d_raw(gq, weight.data, plan), owned=True)
        if weight.requires_grad:
            gw = _conv2d_grad_w(gq, _pitched(x.data, plan), plan)
            weight.accumulate_grad(gw, owned=True)
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(0, 2, 3)), owned=True)
    return Tensor._make(y, (x, weight, bias), backward)


@observed("avg_pool2d")
def avg_pool2d(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 average pooling; backward spreads gradient uniformly."""
    if x.ndim != 4:
        raise ValueError(f"expected [N,C,H,W] input, got shape {x.shape}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"spatial extents {h}x{w} not divisible by window 2x2")
    # summing strided views is far cheaper than a mean over a 6-D reshape
    y = np.zeros((n, c, h // 2, w // 2), dtype=x.dtype)
    for a in range(2):
        for b in range(2):
            y += x.data[:, :, a::2, b::2]
    y *= 0.25

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            g *= 0.25
            add = x.grad is not None
            gx = x.grad if add else np.empty(x.shape, dtype=g.dtype)
            for a in range(2):
                for b in range(2):
                    _write(gx[:, :, a::2, b::2], g, add)
            x.grad = gx
    return Tensor._make(y, (x,), backward)
