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
one map layout that depends only on their geometry (see _Plan). Inside
sharing_maps(), which model.forward opens for each pass, consecutive convs
that read one input array in one layout (an inception block's three
branches, a reduction block's two) build its maps once in forward and once
in backward, and the block releases the forward copy after its last sibling
(release_maps); direct layer calls share nothing.

Taps stay separate matmuls, summed in tap order, instead of one im2col GEMM
over C*kh*kw. That keeps a dilated kernel bit-identical to the same kernel
inflated with zero taps (the exact dilation oracle in the tests), and builds
no buffer kh*kw times the size of the input. Two kinds of conv run as one
GEMM instead:
- Where no two taps share an input pixel (1x1 kernels, 2x2 stride-2
  kernels), each tap reads a whole phase map, and the conv is one GEMM over
  the stacked maps: a plain matmul at 1x1 stride 1, subsample-then-GEMM at
  1x1 stride 2, and GEMM plus pixel shuffle at 2x2 stride 2.
- A stride-1, dilation-1 conv with a kernel of at most 3x3 on at most 4
  input channels (the model's `head`, 3 -> 16) is too thin for per-tap
  matmuls with K = C. Its forward pass and weight gradient copy the tap
  windows of each block into one stack of kh*kw*C rows (the unfolding of
  Chellapilla et al., 2006, one block at a time) and run one GEMM with
  K = kh*kw*C per block; its input gradient stays per tap. The stack is
  never larger than one block. Its sums run in BLAS order, not tap order,
  so they match the per-tap sums within rounding only. Dilated kernels never
  stack, so the dilation oracle holds, with one exception: a stacked 3x3
  matches the zero-inflation of a 2x2 kernel at dilation 2 only within
  rounding.

The transposed convolution is defined as the linear adjoint of the
same-spec convolution: its forward pass is the convolution's input
gradient, so output spatial extent = input * stride.

A spec with `relu=True` fuses the activation into conv2d: one graph node
returns max(conv + bias, 0), bit-identical to conv2d followed by
Tensor.relu, and its backward masks the output gradient by output > 0.
The pre-activation goes to the relu observer first and is not kept.
Plans are memoized per input size, channel count and geometry, and one
backward builds the pitched output gradient once for both the input and
weight gradients. The gradients the backward passes allocate (input,
weight, bias) are fresh arrays, so they go to `Tensor.accumulate_grad` as
owned and the first one becomes `.grad` without a copy.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import rng
from .tensor import Tensor, report_relu_input


def _pair(v) -> tuple[int, int]:
    if isinstance(v, int):
        return (v, v)
    a, b = v
    return (int(a), int(b))


@dataclass
class ConvSpec:
    """Static description of one convolution layer."""

    in_channels: int
    out_channels: int
    kernel: tuple[int, int] = (3, 3)
    stride: tuple[int, int] = (1, 1)
    dilation: tuple[int, int] = (1, 1)
    padding: str = "same"
    transposed: bool = False
    relu: bool = False  # the layer's output is max(conv + bias, 0)

    def __post_init__(self):
        self.kernel = _pair(self.kernel)
        self.stride = _pair(self.stride)
        self.dilation = _pair(self.dilation)
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be positive")
        if min(self.kernel) < 1 or min(self.stride) < 1 or min(self.dilation) < 1:
            raise ValueError("kernel, stride and dilation must be >= 1")
        if self.padding not in ("same", "valid"):
            raise ValueError(f"unknown padding mode {self.padding!r}")
        if self.relu and self.transposed:
            raise ValueError("relu is fused into conv2d only, not into transposed_conv2d")

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
    and weight gradient as one GEMM over the stacked tap windows of each
    block (_stacks); other plans whose taps overlap sum them one matmul at a
    time.
    `lead` and `span` place the pitched output gradient (_pitched): it holds
    just the windows the two gradients read.
    """

    out_h: int
    out_w: int
    hq: int
    wq: int
    taps: tuple[tuple[int, int], ...]  # (phase map index, window offset) per tap
    cuts: tuple  # per phase map: (input slices, map slices) holding the same pixels
    fills_input: bool  # every input pixel lies in some phase map
    is_view: bool  # one phase map that is the input itself
    lead: int  # where output pixel 0 sits in the pitched output gradient
    span: int  # the pitched output gradient's length per channel
    disjoint: bool  # tap t reads all of phase map t: no two taps share an input pixel
    stacked: bool  # the tap windows stack into one K = kh*kw*C GEMM per block

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


def _plan(h: int, w: int, spec: ConvSpec) -> _Plan:
    """The phase maps and tap windows of `spec` on an h x w input."""
    return _plan_for(h, w, spec.in_channels, spec.kernel, spec.stride, spec.dilation,
                     spec.padding)


@lru_cache(maxsize=1024)
def _plan_for(h: int, w: int, channels: int, kernel, stride, dilation, padding: str) -> _Plan:
    kh, kw = kernel
    sh, sw = stride
    dh, dw = dilation
    out_h, out_w, pads = _geometry(h, w, kernel, stride, dilation, padding)
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
    # gradient's window, and every window the input gradient reads: a whole
    # phase map (disjoint), or per tap its phase map's input rows shifted back
    # by the tap's offset.
    lo, hi = 0, out_h * wq
    if disjoint:
        hi = hq * wq
    else:
        for p, off in taps:
            rows = cuts[p][1][0]
            if rows.start < rows.stop:
                lo, hi = min(lo, rows.start * wq - off), max(hi, rows.stop * wq - off)
    stacked = ((sh, sw) == (dh, dw) == (1, 1) and kh <= 3 and kw <= 3
               and channels <= _STACK_CHANNELS and not disjoint)
    return _Plan(out_h, out_w, hq, wq, tuple(taps), tuple(cuts), covered == h * w, is_view,
                 -lo, hi - lo, disjoint, stacked)


def _to_phases(x: np.ndarray, plan: _Plan) -> np.ndarray:
    """Phase maps of the zero-padded input, [N, P, C, hq*wq]; a view when nothing moves."""
    n, c = x.shape[:2]
    if plan.is_view:
        return x.reshape(n, 1, c, plan.hq * plan.wq)
    xq = np.empty((n, len(plan.cuts), c, plan.hq, plan.wq), dtype=x.dtype)
    for p, (xs, (rows, cols)) in enumerate(plan.cuts):
        q = xq[:, p]
        q[..., :rows.start, :] = q[..., rows.stop:, :] = 0  # only the margins are zeroed
        q[..., rows, :cols.start] = q[..., rows, cols.stop:] = 0
        q[..., rows, cols] = x[:, :, xs[0], xs[1]]
    return xq.reshape(n, len(plan.cuts), c, plan.hq * plan.wq)


def _from_phases(gq: np.ndarray, plan: _Plan, x_shape) -> np.ndarray:
    """Adjoint of _to_phases: gather phase-map gradients back onto the input grid."""
    n, c = x_shape[:2]
    gq = gq.reshape(n, len(plan.cuts), c, plan.hq, plan.wq)
    if plan.is_view:
        return gq.reshape(x_shape)
    gx = (np.empty if plan.fills_input else np.zeros)(x_shape, dtype=gq.dtype)
    for p, (xs, qs) in enumerate(plan.cuts):
        gx[:, :, xs[0], xs[1]] = gq[:, p, :, qs[0], qs[1]]
    return gx


def _pitched(g: np.ndarray, plan: _Plan) -> np.ndarray:
    """Output gradient at row pitch wq, zeros in the pitch columns and around.

    Output pixel k (counted at pitch wq) sits at `plan.lead + k` of an
    [N, O, span] buffer, so every window the gradients read, each tap's
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


def _tap_sum(out: np.ndarray, taps) -> None:
    """out[:, :, k] = sum over (matrix, src, start) in taps of matrix @ src[:, :, start + k].

    Taps are summed in the order given, one matmul per tap on a window view.
    """
    n, rows, length = out.shape
    for bn, bk in _blocks(n, max(rows, taps[0][0].shape[1]), length):
        acc = out[bn, :, bk]
        part = np.empty(acc.shape, dtype=out.dtype)
        for t, (mat, src, start) in enumerate(taps):
            window = src[bn, :, start + bk.start:start + bk.stop]
            if t == 0:
                np.matmul(mat, window, out=acc)
            else:
                np.matmul(mat, window, out=part)
                acc += part


def _stacks(xq: np.ndarray, plan: _Plan, rows: int) -> Iterator[tuple[slice, slice, np.ndarray]]:
    """(images, positions, stack) per block of a stride-1 plan, in _blocks order.

    stack[:, t*C + c, k] = xq[images, 0, c, offset of tap t + k]: the taps'
    windows on top of each other, so one matmul with the stacked weights
    (_stacked_weights) sums all taps. `rows` sizes the blocks: the stack's
    kh*kw*C rows plus the O rows of output or gradient it meets, which then
    share the cache. The stack reuses one buffer of at most _BLOCK elements.
    """
    n, _, c, _ = xq.shape
    k = len(plan.taps) * c
    buf = None
    for bn, bk in _blocks(n, rows, plan.length):
        nb, width = bn.stop - bn.start, bk.stop - bk.start
        if buf is None:
            buf = np.empty(nb * k * width, dtype=xq.dtype)
        stack = buf[:nb * k * width].reshape(nb, k, width)
        for t, (_, off) in enumerate(plan.taps):
            stack[:, t * c:(t + 1) * c] = xq[bn, 0, :, off + bk.start:off + bk.stop]
        yield bn, bk, stack


def _tap_weights(weight: np.ndarray) -> np.ndarray:
    """[O, C, kh, kw] -> [kh*kw, O, C]: one contiguous matrix per tap."""
    o, c, kh, kw = weight.shape
    return np.ascontiguousarray(weight.transpose(2, 3, 0, 1)).reshape(kh * kw, o, c)


def _stacked_weights(weight: np.ndarray) -> np.ndarray:
    """[O, C, kh, kw] -> [O, kh*kw*C]: the taps side by side, as maps or windows are stacked."""
    o = weight.shape[0]
    return np.ascontiguousarray(weight.transpose(0, 2, 3, 1)).reshape(o, -1)


# ----------------------------------------------------- raw numpy kernels

def _conv2d_raw(xq: np.ndarray, weight: np.ndarray, plan: _Plan) -> np.ndarray:
    """Cross-correlation without bias, from the input's phase maps xq; weight [O,C,kh,kw]."""
    n = xq.shape[0]
    out_c = weight.shape[0]
    if plan.disjoint:
        y = np.matmul(_stacked_weights(weight), xq.reshape(n, -1, plan.hq * plan.wq))
        return y.reshape(n, out_c, plan.out_h, plan.out_w)
    y = np.empty((n, out_c, plan.out_h * plan.wq), dtype=xq.dtype)
    if plan.stacked:
        wst = _stacked_weights(weight)
        for bn, bk, stack in _stacks(xq, plan, sum(wst.shape)):
            np.matmul(wst, stack, out=y[bn, :, bk])
    else:
        _tap_sum(y[..., :plan.length], [(wt, xq[:, p], off) for wt, (p, off)
                                        in zip(_tap_weights(weight), plan.taps)])
    return np.ascontiguousarray(y.reshape(n, out_c, plan.out_h, plan.wq)[..., :plan.out_w])


def _conv2d_grad_w(xq: np.ndarray, gp: np.ndarray, plan: _Plan, kernel) -> np.ndarray:
    """Gradient of the conv output w.r.t. weight, from phase maps xq and pitched gradient gp."""
    c = xq.shape[2]
    out_c = gp.shape[1]
    kh, kw = kernel
    gp = gp[..., plan.lead:plan.lead + plan.length]
    if plan.stacked:
        gw = np.zeros((out_c, kh * kw * c), dtype=xq.dtype)
        for bn, bk, stack in _stacks(xq, plan, sum(gw.shape)):
            gw += np.matmul(gp[bn, :, bk], stack.transpose(0, 2, 1)).sum(axis=0)
        return np.ascontiguousarray(gw.reshape(out_c, kh, kw, c).transpose(0, 3, 1, 2))
    gw = np.empty((kh * kw, out_c, c), dtype=xq.dtype)
    for t, (p, off) in enumerate(plan.taps):
        window = xq[:, p, :, off:off + plan.length]
        np.matmul(gp, window.transpose(0, 2, 1)).sum(axis=0, out=gw[t])
    return np.ascontiguousarray(gw.reshape(kh, kw, out_c, c).transpose(2, 3, 0, 1))


def _conv2d_grad_x(gp: np.ndarray, weight: np.ndarray, x_shape, plan: _Plan) -> np.ndarray:
    """Gradient of the conv output w.r.t. input, from the pitched output gradient gp.

    Each phase-map pixel gathers, tap by tap, the gradient of the output
    pixel that read it: the forward tap sum run backwards over the windows.
    Only the map rows that hold input pixels are summed, not the margins.
    """
    n, c = x_shape[:2]
    if plan.disjoint:
        return _from_phases(np.matmul(_stacked_weights(weight).T, gp), plan, x_shape)
    gx = (np.empty if plan.fills_input else np.zeros)(x_shape, dtype=gp.dtype)
    weights = _tap_weights(weight)
    for p, (xs, (rows, cols)) in enumerate(plan.cuts):
        if rows.stop <= rows.start:
            continue  # a phase of a tiny map can hold no input row
        gq = np.empty((n, c, (rows.stop - rows.start) * plan.wq), dtype=gp.dtype)
        start = plan.lead + rows.start * plan.wq
        _tap_sum(gq, [(wt.T, gp, start - off)
                      for wt, (tp, off) in zip(weights, plan.taps) if tp == p])
        gx[:, :, xs[0], xs[1]] = gq.reshape(n, c, -1, plan.wq)[..., cols]
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
    if params.weight.dtype != x.dtype or params.bias.dtype != x.dtype:
        raise ValueError("input and parameter dtypes must match")


@dataclass
class _Maps:
    """The phase maps of one input array in one layout, built at the first read.

    The convs that share them hold one instance, so maps rebuilt in backward
    go with the last holder's closure.
    """

    x: np.ndarray | None
    plan: _Plan | None
    xq: np.ndarray | None = None

    def get(self) -> np.ndarray:
        if self.xq is None:
            self.xq = _to_phases(self.x, self.plan)
        return self.xq


_slot: list[_Maps] | None = None  # inside sharing_maps(): [the last conv's maps]


@contextmanager
def sharing_maps() -> Iterator[None]:
    """Consecutive convs in the block that read one input array in one layout share its maps.

    model.forward runs each pass in one. Maps that another array or layout
    replaces, that release_maps() releases, or that are left when the block
    ends, drop their forward copy; backward rebuilds them once, at their first
    reader.
    """
    global _slot
    prev, _slot = _slot, [_Maps(None, None)]
    try:
        yield
    finally:
        release_maps()
        _slot = prev


def release_maps() -> None:
    """The last sibling has read the shared maps: drop their forward copy now.

    A block calls this after its last conv on its input, so the copy is freed
    before the block allocates its concat; backward rebuilds the maps once,
    at their first reader. Outside sharing_maps() there is nothing to drop.
    """
    if _slot is not None:
        _slot[0].xq = None


def conv2d(x: Tensor, spec: ConvSpec, params: LayerParams) -> Tensor:
    """Strided/dilated 2-D convolution with per-channel bias, and relu if the spec says so."""
    if _slot is None:
        with sharing_maps():  # outside a pass, each call shares nothing
            return conv2d(x, spec, params)
    if spec.transposed:
        raise ValueError("conv2d called with a transposed spec")
    _check_layer_input(x, spec, params)
    weight, bias = params.weight, params.bias
    plan = _plan(x.shape[2], x.shape[3], spec)
    maps = _slot[0]
    if maps.x is not x.data or maps.plan.layout != plan.layout:
        maps.xq = None
        maps = _slot[0] = _Maps(x.data, plan)
    y = _conv2d_raw(maps.get(), weight.data, plan)
    y += bias.data[None, :, None, None]
    if spec.relu:
        report_relu_input(y)
        # a fresh array: clamping y in place measured slower on large forward-only maps
        y = np.maximum(y, 0)

    def backward(g: np.ndarray) -> None:
        if spec.relu:
            g = g * (y > 0)
        gp = _pitched(g, plan)
        if x.requires_grad:
            x.accumulate_grad(_conv2d_grad_x(gp, weight.data, x.shape, plan), owned=True)
        if weight.requires_grad:
            weight.accumulate_grad(_conv2d_grad_w(maps.get(), gp, plan, spec.kernel), owned=True)
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(0, 2, 3)), owned=True)
    return Tensor._make(y, (x, weight, bias), backward)


def transposed_conv2d(x: Tensor, spec: ConvSpec, params: LayerParams) -> Tensor:
    """Learned upsampling: output spatial extent = input extent * stride."""
    if not spec.transposed:
        raise ValueError("transposed_conv2d called with a non-transposed spec")
    _check_layer_input(x, spec, params)
    weight, bias = params.weight, params.bias
    n, _, h, w = x.shape
    sh, sw = spec.stride
    out_shape = (n, spec.out_channels, h * sh, w * sw)
    # the plan of the same-padded convolution this layer is the adjoint of
    plan = _plan_for(h * sh, w * sw, spec.out_channels, spec.kernel, spec.stride,
                     spec.dilation, "same")
    y = _conv2d_grad_x(_pitched(x.data, plan), weight.data, out_shape, plan)
    y += bias.data[None, :, None, None]

    def backward(g: np.ndarray) -> None:
        gq = _to_phases(g, plan)
        if x.requires_grad:
            x.accumulate_grad(_conv2d_raw(gq, weight.data, plan), owned=True)
        if weight.requires_grad:
            gw = _conv2d_grad_w(gq, _pitched(x.data, plan), plan, spec.kernel)
            weight.accumulate_grad(gw, owned=True)
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(0, 2, 3)), owned=True)
    return Tensor._make(y, (x, weight, bias), backward)


def avg_pool2d(x: Tensor, window: tuple[int, int] = (2, 2),
               stride: tuple[int, int] = (2, 2)) -> Tensor:
    """Non-overlapping average pooling; backward spreads gradient uniformly."""
    window = _pair(window)
    stride = _pair(stride)
    if window != stride:
        raise ValueError("avg_pool2d supports window == stride only")
    if x.ndim != 4:
        raise ValueError(f"expected [N,C,H,W] input, got shape {x.shape}")
    n, c, h, w = x.shape
    wh, ww = window
    if h % wh or w % ww:
        raise ValueError(f"spatial extents {h}x{w} not divisible by window {wh}x{ww}")
    inv = 1.0 / (wh * ww)
    # summing strided views is far cheaper than a mean over a 6-D reshape
    y = np.zeros((n, c, h // wh, w // ww), dtype=x.dtype)
    for a in range(wh):
        for b in range(ww):
            y += x.data[:, :, a::wh, b::ww]
    y *= inv

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            gi = g * inv
            gx = np.empty(x.shape, dtype=gi.dtype)
            for a in range(wh):
                for b in range(ww):
                    gx[:, :, a::wh, b::ww] = gi
            x.accumulate_grad(gx, owned=True)
    return Tensor._make(y, (x,), backward)
