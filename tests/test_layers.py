import contextlib
import dataclasses
import weakref

import numpy as np
import pytest

from irunet import layers, rng
from irunet.layers import (ConvSpec, LayerParams, avg_pool2d, conv2d, conv_output_size,
                           glorot_bound, init_params, transposed_conv2d)
from irunet.tensor import Tensor, concat_channels, no_grad


def make_layer(spec, weight, bias=None, name="test"):
    w = np.asarray(weight, dtype=np.float64).reshape(spec.weight_shape)
    b = np.zeros(spec.bias_shape) if bias is None else np.asarray(bias, dtype=np.float64)
    return LayerParams(name, spec, Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))


def rand64(seed, shape, requires_grad=True):
    vals = rng.uniform(seed, int(np.prod(shape))) * 2.0 - 1.0
    return Tensor(vals.reshape(shape), requires_grad=requires_grad, dtype=np.float64)


class TestConv2d:
    def test_one_by_one_scaling(self):
        spec = ConvSpec(1, 1, kernel=1)
        lp = make_layer(spec, [2.0])
        x = Tensor(np.ones((1, 1, 3, 3)), dtype=np.float64)
        with no_grad():
            out = conv2d(x, spec, lp)
        assert np.array_equal(out.data, np.full((1, 1, 3, 3), 2.0))

    def test_identity_kernel(self):
        spec = ConvSpec(1, 1, kernel=3)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        lp = make_layer(spec, w)
        x = rand64(1, (1, 1, 5, 6), requires_grad=False)
        with no_grad():
            out = conv2d(x, spec, lp)
        assert np.array_equal(out.data, x.data)

    def test_valid_direct_summation(self):
        spec = ConvSpec(1, 1, kernel=2, padding="valid")
        lp = make_layer(spec, np.ones((1, 1, 2, 2)))
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]), dtype=np.float64)
        with no_grad():
            out = conv2d(x, spec, lp)
        assert out.data.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 10.0

    def test_bias_added_per_channel(self):
        spec = ConvSpec(1, 2, kernel=1)
        lp = make_layer(spec, [1.0, 1.0], bias=[0.5, -0.5])
        x = Tensor(np.zeros((1, 1, 2, 2)), dtype=np.float64)
        with no_grad():
            out = conv2d(x, spec, lp)
        assert np.array_equal(out.data[0, 0], np.full((2, 2), 0.5))
        assert np.array_equal(out.data[0, 1], np.full((2, 2), -0.5))

    def test_channel_mismatch_rejected(self):
        spec = ConvSpec(3, 4, kernel=3)
        lp = init_params(spec, 0, dtype=np.float64)
        with pytest.raises(ValueError, match="channel"):
            conv2d(rand64(2, (1, 2, 8, 8)), spec, lp)

    def test_bias_shape_mismatch_rejected(self):
        # a (1,) bias would otherwise broadcast over all four output channels
        spec = ConvSpec(3, 4, kernel=3)
        lp = make_layer(spec, init_params(spec, 0, dtype=np.float64).weight.data, bias=[0.5])
        with pytest.raises(ValueError, match=r"bias shape \(1,\) does not match spec \(4,\)"):
            conv2d(rand64(2, (1, 3, 8, 8)), spec, lp)

    def test_numpy_integers_build_the_same_spec(self):
        spec = ConvSpec(np.int64(16), np.int32(8), kernel=np.int64(3),
                        stride=(np.int64(2), 2), dilation=np.uint8(1))
        plain = ConvSpec(16, 8, kernel=3, stride=2)
        assert spec == plain and hash(spec) == hash(plain)
        assert all(type(v) is int for v in (spec.in_channels, spec.out_channels, *spec.kernel,
                                            *spec.stride, *spec.dilation))
        for bad in (dict(kernel=3.0), dict(stride=(2, 2.0)), dict(in_channels=16.0)):
            with pytest.raises(TypeError):
                ConvSpec(**{"in_channels": 16, "out_channels": 8, **bad})

    def test_valid_padding_too_small_rejected(self):
        spec = ConvSpec(1, 1, kernel=5, padding="valid")
        lp = init_params(spec, 0, dtype=np.float64)
        with pytest.raises(ValueError, match="valid"):
            conv2d(rand64(3, (1, 1, 3, 3)), spec, lp)

    def test_dilation_equals_zero_inflated_kernel(self):
        # equivalence oracle: dilated 3x3 == 5x5 kernel with zero-inflated taps
        x = rand64(4, (1, 2, 7, 7), requires_grad=False)
        spec_d = ConvSpec(2, 3, kernel=3, dilation=2)
        lp_d = init_params(spec_d, 99, dtype=np.float64)
        inflated = np.zeros((3, 2, 5, 5))
        inflated[:, :, ::2, ::2] = lp_d.weight.data
        spec_i = ConvSpec(2, 3, kernel=5)
        with no_grad():
            a = conv2d(x, spec_d, lp_d)
            b = conv2d(x, spec_i, make_layer(spec_i, inflated))
        assert np.array_equal(a.data, b.data)

    def test_same_padding_shape_law(self):
        # out == ceil(in / stride) across kernel/stride/dilation combinations
        for trial in range(60):
            u = rng.uniform(rng.hash64("shape-law", trial), 5)
            k = 1 + int(u[0] * 4)
            s = 1 + int(u[1] * 3)
            d = 1 + int(u[2] * 3)
            h = 1 + int(u[3] * 12)
            w = 1 + int(u[4] * 12)
            spec = ConvSpec(1, 1, kernel=k, stride=s, dilation=d)
            lp = init_params(spec, trial, dtype=np.float64)
            with no_grad():
                out = conv2d(rand64(trial, (1, 1, h, w), requires_grad=False), spec, lp)
            assert out.shape == (1, 1, -(-h // s), -(-w // s))

    def test_asymmetric_padding_goes_bottom_right(self):
        # 2x2 kernel, same padding on even input: one pad column/row, at bottom/right
        spec = ConvSpec(1, 1, kernel=2)
        lp = make_layer(spec, np.ones((1, 1, 2, 2)))
        x = Tensor(np.ones((1, 1, 2, 2)), dtype=np.float64)
        with no_grad():
            out = conv2d(x, spec, lp)
        # windows at (0,0),(0,1),(1,0),(1,1); padding only below/right
        assert np.array_equal(out.data[0, 0], np.array([[4.0, 2.0], [2.0, 1.0]]))

    def test_gradients_match_finite_differences(self):
        spec = ConvSpec(2, 3, kernel=3, stride=2, dilation=1)
        lp = init_params(spec, 7, dtype=np.float64)
        x = rand64(8, (1, 2, 6, 5))
        proj = rng.uniform(101, 3 * 3 * 3).reshape(1, 3, 3, 3) * 2.0 - 1.0

        def loss():
            with no_grad():
                return float(np.sum(conv2d(x, spec, lp).data * proj))

        out = conv2d(x, spec, lp)
        (out * Tensor(proj, dtype=np.float64)).sum().backward()
        step = 1e-5
        for t in (x, lp.weight, lp.bias):
            flat = t.data.reshape(-1)
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                f_plus = loss()
                flat[i] = orig - step
                f_minus = loss()
                flat[i] = orig
                fd[i] = (f_plus - f_minus) / (2 * step)
            ad = t.grad.reshape(-1)
            scale = max(np.abs(ad).max(), np.abs(fd).max(), 1e-12)
            assert np.abs(ad - fd).max() / scale < 1e-6


def direct_conv(x, w, stride, dilation, padding, proj):
    """Python-loop convolution: output, and the weight and input gradients of sum(out * proj)."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    (sh, sw), (dh, dw) = stride, dilation
    eff_h, eff_w = (kh - 1) * dh + 1, (kw - 1) * dw + 1
    if padding == "same":
        oh, ow = -(-h // sh), -(-wd // sw)
        pt = max((oh - 1) * sh + eff_h - h, 0) // 2
        pl = max((ow - 1) * sw + eff_w - wd, 0) // 2
    else:
        oh, ow = (h - eff_h) // sh + 1, (wd - eff_w) // sw + 1
        pt = pl = 0
    y = np.zeros((n, o, oh, ow))
    gw = np.zeros(w.shape)
    gx = np.zeros(x.shape)
    for b in range(n):
        for oy in range(oh):
            for ox in range(ow):
                for i in range(kh):
                    for j in range(kw):
                        r, col = oy * sh + i * dh - pt, ox * sw + j * dw - pl
                        if 0 <= r < h and 0 <= col < wd:
                            y[b, :, oy, ox] += w[:, :, i, j] @ x[b, :, r, col]
                            gw[:, :, i, j] += np.outer(proj[b, :, oy, ox], x[b, :, r, col])
                            gx[b, :, r, col] += w[:, :, i, j].T @ proj[b, :, oy, ox]
    return y, gw, gx


ORACLE_SIZES = ((5, 5), (6, 6), (5, 8), (7, 6))


class TestDirectSummationOracle:
    # every kernel/stride/dilation/padding combination on odd, even and non-square maps
    GEOMETRIES = [(k, s, d, pad) for k in (1, 2, 3) for s in (1, 2) for d in (1, 2)
                  for pad in ("same", "valid")]

    @pytest.fixture(autouse=True, params=["whole", "split"])
    def block(self, request, monkeypatch):
        # "split" shrinks the tap-sum block so each map is swept in many pieces,
        # some of which end mid-row, as large maps are
        if request.param == "split":
            monkeypatch.setattr(layers, "_BLOCK", 5)

    @pytest.mark.parametrize("k,s,d,pad", GEOMETRIES)
    def test_conv2d_forward_and_gradients(self, k, s, d, pad):
        seed = rng.hash64("oracle", k, s, d, pad)
        u = rng.uniform(seed, 2)
        cin, cout = 1 + int(u[0] * 3), 1 + int(u[1] * 3)
        h, w = ORACLE_SIZES[seed % len(ORACLE_SIZES)]
        spec = ConvSpec(cin, cout, kernel=k, stride=s, dilation=d, padding=pad)
        lp = init_params(spec, rng.hash64(seed, "w"), dtype=np.float64)
        x = rand64(rng.hash64(seed, "x"), (2, cin, h, w))
        out = conv2d(x, spec, lp)
        proj = rand64(rng.hash64(seed, "p"), out.shape, requires_grad=False)
        (out * proj).sum().backward()
        y, gw, gx = direct_conv(x.data, lp.weight.data, spec.stride, spec.dilation, pad, proj.data)
        assert out.shape == y.shape
        assert np.abs(out.data - y).max() <= 1e-12
        assert np.abs(lp.weight.grad - gw).max() <= 1e-12
        assert np.abs(x.grad - gx).max() <= 1e-12

    @pytest.mark.parametrize("k,s,d", sorted({g[:3] for g in GEOMETRIES}))
    def test_transposed_conv2d_forward(self, k, s, d):
        # the transposed conv scatters each input pixel through the kernel:
        # the input gradient of the same-padded conv on the upsampled grid
        seed = rng.hash64("oracle-t", k, s, d)
        u = rng.uniform(seed, 2)
        cin, cout = 1 + int(u[0] * 3), 1 + int(u[1] * 3)
        h, w = ORACLE_SIZES[seed % len(ORACLE_SIZES)]
        tspec = ConvSpec(cin, cout, kernel=k, stride=s, dilation=d, transposed=True)
        lp = init_params(tspec, rng.hash64(seed, "w"), dtype=np.float64)
        x = rand64(rng.hash64(seed, "x"), (2, cin, h, w), requires_grad=False)
        with no_grad():
            out = transposed_conv2d(x, tspec, lp)
        _, _, expected = direct_conv(np.zeros((2, cout, h * s, w * s)), lp.weight.data,
                                     tspec.stride, tspec.dilation, "same", x.data)
        assert np.abs(out.data - expected).max() <= 1e-12


class TestWideAndTinyOracle:
    """Geometries past the shared stride-1 margin of 2, and maps smaller than the margin."""

    # stride-1 pads wider than the margin: 3x3 at dilation 3, 5x5 at dilation 2
    WIDE = [(3, 1, 3, (5, 6)), (5, 1, 2, (6, 5)), (5, 1, 1, (5, 7))]
    # 1x1, 1x3 and 2x1 maps under kernels whose padding exceeds them
    TINY = [(k, s, d, size) for k, s, d in ((3, 1, 1), (3, 1, 2), (3, 1, 3), (2, 1, 2),
                                             (3, 2, 1), (3, 2, 2))
            for size in ((1, 1), (1, 3), (2, 1))]

    @pytest.fixture(autouse=True, params=["whole", "split"])
    def block(self, request, monkeypatch):
        if request.param == "split":
            monkeypatch.setattr(layers, "_BLOCK", 5)

    @pytest.mark.parametrize("k,s,d,size", WIDE + TINY)
    def test_conv2d_forward_and_gradients(self, k, s, d, size):
        seed = rng.hash64("oracle-edge", k, s, d, *size)
        spec = ConvSpec(2, 3, kernel=k, stride=s, dilation=d)
        lp = init_params(spec, rng.hash64(seed, "w"), dtype=np.float64)
        x = rand64(rng.hash64(seed, "x"), (2, 2) + size)
        out = conv2d(x, spec, lp)
        proj = rand64(rng.hash64(seed, "p"), out.shape, requires_grad=False)
        (out * proj).sum().backward()
        y, gw, gx = direct_conv(x.data, lp.weight.data, spec.stride, spec.dilation, "same",
                                proj.data)
        assert out.shape == y.shape
        assert np.abs(out.data - y).max() <= 1e-12
        assert np.abs(lp.weight.grad - gw).max() <= 1e-12
        assert np.abs(x.grad - gx).max() <= 1e-12


def oracle_gap(got, expected):
    """Largest difference relative to the expected values' magnitude (at least 1)."""
    return np.abs(got - expected).max() / max(1.0, np.abs(expected).max())


class TestStackedTaps:
    """Stride-1, dilation-1 kernels up to 3x3 on at most 4 channels: one GEMM over the taps."""

    SIZES = ((1, 1), (2, 2), (5, 5), (4, 7), (6, 3))
    KERNELS = ((3, 3), (2, 2), (1, 3), (3, 2), (2, 1))

    @pytest.fixture(autouse=True, params=["whole", "split"])
    def block(self, request, monkeypatch):
        if request.param == "split":
            monkeypatch.setattr(layers, "_BLOCK", 50)

    @staticmethod
    def check(spec, x_shape, dtype, seed):
        """conv2d against direct_conv: output, weight and input gradients; returns the plan."""
        lp = init_params(spec, rng.hash64(seed, "w"), dtype=dtype)
        lp.bias.data[...] = rng.uniform(rng.hash64(seed, "b"), spec.out_channels) - 0.5
        x = Tensor((rng.uniform(rng.hash64(seed, "x"), int(np.prod(x_shape))) * 2 - 1)
                   .reshape(x_shape), requires_grad=True, dtype=dtype)
        out = conv2d(x, spec, lp)
        proj = rand64(rng.hash64(seed, "p"), out.shape, requires_grad=False).data
        (out * Tensor(proj.astype(dtype))).sum().backward()
        y, gw, gx = direct_conv(x.data.astype(np.float64), lp.weight.data.astype(np.float64),
                                spec.stride, spec.dilation, spec.padding,
                                proj.astype(dtype).astype(np.float64))
        y += lp.bias.data.astype(np.float64)[None, :, None, None]
        tol = 1e-12 if dtype == np.float64 else 2e-6
        assert out.dtype == lp.weight.grad.dtype == dtype
        assert oracle_gap(out.data, y) <= tol
        assert oracle_gap(lp.weight.grad, gw) <= tol
        assert oracle_gap(x.grad, gx) <= tol
        return layers._plan(x_shape[2], x_shape[3], spec)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cin", [1, 2, 3, 4])
    @pytest.mark.parametrize("size", SIZES)
    def test_against_direct_summation(self, dtype, cin, size):
        seed = rng.hash64("stacked", cin, *size, np.dtype(dtype).name)
        kernel = self.KERNELS[seed % len(self.KERNELS)]
        fits = size[0] >= kernel[0] and size[1] >= kernel[1]
        pad = "valid" if fits and seed % 3 == 0 else "same"
        batch = 8 if seed % 2 else 1
        spec = ConvSpec(cin, 1 + seed % 5, kernel=kernel, padding=pad)
        assert self.check(spec, (batch, cin) + size, dtype, seed).stacked

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maps_wider_than_one_block(self, dtype, block, monkeypatch):
        buffers = []
        stacks = layers._stacks

        def recording(xq, plan, rows):
            for bn, bk, stack in stacks(xq, plan, rows):
                buffers.append(stack.base)
                yield bn, bk, stack
        monkeypatch.setattr(layers, "_stacks", recording)
        spec = ConvSpec(4, 8, kernel=3)
        plan = self.check(spec, (2, 4, 48, 48), dtype, 7)
        # even at the default block size each image is swept in several blocks
        assert plan.stacked and len(layers._blocks(1, 9 * 4 + 8, plan.length)) > 1
        # forward and weight gradient: one stack buffer each, never past one block
        assert len({id(b) for b in buffers}) == 2
        assert all(b.size <= layers._BLOCK for b in buffers)

    def test_the_geometry_decides(self, block):
        stacked = [ConvSpec(4, 16, kernel=3), ConvSpec(1, 1, kernel=2, padding="valid"),
                   ConvSpec(3, 2, kernel=(1, 3))]
        per_tap = [ConvSpec(5, 16, kernel=3), ConvSpec(3, 16, kernel=3, dilation=2),
                   ConvSpec(3, 16, kernel=3, stride=2), ConvSpec(3, 16, kernel=5),
                   ConvSpec(3, 16, kernel=(1, 4)), ConvSpec(3, 16, kernel=1)]
        assert [layers._plan(9, 8, spec).stacked for spec in stacked + per_tap] == \
            [True] * len(stacked) + [False] * len(per_tap)

    def test_dilated_kernels_equal_their_zero_inflated_twins(self, block):
        # wherever both run per tap, the zero taps add exact zeros in tap order
        checked = 0
        for trial in range(240):
            u = rng.uniform(rng.hash64("inflate", trial), 7)
            k, d, s = 2 + int(u[0] * 2), 2 + int(u[1] * 2), 1 + int(u[2] * 2)
            cin = 1 + int(u[3] * 6)
            e = (k - 1) * d + 1
            pad = "valid" if u[4] < 0.3 else "same"
            low = e if pad == "valid" else 1
            h, w = low + int(u[5] * 8), low + int(u[6] * 8)
            dtype = (np.float32, np.float64)[trial % 2]
            spec_d = ConvSpec(cin, 3, kernel=k, stride=s, dilation=d, padding=pad)
            spec_i = ConvSpec(cin, 3, kernel=e, stride=s, padding=pad)
            if layers._plan(h, w, spec_i).stacked:
                continue  # a 3x3 inflation of 2x2 at dilation 2 on <= 4 channels
            lp_d = init_params(spec_d, rng.hash64(trial, "w"), dtype=dtype)
            inflated = np.zeros(spec_i.weight_shape, dtype=dtype)
            inflated[:, :, ::d, ::d] = lp_d.weight.data
            lp_i = LayerParams("i", spec_i, Tensor(inflated, requires_grad=True),
                               Tensor(lp_d.bias.data.copy(), requires_grad=True))
            x_data = (rng.uniform(rng.hash64(trial, "x"), cin * h * w) * 2 - 1).reshape(
                1, cin, h, w).astype(dtype)
            results = []
            for spec, lp, taps in ((spec_d, lp_d, 1), (spec_i, lp_i, d)):
                x = Tensor(x_data.copy(), requires_grad=True)
                out = conv2d(x, spec, lp)
                proj = rand64(rng.hash64(trial, "p"), out.shape, requires_grad=False)
                (out * Tensor(proj.data.astype(dtype))).sum().backward()
                results.append((out.data, x.grad, lp.weight.grad[:, :, ::taps, ::taps],
                                lp.bias.grad))
            for a, b in zip(*results):
                assert np.array_equal(a, b)
            checked += 1
        assert checked >= 200


@pytest.mark.parametrize("shape", [(1, 3, 256, 256), (8, 3, 64, 64), (1, 3, 96, 160)])
def test_stack_copies_each_tap_window(shape):
    # the model's head: each block's stack holds the nine tap windows, one below the other
    spec = ConvSpec(3, 16, kernel=3, relu=True)
    plan = layers._plan(shape[2], shape[3], spec)
    x = rng.uniform(rng.hash64("stack", *shape), int(np.prod(shape))).reshape(shape)
    xq = layers._to_phases(x.astype(np.float32), plan)
    c, rows = shape[1], 9 * 3 + 16
    blocks = []
    for bn, bk, stack in layers._stacks(xq, plan, rows):  # one buffer, refilled per block
        per_tap = np.concatenate([xq[bn, 0, :, off + bk.start:off + bk.stop]
                                  for _, off in plan.taps], axis=1)
        assert np.array_equal(stack, per_tap)
        blocks.append((bn, bk))
    assert plan.stacked and blocks == layers._blocks(shape[0], rows, plan.length)


class TestPitchedSpan:
    """The pitched output gradient holds exactly the windows the gradients read.

    Every kernel reads it through the plan's lead and span, the tap windows and
    a disjoint plan's one GEMM alike, so a wider buffer gives equal results.
    """

    @staticmethod
    def grads(run, monkeypatch, margin):
        # widen every plan's pitched buffer by `margin` zeros on each side
        plan_for = layers._plan.__wrapped__

        def wide(*args):
            plan = plan_for(*args)
            return dataclasses.replace(plan, lead=plan.lead + margin, span=plan.span + 2 * margin)
        monkeypatch.setattr(layers, "_plan", wide)
        return run()

    @staticmethod
    def conv_run(spec, seed, transposed=False):
        def run():
            lp = init_params(spec, rng.hash64(seed, "w"), dtype=np.float32)
            shape = (2, spec.in_channels) + ORACLE_SIZES[seed % len(ORACLE_SIZES)]
            x = Tensor(rng.uniform(rng.hash64(seed, "x"), int(np.prod(shape))).reshape(shape),
                       requires_grad=True, dtype=np.float32)
            out = (transposed_conv2d if transposed else conv2d)(x, spec, lp)
            proj = rng.uniform(rng.hash64(seed, "p"), out.size).reshape(out.shape)
            (out * Tensor(proj, dtype=np.float32)).sum().backward()
            return [out.data, x.grad, lp.weight.grad, lp.bias.grad]
        return run

    GEOMETRIES = sorted({g[:3] for g in TestDirectSummationOracle.GEOMETRIES})

    @pytest.mark.parametrize("k,s,d", GEOMETRIES)
    @pytest.mark.parametrize("transposed", [False, True])
    def test_gradients_equal_with_a_wider_buffer(self, k, s, d, transposed, monkeypatch):
        seed = rng.hash64("span", k, s, d, transposed)
        spec = ConvSpec(3, 5, kernel=k, stride=s, dilation=d, transposed=transposed)
        run = self.conv_run(spec, seed, transposed)
        for a, b in zip(run(), self.grads(run, monkeypatch, 7)):
            assert np.array_equal(a, b)

    def test_shared_layout_span(self):
        # 3x3: from one row and a pixel above the output to one row and a pixel below
        for h, w in ((7, 5), (64, 64)):
            plan = layers._plan(h, w, ConvSpec(8, 8, kernel=3))
            assert (plan.lead, plan.span) == (plan.wq + 1, (h + 2) * plan.wq + 2)


class TestSharedMaps:
    @staticmethod
    def branches(seed):
        # the three branch geometries of an inception block: one shared layout
        return [init_params(ConvSpec(3, 2, kernel=3, dilation=d), rng.hash64(seed, i),
                            name=f"b{i}", dtype=np.float64)
                for i, d in enumerate((1, 1, 2))]

    @staticmethod
    def run(x_data, lps, scope):
        # the forward inside `scope`, the backward after it, as model.forward runs them
        x = Tensor(x_data.copy(), requires_grad=True)
        with scope():
            outs = [conv2d(x, lp.spec, lp) for lp in lps]
        concat_channels(outs).sum().backward()
        return [o.data for o in outs] + [x.grad] + [lp.weight.grad for lp in lps]

    def test_siblings_build_once_per_pass_with_equal_results(self, monkeypatch):
        x_data = rand64(31, (2, 3, 7, 5)).data
        alone = self.run(x_data, self.branches(1), contextlib.nullcontext)
        builds = []
        to_phases = layers._to_phases

        def counting(x, plan):
            builds.append(x)
            return to_phases(x, plan)
        monkeypatch.setattr(layers, "_to_phases", counting)
        shared = self.run(x_data, self.branches(1), layers.sharing_maps)
        assert len(builds) == 2  # once in forward, once in backward
        for a, b in zip(alone, shared):
            assert np.array_equal(a, b)

    def test_another_array_of_the_same_layout_builds_its_own(self):
        lp = self.branches(3)[0]
        a, b = rand64(34, (1, 3, 6, 6)), rand64(35, (1, 3, 6, 6))
        with no_grad():
            with layers.sharing_maps():
                conv2d(a, lp.spec, lp)
                shared = conv2d(b, lp.spec, lp)
            alone = conv2d(b, lp.spec, lp)
        assert np.array_equal(shared.data, alone.data)

    def test_direct_calls_see_in_place_input_changes(self):
        lp = self.branches(2)[2]
        x = rand64(32, (1, 3, 6, 6))
        conv2d(x, lp.spec, lp)
        x.data[...] = rand64(33, x.shape).data
        with no_grad():
            again = conv2d(x, lp.spec, lp)
            fresh = conv2d(Tensor(x.data.copy()), lp.spec, lp)
        assert np.array_equal(again.data, fresh.data)


class TestSiblingGradients:
    """Layers reading one input add their input gradients into its one `.grad` array."""

    @pytest.mark.parametrize("geometries, pool", [
        ([dict(kernel=3), dict(kernel=3), dict(kernel=3, dilation=2)], False),  # inception
        ([dict(kernel=3, stride=2), dict(kernel=3, stride=2), dict(kernel=1, stride=2)], True),
        ([dict(kernel=1)] * 3, False),  # the input gradient is the GEMM's output itself
    ])
    def test_siblings_keep_one_input_gradient_array(self, geometries, pool, monkeypatch):
        lps = [init_params(ConvSpec(3, 2, relu=True, **g), rng.hash64("siblings", i),
                           dtype=np.float64) for i, g in enumerate(geometries)]
        apply = [lambda t, lp=lp: conv2d(t, lp.spec, lp) for lp in lps] + [avg_pool2d] * pool
        x_data = rand64(44, (2, 3, 8, 6)).data
        x = Tensor(x_data.copy(), requires_grad=True)
        outs = [f(x) for f in apply]
        held, handed = [], []
        for out in outs:
            inner = out._backward

            def backward(g, inner=inner):
                inner(g)
                held.append(x.grad)
            out._backward = backward
        accumulate = Tensor.accumulate_grad

        def recording(t, g, owned=False):
            if t is x:
                handed.append(g)
            accumulate(t, g, owned)
        monkeypatch.setattr(Tensor, "accumulate_grad", recording)
        concat_channels(outs).sum().backward()
        assert len(held) == len(outs) and all(g is held[0] for g in held)
        assert handed == []  # no whole input gradient was allocated to be added
        alone = []  # each layer's input gradient on its own, summed
        for f in apply:
            xi = Tensor(x_data.copy(), requires_grad=True)
            f(xi).sum().backward()
            alone.append(xi.grad)
        assert np.allclose(x.grad, sum(alone), rtol=1e-13, atol=1e-13)


class TestChannelSliceInputs:
    """A recorded concat rebinds its parts to channel slices of its output (concat_channels)."""

    @staticmethod
    def run(spec, x, seed, rebind=False):
        lp = init_params(spec, seed, name="l", dtype=np.float64)
        out = conv2d(x, spec, lp)
        if rebind:
            # as a recorded concat does: the same values, now a slice of a wider
            # array; the conv holds its input tensor, not the array, so it is freed
            original = weakref.ref(x.data)
            x.data = np.concatenate([x.data, x.data[:, :1]], axis=1)[:, :-1]
            assert original() is None
        out.sum().backward()
        return [out.data, x.grad, lp.weight.grad, lp.bias.grad]

    @pytest.mark.parametrize("geometry, layout", [
        (dict(kernel=3, padding="valid"), "stacked view"),  # _stacks copies windows of the input
        (dict(kernel=1), "view"),
        (dict(kernel=3, stride=2), "phases"),
        (dict(kernel=3, dilation=2), "phases"),
    ])
    def test_conv_reads_a_channel_slice_view(self, geometry, layout):
        spec = ConvSpec(3, 4, **geometry)
        wide = rand64(40, (2, 5, 9, 8)).data
        view = wide[:, 1:4]
        plan = layers._plan(9, 8, spec)
        assert plan.is_view == ("view" in layout) and plan.stacked == ("stacked" in layout)
        assert np.shares_memory(layers._to_phases(view, plan), wide) == plan.is_view
        x, contiguous = Tensor(view, requires_grad=True), Tensor(view, requires_grad=True)
        x.data = view  # Tensor() copies it contiguous
        for a, b in zip(self.run(spec, x, 41), self.run(spec, contiguous, 41)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("geometry", [dict(kernel=3), dict(kernel=3, stride=2), dict(kernel=1)])
    def test_backward_rebuilds_maps_from_the_rebound_input(self, geometry):
        spec = ConvSpec(3, 4, **geometry)
        data = rand64(42, (2, 3, 8, 8)).data
        rebound = self.run(spec, Tensor(data.copy(), requires_grad=True), 43, rebind=True)
        for a, b in zip(rebound, self.run(spec, Tensor(data.copy(), requires_grad=True), 43)):
            assert np.array_equal(a, b)


# the relu geometries the model uses: 3x3, 3x3 dilation 2, 3x3 stride 2, 1x1
RELU_GEOMETRIES = [dict(kernel=3), dict(kernel=3, dilation=2), dict(kernel=3, stride=2),
                   dict(kernel=1)]


def copy_layer(lp, spec):
    return LayerParams(lp.name, spec, Tensor(lp.weight.data.copy(), requires_grad=True),
                       Tensor(lp.bias.data.copy(), requires_grad=True))


class TestFusedRelu:
    """conv2d with relu=True against the composed conv2d(relu=False).relu(), in float64."""

    @staticmethod
    def specs(geometry, cin=3, cout=3):
        return (ConvSpec(cin, cout, relu=True, **geometry),
                ConvSpec(cin, cout, relu=False, **geometry))

    @staticmethod
    def layer(spec, seed):
        lp = init_params(spec, seed, name=f"l{seed}", dtype=np.float64)
        # nonzero biases move some outputs across the kink
        lp.bias.data[...] = rng.uniform(rng.hash64(seed, "b"), spec.out_channels) * 0.6 - 0.3
        return lp

    @pytest.mark.parametrize("geometry", RELU_GEOMETRIES)
    def test_forward_bit_identical(self, geometry):
        fused, plain = self.specs(geometry)
        lp = self.layer(fused, 1)
        x = rand64(rng.hash64("fused-fwd", str(geometry)), (2, 3, 8, 6), requires_grad=False)
        with no_grad():
            a = conv2d(x, fused, lp)
            b = conv2d(x, plain, copy_layer(lp, plain)).relu()
        assert np.any(a.data == 0.0) and np.any(a.data > 0.0)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("geometry", RELU_GEOMETRIES)
    def test_gradients_bit_identical_with_shared_input(self, geometry):
        # as in the inception block: one input feeds three relu convs, whose
        # concat goes through a 1x1 reduce and a residual add of the input
        fused, plain = self.specs(geometry)
        reduce_spec = ConvSpec(9, 3, kernel=1)
        branches = [self.layer(fused, seed) for seed in (2, 3, 4)]
        reduce_lp = self.layer(reduce_spec, 5)
        x_data = rand64(rng.hash64("fused-bwd", str(geometry)), (2, 3, 8, 6)).data
        grads = []
        for spec in (fused, plain):
            x = Tensor(x_data.copy(), requires_grad=True)
            convs = [copy_layer(lp, spec) for lp in branches]
            red = copy_layer(reduce_lp, reduce_spec)
            outs = [conv2d(x, spec, lp) for lp in convs]
            if not spec.relu:
                outs = [o.relu() for o in outs]
            main = conv2d(concat_channels(outs), reduce_spec, red)
            skip = x if spec.stride == (1, 1) else avg_pool2d(x)
            out = main + skip
            proj = rand64(rng.hash64("fused-proj", str(geometry)), out.shape, requires_grad=False)
            (out * proj).sum().backward()
            tensors = [x, red.weight, red.bias] + [t for lp in convs for t in (lp.weight, lp.bias)]
            grads.append([t.grad for t in tensors])
        for a, b in zip(*grads):
            assert np.array_equal(a, b)
        # every gradient the fused graph holds is its own array
        fused_grads = grads[0]
        for i, a in enumerate(fused_grads):
            for b in fused_grads[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_transposed_relu_rejected(self):
        with pytest.raises(ValueError, match="relu"):
            ConvSpec(2, 2, kernel=2, stride=2, transposed=True, relu=True)

    def test_transposed_valid_padding_rejected(self):
        # its plan is the same-padded conv's, so "valid" would run as "same"
        with pytest.raises(ValueError, match="padding must be 'same'"):
            ConvSpec(2, 2, kernel=3, stride=2, transposed=True, padding="valid")


class TestRelease:
    """layers.release frees a recorded op output's values, keeping a relu conv's mask as bits."""

    @staticmethod
    def residual(x, relu_lp, plain_lp, release):
        # a block's tail: relu-fused conv + plain conv, added, both addends then released
        a, b = conv2d(x, relu_lp.spec, relu_lp), conv2d(x, plain_lp.spec, plain_lp)
        out = a + b
        if release:
            layers.release(a)
            layers.release(b)
        return out, a, b

    def test_gradients_bit_identical_after_release(self):
        # 2 x 3 x 5 x 7 outputs: 210 mask bits, not a whole number of bytes
        relu_lp = TestFusedRelu.layer(ConvSpec(3, 3, relu=True), 6)
        plain_lp = TestFusedRelu.layer(ConvSpec(3, 3, kernel=1), 7)
        grads = []
        for release in (False, True):
            x = rand64(rng.hash64("release", 1), (2, 3, 5, 7))
            out, a, b = self.residual(x, relu_lp, plain_lp, release)
            assert (a.data.shape, b.data.shape) == (((0,), (0,)) if release else (out.shape,) * 2)
            proj = rand64(rng.hash64("release", 2), out.shape, requires_grad=False)
            (out * proj).sum().backward()
            grads.append([x.grad] + [t.grad for lp in (relu_lp, plain_lp)
                                     for t in (lp.weight, lp.bias)])
            for lp in (relu_lp, plain_lp):
                lp.weight.zero_grad()
                lp.bias.zero_grad()
        assert np.any(grads[0][1] != 0)
        for a, b in zip(*grads):
            assert a.dtype == np.float64 and np.array_equal(a, b)

    def test_reading_a_released_value_fails(self):
        relu_lp = TestFusedRelu.layer(ConvSpec(3, 3, relu=True), 8)
        plain_lp = TestFusedRelu.layer(ConvSpec(3, 3, kernel=1), 9)
        out, a, b = self.residual(rand64(10, (1, 3, 4, 4)), relu_lp, plain_lp, True)
        assert a.dtype == b.dtype == np.float64 and a.size == b.size == 0
        with pytest.raises(ValueError, match="shape mismatch"):
            a + out
        with pytest.raises(ValueError, match=r"expected \[N,C,H,W\] input"):
            conv2d(b, relu_lp.spec, relu_lp)

    def test_no_grad_and_leaves_keep_their_values(self):
        relu_lp = TestFusedRelu.layer(ConvSpec(3, 3, relu=True), 11)
        plain_lp = TestFusedRelu.layer(ConvSpec(3, 3, kernel=1), 12)
        x = rand64(13, (1, 3, 4, 4))
        with no_grad():
            out, a, b = self.residual(x, relu_lp, plain_lp, True)
        assert not out.requires_grad
        assert np.array_equal(a.data + b.data, out.data)
        leaf = x.data.copy()
        layers.release(x)
        assert np.array_equal(x.data, leaf)


class TestTransposedConv2d:
    def test_single_tap(self):
        spec = ConvSpec(1, 1, kernel=2, stride=2, transposed=True)
        k = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        lp = make_layer(spec, k)
        x = Tensor(np.full((1, 1, 1, 1), 3.0), dtype=np.float64)
        with no_grad():
            out = transposed_conv2d(x, spec, lp)
        assert np.array_equal(out.data, 3.0 * k)

    def test_zero_weights_zero_output(self):
        spec = ConvSpec(3, 2, kernel=2, stride=2, transposed=True)
        lp = make_layer(spec, np.zeros(spec.weight_shape))
        with no_grad():
            out = transposed_conv2d(rand64(5, (1, 3, 4, 4), requires_grad=False), spec, lp)
        assert np.array_equal(out.data, np.zeros((1, 2, 8, 8)))

    def test_upsampling_shape(self):
        spec = ConvSpec(4, 2, kernel=2, stride=2, transposed=True)
        lp = init_params(spec, 1, dtype=np.float64)
        with no_grad():
            out = transposed_conv2d(rand64(6, (2, 4, 3, 5), requires_grad=False), spec, lp)
        assert out.shape == (2, 2, 6, 10)

    def test_channel_mismatch_rejected(self):
        spec = ConvSpec(4, 2, kernel=2, stride=2, transposed=True)
        lp = init_params(spec, 1, dtype=np.float64)
        with pytest.raises(ValueError, match="channel"):
            transposed_conv2d(rand64(7, (1, 3, 4, 4)), spec, lp)

    def test_bias_shape_mismatch_rejected(self):
        spec = ConvSpec(4, 2, kernel=2, stride=2, transposed=True)
        lp = make_layer(spec, init_params(spec, 1, dtype=np.float64).weight.data, bias=[0.5])
        with pytest.raises(ValueError, match=r"bias shape \(1,\) does not match spec \(2,\)"):
            transposed_conv2d(rand64(7, (1, 4, 4, 4)), spec, lp)

    def test_adjoint_identity_brute_force(self):
        # <conv(x), y> == <x, tconv(y)> on random geometry up to 4x4, 100 trials
        worst = 0.0
        for trial in range(100):
            h = rng.hash64("adjoint", trial)
            u = rng.uniform(h, 8)
            cin = 1 + int(u[0] * 3)
            cout = 1 + int(u[1] * 3)
            k = 1 + int(u[2] * 3)
            s = 1 + int(u[3] * 2)
            d = 1 + int(u[4] * 2)
            hh = s * (1 + int(u[5] * (4 // s - 1 + 1e-9)) if s <= 4 else 1)
            ww = s * (1 + int(u[6] * (4 // s - 1 + 1e-9)) if s <= 4 else 1)
            cspec = ConvSpec(cin, cout, kernel=k, stride=s, dilation=d)
            tspec = ConvSpec(cout, cin, kernel=k, stride=s, dilation=d, transposed=True)
            w = init_params(cspec, rng.hash64(h, "w"), dtype=np.float64).weight
            lp_c = LayerParams("c", cspec, w, Tensor(np.zeros(cout)))
            lp_t = LayerParams("t", tspec, Tensor(w.data.copy()), Tensor(np.zeros(cin)))
            x = rand64(rng.hash64(h, "x"), (1, cin, hh, ww), requires_grad=False)
            oh, ow = -(-hh // s), -(-ww // s)
            y = rand64(rng.hash64(h, "y"), (1, cout, oh, ow), requires_grad=False)
            with no_grad():
                cx = conv2d(x, cspec, lp_c)
                ty = transposed_conv2d(y, tspec, lp_t)
            worst = max(worst, abs(float(np.sum(cx.data * y.data))
                                   - float(np.sum(x.data * ty.data))))
        assert worst < 1e-10


class TestAvgPool:
    def test_window_mean(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]), dtype=np.float64)
        with no_grad():
            out = avg_pool2d(x)
        assert out.data[0, 0, 0, 0] == 2.5

    def test_constant_preserved(self):
        x = Tensor(np.full((2, 3, 4, 4), 7.25), dtype=np.float64)
        with no_grad():
            out = avg_pool2d(x)
        assert np.array_equal(out.data, np.full((2, 3, 2, 2), 7.25))

    def test_gradient_is_quarter_everywhere(self):
        x = rand64(9, (1, 2, 4, 4))
        avg_pool2d(x).sum().backward()
        assert np.array_equal(x.grad, np.full((1, 2, 4, 4), 0.25))

    def test_odd_extents_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            avg_pool2d(rand64(10, (1, 1, 3, 4)))


class TestInitParams:
    def test_deterministic(self):
        spec = ConvSpec(3, 8, kernel=3)
        a = init_params(spec, 123)
        b = init_params(spec, 123)
        assert np.array_equal(a.weight.data, b.weight.data)
        assert np.array_equal(a.bias.data, b.bias.data)

    def test_different_seed_differs(self):
        spec = ConvSpec(3, 8, kernel=3)
        assert not np.array_equal(init_params(spec, 1).weight.data,
                                  init_params(spec, 2).weight.data)

    def test_bias_all_zero(self):
        lp = init_params(ConvSpec(4, 4, kernel=3), 5)
        assert np.array_equal(lp.bias.data, np.zeros(4))

    def test_uniform_statistics(self):
        # n >= 1e4 draws: sample mean within 3 * L / sqrt(3n), values within [-L, L]
        spec = ConvSpec(32, 36, kernel=3)  # 32*36*9 = 10368 draws
        lp = init_params(spec, 77, dtype=np.float64)
        bound = glorot_bound(spec)
        n = lp.weight.size
        assert n >= 10_000
        assert np.abs(lp.weight.data).max() <= bound
        assert abs(float(lp.weight.data.mean())) <= 3.0 * bound / np.sqrt(3.0 * n)

    def test_weight_shape_follows_spec(self):
        assert init_params(ConvSpec(2, 5, kernel=3), 0).weight.shape == (5, 2, 3, 3)
        tspec = ConvSpec(2, 5, kernel=2, stride=2, transposed=True)
        assert init_params(tspec, 0).weight.shape == (2, 5, 2, 2)


class TestConvOutputSize:
    def test_same_is_ceil(self):
        assert conv_output_size(7, 3, 2, 1, "same") == 4
        assert conv_output_size(8, 3, 2, 1, "same") == 4

    def test_valid_requires_room(self):
        assert conv_output_size(5, 3, 1, 1, "valid") == 3
        with pytest.raises(ValueError):
            conv_output_size(2, 3, 1, 1, "valid")


class TestPlanCache:
    def test_equal_specs_share_one_plan(self):
        layers._plan.cache_clear()
        assert layers._plan(9, 8, ConvSpec(4, 8, kernel=3)) is layers._plan(9, 8, ConvSpec(4, 8))
        assert layers._plan.cache_info().misses == 1

    def test_transposed_spec_plans_the_conv_it_is_the_adjoint_of(self):
        # 3 channels into the adjoint conv: its plan stacks the taps, 8 would not
        adjoint = layers._plan(12, 10, ConvSpec(3, 8, kernel=3))
        assert adjoint.stacked
        assert layers._plan(12, 10, ConvSpec(8, 3, kernel=3, transposed=True)) == adjoint
