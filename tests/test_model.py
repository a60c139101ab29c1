import collections
import contextlib
import ctypes
import dataclasses
import gc
import importlib
import os
import subprocess
import sys
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest

from irunet import layers, metrics, model, rng
from irunet.layers import conv2d
from irunet.model import (ModelConfig, build_params, forward, inception_block,
                          inception_reduction_block, layer_specs, param_count)
from irunet.tensor import Tensor, concat_channels, no_grad, observe_ops

from conftest import blas_kernel, forward_with_latent, received_grads

GOLDEN_DEFAULT_PARAM_COUNT = 133_971

SMALL = ModelConfig(input_channels=3, base_width=4, stage_widths=(6, 8, 10, 12),
                    branch_width=2)


def rand64(seed, shape, requires_grad=False, low=0.0, high=1.0):
    vals = rng.uniform(seed, int(np.prod(shape))) * (high - low) + low
    return Tensor(vals.reshape(shape), requires_grad=requires_grad, dtype=np.float64)


def zero_layers(params, names):
    for name in names:
        lp = params[name]
        lp.weight.data[...] = 0.0
        lp.bias.data[...] = 0.0


class TestModelConfig:
    def test_default_is_valid(self):
        ModelConfig()

    def test_bad_stage_count(self):
        with pytest.raises(ValueError, match="4 entries"):
            ModelConfig(stage_widths=(8, 16, 24))

    def test_descending_widths_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            ModelConfig(stage_widths=(24, 16, 32, 64))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(base_width=0)

    def test_numpy_integers_build_the_same_config(self):
        config = ModelConfig(base_width=np.int64(16), stage_widths=np.array([24, 32, 48, 64]),
                             sigma_high=np.int32(50))
        assert config == ModelConfig() and hash(config) == hash(ModelConfig())
        values = [getattr(config, f.name) for f in dataclasses.fields(config)]
        assert all(type(v) is int for v in values if v is not config.stage_widths)
        assert all(type(v) is int for v in config.stage_widths)
        for bad in (dict(base_width=16.0), dict(stage_widths=(24, 32, 48, 64.0))):
            with pytest.raises(TypeError):
                ModelConfig(**bad)

    def test_replace_validates(self):
        with pytest.raises(ValueError, match="sigma range"):
            dataclasses.replace(SMALL, sigma_low=60)

    def test_shared_specs_cannot_be_assigned(self):
        params = build_params(SMALL, 9, dtype=np.float64)
        x = rand64(40, (1, 3, 16, 16))
        with no_grad():
            before = forward(x, SMALL, params).data
        for _, spec in layer_specs(SMALL):
            for f in dataclasses.fields(spec):
                value = not spec.relu if f.name == "relu" else getattr(spec, f.name)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(spec, f.name, value)
        with no_grad():
            assert np.array_equal(forward(x, SMALL, params).data, before)


class TestInceptionBlock:
    def test_output_shape_equals_input(self):
        params = build_params(SMALL, 3, dtype=np.float64)
        for shape in [(1, 6, 8, 8), (2, 6, 16, 12)]:
            x = rand64(rng.hash64("inc", *map(int, shape)), shape)
            with no_grad():
                out = inception_block(x, params, "enc1.inc")
            assert out.shape == shape

    def test_zero_main_path_is_identity(self):
        params = build_params(SMALL, 3, dtype=np.float64)
        zero_layers(params, ["enc1.inc.b1", "enc1.inc.b2", "enc1.inc.b3", "enc1.inc.reduce"])
        x = rand64(11, (1, 6, 8, 8))
        with no_grad():
            out = inception_block(x, params, "enc1.inc")
        assert np.array_equal(out.data, x.data)

    def test_shortcut_gradient_with_zero_main_path(self):
        params = build_params(SMALL, 3, dtype=np.float64)
        zero_layers(params, ["enc1.inc.b1", "enc1.inc.b2", "enc1.inc.b3", "enc1.inc.reduce"])
        x = rand64(12, (1, 6, 8, 8), requires_grad=True)
        inception_block(x, params, "enc1.inc").sum().backward()
        assert np.array_equal(x.grad, np.ones(x.shape))

    def test_channel_mismatch_rejected(self):
        params = build_params(SMALL, 3, dtype=np.float64)
        with pytest.raises(ValueError, match="channel"):
            inception_block(rand64(13, (1, 5, 8, 8)), params, "enc1.inc")


class TestReductionBlock:
    def test_halves_spatial_extent(self):
        params = build_params(SMALL, 3, dtype=np.float64)
        x = rand64(14, (2, 4, 32, 32))
        with no_grad():
            out = inception_reduction_block(x, params, "enc1.red")
        assert out.shape == (2, 6, 16, 16)

    def test_zero_conv_weights_gives_shortcut(self):
        params = build_params(SMALL, 3, dtype=np.float64)
        zero_layers(params, ["enc1.red.b1", "enc1.red.b2", "enc1.red.reduce"])
        x = Tensor(np.full((1, 4, 8, 8), 0.37), dtype=np.float64)
        with no_grad():
            out = inception_reduction_block(x, params, "enc1.red")
            lp = params["enc1.red.shortcut"]
            shortcut = conv2d(x, lp.spec, lp)
        assert np.array_equal(out.data, shortcut.data)

    def test_odd_extents_rejected(self):
        params = build_params(SMALL, 3, dtype=np.float64)
        with pytest.raises(ValueError, match="even"):
            inception_reduction_block(rand64(15, (1, 4, 7, 8)), params, "enc1.red")


class TestForward:
    def test_shape_and_latent_96(self):
        params = build_params(SMALL, 4, dtype=np.float64)
        x = rand64(16, (1, 3, 96, 96))
        with no_grad():
            z, latent = forward_with_latent(x, SMALL, params)
        assert z.shape == (1, 3, 96, 96)
        assert latent.shape == (1, 12, 6, 6)
        assert np.all(z.data > 0.0) and np.all(z.data < 1.0)

    @pytest.mark.parametrize("size", [16, 32, 48, 96])
    def test_spatial_contract(self, size):
        params = build_params(SMALL, 5, dtype=np.float64)
        x = rand64(rng.hash64("sz", size), (1, 3, size, size))
        with no_grad():
            z, latent = forward_with_latent(x, SMALL, params)
        assert z.shape == x.shape
        assert latent.shape[2:] == (size // 16, size // 16)

    def test_indivisible_extent_rejected(self):
        params = build_params(SMALL, 6, dtype=np.float64)
        with pytest.raises(ValueError, match="divisible"):
            forward(rand64(17, (1, 3, 40, 32)), SMALL, params)

    def test_wrong_channels_rejected(self):
        params = build_params(SMALL, 6, dtype=np.float64)
        with pytest.raises(ValueError, match="channel"):
            forward(rand64(18, (1, 4, 32, 32)), SMALL, params)

    def test_every_parameter_participates(self):
        # no orphans: backward reaches every weight and bias; the chosen seed
        # also keeps every relu branch alive so all gradients are nonzero
        params = build_params(SMALL, 7, dtype=np.float64)
        x = rand64(19, (1, 3, 48, 48))
        forward(x, SMALL, params).mean().backward()
        for name, t in params.named_tensors().items():
            assert t.grad is not None, f"no gradient reached {name}"
            assert np.any(t.grad != 0.0), f"gradient identically zero for {name}"

    def test_skip_connections_carry_gradient(self):
        # mirror the forward wiring to hold the encoder taps, prove the mirror
        # exact, then inspect the taps' gradients
        params = build_params(SMALL, 8, dtype=np.float64)
        x = rand64(20, (1, 3, 32, 32), requires_grad=True)

        from irunet.model import _apply

        cur = _apply(x, params["head"]).relu()
        skips = [cur]
        for i in range(1, 5):
            cur = inception_reduction_block(cur, params, f"enc{i}.red")
            cur = inception_block(cur, params, f"enc{i}.inc")
            if i < 4:
                skips.append(cur)
        taps = list(skips)
        for i in range(1, 5):
            cur = _apply(cur, params[f"dec{i}.up"])
            cur = concat_channels([cur, skips.pop()])
            cur = _apply(cur, params[f"dec{i}.merge"]).relu()
            cur = inception_block(cur, params, f"dec{i}.inc")
        z = _apply(cur, params["tail"]).sigmoid()

        with no_grad():
            z_ref = forward(Tensor(x.data.copy(), dtype=np.float64), SMALL, params)
        assert np.array_equal(z.data, z_ref.data)

        tap_grads = [received_grads(tap) for tap in taps]
        z.mean().backward()
        for i, grads in enumerate(tap_grads):
            assert grads and np.any(grads[0] != 0.0), f"skip {i} unreached"


# three default-model forwards at 1x3x64x64; prints the minor faults of the third
REPEATED_FORWARD_FAULTS = """
import resource
import numpy as np
from irunet import rng
from irunet.model import ModelConfig, build_params, forward
from irunet.tensor import Tensor, no_grad

config = ModelConfig()
params = build_params(config, 1)
x = Tensor(rng.uniform(5, 3 * 64 * 64).reshape(1, 3, 64, 64).astype(np.float32))
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with no_grad():
        forward(x, config, params)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestFreedHeap:
    def test_repeated_forward_reuses_freed_heap(self):
        pytest.importorskip("resource")
        try:
            has_mallopt = hasattr(ctypes.CDLL(None), "mallopt")
        except (OSError, TypeError):
            has_mallopt = False
        if not has_mallopt:
            pytest.skip("no mallopt in this C library")
        # a fresh process: any forward earlier in this one has already set the allocator
        src = os.path.dirname(os.path.dirname(model.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", REPEATED_FORWARD_FAULTS], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        assert int(out.stdout) < 50

    def test_every_caller_runs_the_one_forward(self):
        # perfbench's tracer patches forward under each of these names
        train = importlib.import_module("irunet.train")  # the package's `train` is the function
        assert train.forward is model.forward
        assert metrics.forward is model.forward


class TestFusedLayers:
    def test_op_hook_sees_each_relu_layer_unclamped(self):
        config = ModelConfig()
        relu_layers = [(name, spec) for name, spec in layer_specs(config) if spec.relu]
        assert len(relu_layers) == 49
        params = build_params(config, 10, dtype=np.float64)
        seen = []

        def observer(op, fn, args):
            out = fn(*args)
            if op == "conv2d" and args[1].relu:
                x, spec, lp = args
                pre = fn(x, dataclasses.replace(spec, relu=False), lp).data
                assert np.array_equal(out.data, np.maximum(pre, 0))  # the fused layer clamps it
                seen.append((lp.name, pre))
            return out

        with no_grad(), observe_ops(observer):
            forward(rand64(21, (1, 3, 16, 16)), config, params)
        # forward order is layer_specs order
        assert [name for name, _ in seen] == [name for name, _ in relu_layers]
        assert [a.shape[1] for _, a in seen] == [spec.out_channels for _, spec in relu_layers]
        assert all(np.any(a < 0) for _, a in seen)

    def test_layers_called_through_three_argument_signature(self, monkeypatch):
        # the benchmark's tracer replaces these two functions with wrappers that
        # take exactly (x, spec, params) and wrap the output's backward closure
        fwd_calls, bwd_calls = [], []

        def strict(fn):
            def wrapper(x, spec, params):
                out = fn(x, spec, params)
                fwd_calls.append(params.name)
                inner = out._backward

                def backward(g):
                    bwd_calls.append(params.name)
                    inner(g)
                out._backward = backward
                return out
            return wrapper

        monkeypatch.setattr(model, "conv2d", strict(model.conv2d))
        monkeypatch.setattr(model, "transposed_conv2d", strict(model.transposed_conv2d))
        params = build_params(SMALL, 11, dtype=np.float64)
        forward(rand64(22, (1, 3, 16, 16), requires_grad=True), SMALL, params).mean().backward()
        names = [name for name, _ in layer_specs(SMALL)]
        assert fwd_calls == names
        assert sorted(bwd_calls) == sorted(names)

    def test_pooling_and_concat_called_through_one_argument_signature(self, monkeypatch):
        # the tracer also replaces these two, with wrappers of (x) and (parts); an
        # executor that reached them another way would leave their timings at 0
        calls = collections.Counter()

        def counting(fn):
            def wrapper(arg):
                out = fn(arg)
                calls[fn.__name__] += 1
                inner = out._backward

                def backward(g):
                    calls[f"{fn.__name__} backward"] += 1
                    inner(g)
                out._backward = backward
                return out
            return wrapper

        monkeypatch.setattr(model, "avg_pool2d", counting(model.avg_pool2d))
        monkeypatch.setattr(model, "concat_channels", counting(model.concat_channels))
        params = build_params(SMALL, 11, dtype=np.float64)
        forward(rand64(22, (1, 3, 16, 16), requires_grad=True), SMALL, params).mean().backward()
        # a pooling in each reduction block; a concat in each of the 8 inception,
        # 4 reduction and 4 decoder blocks
        assert calls == {"avg_pool2d": 4, "avg_pool2d backward": 4,
                         "concat_channels": 16, "concat_channels backward": 16}


@mock.patch.object(layers, "sharing_maps", contextlib.nullcontext)
def compose(x, config, params):
    """model.forward's network built from the block functions, with no conv sharing maps."""
    cur = model._apply(x, params["head"])
    skips = [cur]
    for i in range(1, 5):
        cur = inception_reduction_block(cur, params, f"enc{i}.red")
        cur = inception_block(cur, params, f"enc{i}.inc")
        if i < 4:
            skips.append(cur)
    for i in range(1, 5):
        cur = model._apply(cur, params[f"dec{i}.up"])
        cur = concat_channels([cur, skips.pop()])
        cur = model._apply(cur, params[f"dec{i}.merge"])
        cur = inception_block(cur, params, f"dec{i}.inc")
    return model._apply(cur, params["tail"]).sigmoid()


class TestOpHook:
    def test_recording_observer_sees_every_op_of_a_training_pass(self):
        params = build_params(SMALL, 12, dtype=np.float64)
        calls = []

        def record(op, fn, args):
            calls.append((op, args[2].name if op.endswith("conv2d") else None))
            return fn(*args)

        x = rand64(23, (1, 3, 16, 16), requires_grad=True)
        with observe_ops(record):
            forward(x, SMALL, params).mean().backward()
        assert [name for _, name in calls if name] == [name for name, _ in layer_specs(SMALL)]
        counts = collections.Counter(op for op, _ in calls)
        assert (counts["avg_pool2d"], counts["concat_channels"], counts["backward"]) == (4, 16, 1)
        assert set(counts) == {"conv2d", "transposed_conv2d", "avg_pool2d", "concat_channels",
                               "backward"}

    def test_pass_through_observer_changes_nothing(self):
        params = build_params(SMALL, 13, dtype=np.float64)
        runs = []
        for hook in (contextlib.nullcontext(), observe_ops(lambda op, fn, args: fn(*args))):
            x = rand64(24, (2, 3, 16, 16), requires_grad=True)
            with hook:
                z = forward(x, SMALL, params)
                z.mean().backward()
            runs.append([z.data, x.grad] + [t.grad for t in params.named_tensors().values()])
            params.zero_grad()
        assert all(np.array_equal(a, b) for a, b in zip(*runs))


def concat_calls(x, config, params):
    """forward(), and each concat_channels call in it as (its parts, its output)."""
    calls = []

    def record(op, fn, args):
        out = fn(*args)
        if op == "concat_channels":
            calls.append((list(args[0]), out))
        return out

    with observe_ops(record):
        forward(x, config, params)
    return calls


class TestActivationsStoredOnce:
    """A recorded concat rebinds its op-output parts to views of its output."""

    def test_recorded_forward_stores_every_concat_part_once(self):
        x = Tensor(rng.uniform(30, 2 * 3 * 32 * 32).reshape(2, 3, 32, 32).astype(np.float32))
        calls = concat_calls(x, SMALL, build_params(SMALL, 18))
        assert len(calls) == 16
        for parts, out in calls:
            # every part in the model is an op output: a conv, pooling, or residual add
            assert all(p._backward is not None for p in parts)
            assert all(np.shares_memory(p.data, out.data) for p in parts)
            assert sum(p.shape[1] for p in parts) == out.shape[1]

    def test_no_grad_forward_rebinds_nothing(self):
        x = Tensor(rng.uniform(31, 3 * 32 * 32).reshape(1, 3, 32, 32).astype(np.float32))
        with no_grad():
            calls = concat_calls(x, SMALL, build_params(SMALL, 18))
        assert len(calls) == 16
        assert not any(np.shares_memory(p.data, out.data) for parts, out in calls for p in parts)

    def test_recorded_graph_holds_no_reference_cycle(self):
        # with the cycle collector off, dropping the output must free every op output
        params = build_params(SMALL, 19)
        x = Tensor(rng.uniform(32, 2 * 3 * 32 * 32).reshape(2, 3, 32, 32).astype(np.float32))
        outputs = []

        def record(op, fn, args):
            out = fn(*args)
            outputs.append(weakref.ref(out))
            return out

        gc.collect()
        gc.disable()
        try:
            with observe_ops(record):
                z = forward(x, SMALL, params)
            del z
            assert len(outputs) == len(layer_specs(SMALL)) + 4 + 16
            assert all(ref() is None for ref in outputs)
        finally:
            gc.enable()

    @staticmethod
    def conv_outputs(x, params):
        """forward() and each conv2d output in it, by layer name."""
        outputs = {}

        def record(op, fn, args):
            out = fn(*args)
            if op == "conv2d":
                outputs[args[2].name] = out
            return out

        with observe_ops(record):
            z = forward(x, SMALL, params)
        return z, outputs

    def test_recorded_forward_releases_residual_addends_and_tail(self):
        params = build_params(SMALL, 18)
        x = Tensor(rng.uniform(35, 2 * 3 * 32 * 32).reshape(2, 3, 32, 32).astype(np.float32))
        z, outputs = self.conv_outputs(x, params)
        released = sorted(name for name, out in outputs.items() if out.size == 0)
        assert released == sorted(name for name, _ in layer_specs(SMALL)
                                  if name.endswith((".reduce", ".shortcut")) or name == "tail")
        assert all(outputs[name].dtype == np.float32 for name in released)
        z.mean().backward()

    def test_no_grad_forward_keeps_every_value(self):
        params = build_params(SMALL, 18)
        x = Tensor(rng.uniform(36, 3 * 32 * 32).reshape(1, 3, 32, 32).astype(np.float32))
        with no_grad():
            _, outputs = self.conv_outputs(x, params)
        assert len(outputs) == len(layer_specs(SMALL)) - 4  # all but the transposed convs
        assert all(out.ndim == 4 and out.size > 0 for out in outputs.values())
        for name in ("enc1.red.shortcut", "dec4.inc.reduce", "tail"):
            assert np.any(outputs[name].data != 0)

    def test_recorded_forward_frees_every_concat_part_array(self):
        # a skip's encoder convs rebuild its maps from the tensor in backward, so
        # its own array goes once the decoder's concat rebinds it to a view
        params = build_params(SMALL, 18)
        x = Tensor(rng.uniform(34, 2 * 3 * 32 * 32).reshape(2, 3, 32, 32).astype(np.float32))
        arrays = []

        def record(op, fn, args):
            if op == "concat_channels":
                arrays.extend(weakref.ref(p.data) for p in args[0])
            return fn(*args)

        with observe_ops(record):
            z = forward(x, SMALL, params)
        assert len(arrays) == 8 * 3 + 4 * (2 + 3)
        assert [ref() for ref in arrays] == [None] * len(arrays)
        z.mean().backward()

    def test_graph_dropped_without_backward_frees_its_memory(self):
        config = ModelConfig()
        params = build_params(config, 20)
        x = Tensor(rng.uniform(33, 3 * 64 * 64).reshape(1, 3, 64, 64).astype(np.float32))
        forward(x, config, params)  # plans and caches
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            z = forward(x, config, params)
            held = tracemalloc.get_traced_memory()[0] - start
            del z
            left = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held > 2 << 20  # the graph held its activations
        assert left < 64 << 10


class TestMemoryGuard:
    """Deterministic tracemalloc bounds on the default model's activations."""

    def test_live_bytes_after_a_recorded_forward(self):
        config = ModelConfig()
        params = build_params(config, 21)
        x = Tensor(rng.uniform(34, 8 * 3 * 64 * 64).reshape(8, 3, 64, 64).astype(np.float32))
        forward(x, config, params)  # plans and caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            z = forward(x, config, params)
            live = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert z.requires_grad
        # 20.6 MiB; 27.2 when the residual addends and tail kept their values,
        # 30.3 when the encoder convs kept the skips' arrays, 39.8 when each
        # concat part kept its own array
        assert live <= 21 << 20

    def test_peak_bytes_of_a_recorded_forward_and_backward(self):
        config = ModelConfig()
        params = build_params(config, 21)
        shape = (8, 3, 64, 64)
        x = Tensor(rng.uniform(34, 8 * 3 * 64 * 64).reshape(shape).astype(np.float32))
        clean = Tensor(rng.uniform(36, 8 * 3 * 64 * 64).reshape(shape).astype(np.float32))
        metrics.mae_loss(forward(x, config, params), clean).backward()  # plans and caches
        params.zero_grad()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            metrics.mae_loss(forward(x, config, params), clean).backward()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # 26.4 MiB; 28.0 when each conv summed the whole batch's input gradient
        # before cropping it; 31.0 when every backward copied the gradient it
        # passed on or allocated a sibling's input gradient to add; 35.4 when
        # the residual addends and tail kept their values
        assert peak <= 27 << 20

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv_input_gradient_is_summed_one_image_group_at_a_time(self, stride):
        # One backward of a relu-fused 3x3 conv whose input already has a
        # gradient. Inside sharing_maps() the forward's maps stay, as they do for
        # a branch whose sibling rebuilt them, so the backward holds the pitched
        # output gradient, one image group's sums and one tap's partial sums,
        # plus numpy's own buffers; never a whole-batch phase gradient (2.06 MiB
        # at stride 1, where the backward peaked 3.66 MiB above its inputs).
        spec = layers.ConvSpec(16, 8, stride=stride, relu=True)
        params = layers.init_params(spec, 23)
        x = Tensor(rng.uniform(39, 8 * 16 * 64 * 64).reshape(8, 16, 64, 64).astype(np.float32),
                   requires_grad=True)
        plan = layers._plan(64, 64, spec)
        rows = plan.cuts[0][1][0]
        length = (rows.stop - rows.start) * plan.wq
        images = layers._blocks(8, 16, length)[0][0]
        group = (images.stop - images.start) * 16 * length * 4
        assert images.stop < 8  # the batch is more than one group
        for _ in range(2):  # the first run plans and caches
            with layers.sharing_maps():
                out = conv2d(x, spec, params)
                x.grad = np.zeros(x.shape, dtype=np.float32)
                g = rng.uniform(40, out.size).reshape(out.shape).astype(np.float32) - 0.5
                pitched = layers._pitched(g, plan).nbytes
                tracemalloc.start()
                try:
                    start = tracemalloc.get_traced_memory()[0]
                    out._backward(g)
                    peak = tracemalloc.get_traced_memory()[1] - start
                finally:
                    tracemalloc.stop()
        # stride 1: 1.63 MiB, 3.66 before; stride 2: 1.02 MiB, 1.31 before
        assert peak <= pitched + 2 * group + (256 << 10)

    def test_recorded_step_copies_only_concat_parts_and_second_addends(self, monkeypatch):
        # every other gradient goes owned to its tensor or is added into its .grad
        one = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
        add_code = (one + Tensor(np.ones((1, 1, 1, 1)), requires_grad=True))._backward.__code__
        concat_code = concat_channels([one])._backward.__code__
        copies = collections.Counter()
        accumulate = Tensor.accumulate_grad

        def counting(t, g, owned=False):
            if t.grad is None and not owned:
                caller = sys._getframe(1)
                if caller.f_code is add_code:
                    copies["second addend" if caller.f_locals["o"] is t else "first"] += 1
                else:
                    copies["concat part" if caller.f_code is concat_code else "other"] += 1
            accumulate(t, g, owned)
        monkeypatch.setattr(Tensor, "accumulate_grad", counting)
        params = build_params(SMALL, 24, dtype=np.float64)
        x = rand64(37, (2, 3, 32, 32), requires_grad=True)
        metrics.mae_loss(forward(x, SMALL, params), rand64(38, x.shape)).backward()
        # one per residual add (8 inception, 4 reduction blocks); one per part
        # of the inception (3), reduction (3) and decoder (2) concats
        assert copies == {"second addend": 8 + 4, "concat part": 8 * 3 + 4 * 3 + 4 * 2}

    @staticmethod
    def no_grad_peak_per_pixel(size):
        config = ModelConfig()
        params = build_params(config, 22)
        x = Tensor(rng.uniform(35, 3 * size * size).reshape(1, 3, size, size).astype(np.float32))
        assert size * size > model._BAND_PIXELS  # both banded stages run in bands
        with no_grad():
            forward(x, config, params)  # plans and caches
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                forward(x, config, params)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        return peak / (size * size)

    def test_no_grad_forward_peak_per_pixel(self):
        # 121.5 B/px; 186 before head -> enc1.red ran in bands and each band
        # recomputed the head skip, 213 when blocks kept their branches to the end
        assert self.no_grad_peak_per_pixel(256) <= 125

    def test_no_grad_forward_peak_per_pixel_at_512(self):
        # 97.0 B/px; 161 before head -> enc1.red ran in bands and each band
        # recomputed the head skip
        assert self.no_grad_peak_per_pixel(512) <= 100


class TestBlockScope:
    """A block called directly shares its input's maps among its own branches."""

    @staticmethod
    def builds_of_input(monkeypatch, block, x, prefix):
        # the non-disjoint map builds (3x3 branches) of the block's input, in forward and backward
        builds = []
        to_phases = layers._to_phases

        def counting(a, plan):
            if a is x.data and not plan.disjoint:
                builds.append(plan.layout)
            return to_phases(a, plan)
        monkeypatch.setattr(layers, "_to_phases", counting)
        out = block(x, build_params(SMALL, 17, dtype=np.float64), prefix)
        forward_builds = list(builds)
        builds.clear()
        out.sum().backward()
        return forward_builds, builds

    def test_inception_block_builds_its_input_maps_once(self, monkeypatch):
        x = rand64(41, (2, 6, 8, 8), requires_grad=True)
        fwd, bwd = self.builds_of_input(monkeypatch, inception_block, x, "enc1.inc")
        assert len(fwd) == len(bwd) == 1

    def test_reduction_block_builds_its_input_maps_once(self, monkeypatch):
        x = rand64(42, (2, 4, 8, 8), requires_grad=True)
        fwd, bwd = self.builds_of_input(monkeypatch, inception_reduction_block, x, "enc1.red")
        assert len(fwd) == len(bwd) == 1


class TestSharedMaps:
    def test_one_map_per_block_input_per_pass(self, monkeypatch):
        builds = []
        to_phases = layers._to_phases

        def counting(x, plan):
            builds.append((x, plan))  # holding x keeps every id distinct
            return to_phases(x, plan)
        monkeypatch.setattr(layers, "_to_phases", counting)
        params = build_params(SMALL, 12)
        x = Tensor(rng.uniform(23, 2 * 3 * 32 * 32).reshape(2, 3, 32, 32).astype(np.float32),
                   requires_grad=True)
        z = forward(x, SMALL, params)
        forward_builds = list(builds)
        builds.clear()
        z.mean().backward()
        for calls in (forward_builds, builds):
            # the 3x3 convs read the maps of head, tail and each inception or reduction input
            maps = [(id(a), plan.hq, plan.wq) for a, plan in calls if not plan.disjoint]
            assert len(maps) == len(set(maps)) == 1 + 4 + 8 + 1

    def test_forward_maps_are_freed_before_each_concat(self, monkeypatch):
        # a block drops its input's shared map after its last sibling conv, so
        # no map outlives the siblings into the block's concat_channels
        refs, live_at_concat = [], []
        to_phases, concat = layers._to_phases, model.concat_channels

        def recording(x, plan):
            xq = to_phases(x, plan)
            if not plan.disjoint:
                refs.append(weakref.ref(xq))
            return xq

        def checking(parts):
            live_at_concat.append(sum(ref() is not None for ref in refs))
            return concat(parts)
        monkeypatch.setattr(layers, "_to_phases", recording)
        monkeypatch.setattr(model, "concat_channels", checking)
        params = build_params(SMALL, 15)
        x = Tensor(rng.uniform(27, 2 * 3 * 32 * 32).reshape(2, 3, 32, 32).astype(np.float32),
                   requires_grad=True)
        forward(x, SMALL, params)  # with a graph, whose backward closures hold the maps' slot
        assert len(refs) == 1 + 4 + 8 + 1 and live_at_concat == [0] * 16

    def test_only_the_head_stacks_its_taps(self, monkeypatch):
        stacked = []

        def recording(x, spec, params):
            if layers._plan(x.shape[2], x.shape[3], spec).stacked:
                stacked.append(params.name)
            return conv2d(x, spec, params)
        monkeypatch.setattr(model, "conv2d", recording)
        config = ModelConfig()
        x = Tensor(rng.uniform(28, 3 * 32 * 32).reshape(1, 3, 32, 32).astype(np.float32))
        with no_grad():
            forward(x, config, build_params(config, 16))
        # the transposed convs are 2x2 stride 2, whose taps never overlap
        assert stacked == ["head"]

    def test_input_changed_in_place_between_forwards(self):
        params = build_params(SMALL, 13)
        x = Tensor(rng.uniform(24, 3 * 32 * 32).reshape(1, 3, 32, 32).astype(np.float32))
        with no_grad():
            forward(x, SMALL, params)
            x.data[...] = rng.uniform(25, x.size).reshape(x.shape)
            again = forward(x, SMALL, params)
            fresh = forward(Tensor(x.data.copy()), SMALL, params)
        assert np.array_equal(again.data, fresh.data)

    def test_forward_equals_the_unshared_composition(self):
        x_data = rng.uniform(26, 2 * 3 * 32 * 32).reshape(2, 3, 32, 32).astype(np.float32)
        results = []
        for build in (lambda x, params: forward(x, SMALL, params), lambda x, params:
                      compose(x, SMALL, params)):
            params = build_params(SMALL, 14)
            x = Tensor(x_data.copy(), requires_grad=True)
            z = build(x, params)
            z.mean().backward()
            results.append([z.data, x.grad] + [t.grad for t in params.named_tensors().values()])
        for a, b in zip(*results):
            assert np.array_equal(a, b)


class TestRowBands:
    """Under no_grad, head -> enc1.red and the full-resolution stage run in row bands."""

    @pytest.fixture
    def heights(self):
        """The input height of each conv call, by layer name: head and tail once per band."""
        heights = collections.defaultdict(list)

        def recording(op, fn, args):
            if op == "conv2d":
                heights[args[2].name].append(args[0].shape[2])
            return fn(*args)
        with observe_ops(recording):
            yield heights

    @staticmethod
    def banded(x_data, config, params, monkeypatch, band_pixels):
        monkeypatch.setattr(model, "_BAND_PIXELS", band_pixels)
        with no_grad():
            return forward(Tensor(x_data), config, params).data

    @staticmethod
    def halos(config):
        """Each banded stretch's halo, read off the network table: x -> enc1.red, then -> tail."""
        net = model._network(config)
        return model._halo(net, "enc1.red", {"x"}), model._halo(net, "tail", {"x", "dec3.inc"})

    @staticmethod
    def band_heights(h, band_rows, halo):
        """Rows each band of a stage reads: at least 4 halos of its own, a halo each side."""
        rows = max(band_rows, 4 * halo, model._BAND_STEP) // model._BAND_STEP * model._BAND_STEP
        return [min(r0 + rows + halo, h) - max(r0 - halo, 0) for r0 in range(0, h, rows)]

    @pytest.mark.parametrize("config, shape, band_rows", [
        (ModelConfig(), (1, 3, 336, 80), 64),  # five full bands and a short last one
        (ModelConfig(), (2, 3, 160, 96), 48),
        (ModelConfig(), (1, 3, 208, 32), 40),  # not a multiple of the band height
        (dataclasses.replace(SMALL, kernel=5), (1, 3, 112, 16), 24),  # halos 4 and 8
        (dataclasses.replace(SMALL, kernel=1), (1, 3, 32, 16), 2),  # no halo
        (ModelConfig(), (1, 3, 64, 32), 32),  # two bands, one at each image edge
        (ModelConfig(), (2, 3, 32, 16), 28),  # a last band of 4 rows
        (dataclasses.replace(SMALL, dilation_rate=3), (1, 3, 96, 16), 32),  # halos 4 and 8
        (dataclasses.replace(SMALL, kernel=7), (1, 3, 128, 16), 32),  # halos 8 and 12
    ])
    def test_bands_equal_one_band(self, config, shape, band_rows, heights, monkeypatch):
        params = build_params(config, 17)
        h, w = shape[2:]
        x_data = rng.uniform(rng.hash64("bands", *shape), int(np.prod(shape))).reshape(
            shape).astype(np.float32)
        whole = self.banded(x_data, config, params, monkeypatch, h * w)
        assert heights["head"] == heights["enc1.red.shortcut"] == heights["tail"] == [h]
        heights.clear()
        banded = self.banded(x_data, config, params, monkeypatch, band_rows * w)
        entry, full = (self.band_heights(h, band_rows, halo) for halo in self.halos(config))
        assert len(full) > 1 and len(entry) > 1
        assert heights["enc1.red.shortcut"] == entry
        assert heights["tail"] == full
        assert heights["head"] == entry + full  # the skip is recomputed in each band
        assert banded.dtype == whole.dtype
        assert np.array_equal(banded, whole), (
            f"{np.count_nonzero(banded != whole)} values differ from one pass "
            f"under the OpenBLAS {blas_kernel()} kernel")

    def test_halo_covers_dec4_inc_and_tail(self):
        # per stage, its convs' reach rounded up to a multiple of 4: head and enc1.red's
        # strided convs; head (each band recomputes the skip), dec4.inc's widest branch, tail
        # (3, 3) and (7, 1) are the cases whose halos change if head's reach is dropped
        halos = [self.halos(ModelConfig(kernel=k, dilation_rate=d))
                 for k, d in ((3, 2), (3, 1), (5, 2), (2, 2), (1, 2), (3, 3), (7, 1))]
        assert halos == [(4, 4), (4, 4), (4, 8), (4, 4), (0, 0), (4, 8), (8, 12)]

    def test_full_resolution_concats_hold_one_band_and_its_halo(self, monkeypatch):
        config = ModelConfig()
        h, w = 512, 64
        rows = model._BAND_PIXELS // w
        assert rows < h  # the default budget bands this image
        heights = []
        concat = model.concat_channels

        def recording(parts):
            if parts[0].shape[3] == w:
                heights.append(parts[0].shape[2])
            return concat(parts)
        monkeypatch.setattr(model, "concat_channels", recording)
        x = Tensor(rng.uniform(29, 3 * h * w).reshape(1, 3, h, w).astype(np.float32))
        with no_grad():
            forward(x, config, build_params(config, 18))
        # each band concats twice: dec4's skip and dec4.inc's branches
        assert len(heights) == 2 * -(-h // rows)
        assert max(heights) <= rows + 2 * self.halos(config)[1]

    def test_head_and_enc1_red_calls_hold_one_band_and_its_halo(self):
        config = ModelConfig()
        h, w = 512, 128
        rows = model._BAND_PIXELS // w
        assert rows < h  # the default budget bands this image
        calls = []

        def recording(op, fn, args):
            name = args[2].name if op == "conv2d" else ""
            if name == "head" or name.startswith("enc1.red") or (
                    op == "avg_pool2d" and args[0].shape[3] == w):
                calls.append((name, args[0].shape[2] * w // args[0].shape[3]))  # image rows
            return fn(*args)
        x = Tensor(rng.uniform(36, 3 * h * w).reshape(1, 3, h, w).astype(np.float32))
        with no_grad(), observe_ops(recording):
            forward(x, config, build_params(config, 23))
        entry_halo, full_halo = self.halos(config)
        heads = [rows_in for name, rows_in in calls if name == "head"]
        entry = [rows_in for name, rows_in in calls if name != "head"]
        assert len(heads) == 2 * -(-h // rows)  # once per band of each stage
        assert len(entry) == 5 * -(-h // rows)  # b1, b2, the pooling, reduce, shortcut
        assert max(heads) <= rows + 2 * full_halo
        assert max(entry) <= rows + 2 * entry_halo

    def test_a_forward_that_records_a_graph_runs_one_band(self, heights, monkeypatch):
        params = build_params(SMALL, 19)
        x_data = rng.uniform(30, 3 * 64 * 16).reshape(1, 3, 64, 16).astype(np.float32)
        monkeypatch.setattr(model, "_BAND_PIXELS", 16 * 16)
        z = forward(Tensor(x_data), SMALL, params)
        assert heights["head"] == heights["tail"] == [64] and z.requires_grad
        banded = self.banded(x_data, SMALL, params, monkeypatch, 16 * 16)
        assert len(heights["tail"]) > 2 and np.array_equal(banded, z.data)

    def test_a_graph_through_the_tail_alone_runs_one_band(self, heights, monkeypatch):
        # the decision is made before head runs, from every parameter: a graph
        # that starts at tail still records
        params = build_params(SMALL, 20)
        for name, t in params.named_tensors().items():
            t.requires_grad = name.startswith("tail.")
        x_data = rng.uniform(37, 3 * 64 * 16).reshape(1, 3, 64, 16).astype(np.float32)
        monkeypatch.setattr(model, "_BAND_PIXELS", 16 * 16)
        z = forward(Tensor(x_data), SMALL, params)
        assert heights["tail"] == [64] and z.requires_grad
        z.mean().backward()
        assert params["tail"].weight.grad is not None and params["head"].weight.grad is None


class TestParamCount:
    def test_network_table_built_once_per_config_values(self):
        model._network.cache_clear()
        params = build_params(SMALL, 9, dtype=np.float64)
        with no_grad():
            for _ in range(2):
                forward(rand64(39, (1, 3, 16, 16)), SMALL, params)
        assert model._network.cache_info().misses == 1
        assert model._network(dataclasses.replace(SMALL)) is model._network(SMALL)
        wider = dataclasses.replace(SMALL, branch_width=3)
        assert model._network(wider) is not model._network(SMALL)
        assert model._network.cache_info().misses == 2
        assert param_count(wider) != param_count(SMALL)

    def test_golden_default(self):
        assert param_count(ModelConfig()) == GOLDEN_DEFAULT_PARAM_COUNT

    def test_within_budget(self):
        assert param_count(ModelConfig()) <= 150_000

    def test_matches_param_store(self):
        params = build_params(SMALL, 9)
        assert sum(t.size for t in params.named_tensors().values()) == param_count(SMALL)

    def test_doubling_law_for_width_parameterized_convs(self):
        # doubling every width field quadruples 1x1-conv weight counts and
        # doubles their biases (head/tail touch the fixed 3-channel image and
        # scale by 2 instead); the total matches the analytic per-layer sum
        cfg = ModelConfig()
        doubled = ModelConfig(base_width=32, stage_widths=(48, 64, 96, 128),
                              branch_width=16)
        for (name1, s1), (name2, s2) in zip(layer_specs(cfg), layer_specs(doubled)):
            assert name1 == name2
            if s1.kernel == (1, 1):
                assert int(np.prod(s2.weight_shape)) == 4 * int(np.prod(s1.weight_shape))
                assert s2.out_channels == 2 * s1.out_channels
        for config in (cfg, doubled):
            analytic = sum(int(np.prod(s.weight_shape)) + s.out_channels
                           for _, s in layer_specs(config))
            assert param_count(config) == analytic

    def test_deterministic(self):
        assert param_count(ModelConfig()) == param_count(ModelConfig())

    def test_unique_names(self):
        names = [name for name, _ in layer_specs(ModelConfig())]
        assert len(names) == len(set(names))
