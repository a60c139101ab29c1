import ctypes
import importlib
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from irunet import layers, metrics, model, rng
from irunet.layers import conv2d
from irunet.model import (ModelConfig, build_params, forward, inception_block,
                          inception_reduction_block, layer_specs, param_count)
from irunet.tensor import Tensor, concat_channels, no_grad, observe_relu_inputs

from conftest import received_grads

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
        ModelConfig().validate()

    def test_bad_stage_count(self):
        with pytest.raises(ValueError, match="4 entries"):
            ModelConfig(stage_widths=(8, 16, 24))

    def test_descending_widths_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            ModelConfig(stage_widths=(24, 16, 32, 64))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(base_width=0)


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
            z, latent = forward(x, SMALL, params, return_latent=True)
        assert z.shape == (1, 3, 96, 96)
        assert latent.shape == (1, 12, 6, 6)
        assert np.all(z.data > 0.0) and np.all(z.data < 1.0)

    @pytest.mark.parametrize("size", [16, 32, 48, 96])
    def test_spatial_contract(self, size):
        params = build_params(SMALL, 5, dtype=np.float64)
        x = rand64(rng.hash64("sz", size), (1, 3, size, size))
        with no_grad():
            z, latent = forward(x, SMALL, params, return_latent=True)
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
    def test_relu_observer_sees_each_relu_layer_unclamped(self):
        config = ModelConfig()
        relu_specs = [spec for _, spec in layer_specs(config) if spec.relu]
        assert len(relu_specs) == 49
        params = build_params(config, 10, dtype=np.float64)
        seen = []
        with no_grad(), observe_relu_inputs(lambda a: seen.append(a.copy())):
            forward(rand64(21, (1, 3, 16, 16)), config, params)
        # forward order is layer_specs order, so the i-th array has the i-th relu layer's width
        assert [a.shape[1] for a in seen] == [spec.out_channels for spec in relu_specs]
        assert all(np.any(a < 0) for a in seen)

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


def compose(x, config, params):
    """model.forward's network built from the block functions, outside its map-sharing scope."""
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


class TestParamCount:
    def test_golden_default(self):
        assert param_count(ModelConfig()) == GOLDEN_DEFAULT_PARAM_COUNT

    def test_within_budget(self):
        assert param_count(ModelConfig()) <= 150_000

    def test_matches_param_store(self):
        params = build_params(SMALL, 9)
        assert params.count() == param_count(SMALL)

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
