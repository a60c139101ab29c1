import dataclasses
import gc
import importlib
import io
import os
import weakref

import numpy as np
import pytest

# the package re-exports the train() function under the module's name
train_mod = importlib.import_module("irunet.train")
from irunet import gradcheck
from irunet.checkpoint import load_checkpoint
from irunet.data import build_manifest
from irunet.layers import ConvSpec, conv2d, init_params
from irunet.model import ModelConfig
from irunet.tensor import Tensor
from irunet.train import NonFiniteLossError, TrainConfig, train

from conftest import write_corpus

TINY = ModelConfig(input_channels=3, base_width=2, stage_widths=(2, 2, 2, 2),
                   branch_width=1)


@pytest.fixture
def tiny_manifest(tmp_path):
    clean = tmp_path / "clean"
    write_corpus(clean, 6, size=16)
    return build_manifest(clean, [10, 25, 40], base_seed=3, split_ratio=1.0)


def tconf(**kw):
    base = dict(learning_rate=1e-4, batch_size=3, max_steps=8, checkpoint_every=4,
                init_seed=5, epoch_seed=6)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_loss_trace_reproducible(self, tiny_manifest, tmp_path):
        a = train(TINY, tconf(), tiny_manifest, tmp_path / "a", log_stream=io.StringIO())
        b = train(TINY, tconf(), tiny_manifest, tmp_path / "b", log_stream=io.StringIO())
        assert a.losses == b.losses
        assert len(a.losses) == 8

    def test_checkpoints_on_schedule_and_at_end(self, tiny_manifest, tmp_path):
        out = tmp_path / "run"
        result = train(TINY, tconf(), tiny_manifest, out, log_stream=io.StringIO())
        names = sorted(os.listdir(out))
        assert "step000004.ckpt" in names
        assert "step000008.ckpt" in names
        assert result.final_checkpoint.endswith("step000008.ckpt")

    def test_final_params_finite(self, tiny_manifest, tmp_path):
        result = train(TINY, tconf(), tiny_manifest, tmp_path / "fin",
                       log_stream=io.StringIO())
        loaded = load_checkpoint(result.final_checkpoint)
        for t in loaded.params.named_tensors().values():
            assert np.all(np.isfinite(t.data))
        assert loaded.state is not None and loaded.state.t == 8

    def test_log_line_format(self, tiny_manifest, tmp_path):
        log = io.StringIO()
        train(TINY, tconf(max_steps=3), tiny_manifest, tmp_path / "log", log_stream=log)
        lines = log.getvalue().strip().split("\n")
        assert len(lines) == 3
        for i, line in enumerate(lines):
            step, loss, seconds = line.split("\t")
            assert int(step) == i
            assert float(loss) > 0.0
            assert float(seconds) >= 0.0

    def test_resume_reproduces_uninterrupted_trace(self, tiny_manifest, tmp_path):
        full = train(TINY, tconf(), tiny_manifest, tmp_path / "full",
                     log_stream=io.StringIO())
        train(TINY, tconf(max_steps=4, checkpoint_every=4), tiny_manifest,
              tmp_path / "half", log_stream=io.StringIO())
        resumed = train(TINY, tconf(), tiny_manifest, tmp_path / "resumed",
                        start=load_checkpoint(tmp_path / "half" / "step000004.ckpt"),
                        log_stream=io.StringIO())
        assert resumed.losses == full.losses[4:]

        ckpt_full = load_checkpoint(full.final_checkpoint)
        ckpt_resumed = load_checkpoint(resumed.final_checkpoint)
        for name, t in ckpt_full.params.named_tensors().items():
            assert np.array_equal(t.data, ckpt_resumed.params.named_tensors()[name].data)

    def test_resume_requires_training_checkpoint(self, tiny_manifest, tmp_path):
        from irunet.checkpoint import save_checkpoint
        from irunet.model import build_params

        path = tmp_path / "model_only.ckpt"
        save_checkpoint(build_params(TINY, 1), TINY, path)
        with pytest.raises(ValueError, match="optimizer state"):
            train(TINY, tconf(), tiny_manifest, tmp_path / "r", start=load_checkpoint(path),
                  log_stream=io.StringIO())

    def test_empty_train_split_rejected(self, tmp_path):
        clean = tmp_path / "clean"
        write_corpus(clean, 2, size=16)
        manifest = build_manifest(clean, [25], base_seed=1, split_ratio=0.0)
        with pytest.raises(ValueError, match="train"):
            train(TINY, tconf(), manifest, tmp_path / "x", log_stream=io.StringIO())

    def test_non_finite_loss_aborts_with_checkpoint(self, tiny_manifest, tmp_path,
                                                    monkeypatch):
        real_mae = train_mod.mae_loss
        calls = {"n": 0}

        def poisoned(z, x):
            calls["n"] += 1
            if calls["n"] >= 3:
                return Tensor(np.array(np.nan, dtype=np.float32))
            return real_mae(z, x)

        monkeypatch.setattr(train_mod, "mae_loss", poisoned)
        out = tmp_path / "abort"
        with pytest.raises(NonFiniteLossError) as err:
            train(TINY, tconf(), tiny_manifest, out, log_stream=io.StringIO())
        path = err.value.checkpoint_path
        assert path is not None and os.path.isfile(path)
        rescued = load_checkpoint(path)  # last good parameters are loadable
        assert rescued.state is not None and rescued.state.t == 2

    def test_resume_past_max_steps_rejected_before_writing(self, tiny_manifest, tmp_path):
        out = tmp_path / "run"
        train(TINY, tconf(max_steps=10, checkpoint_every=5), tiny_manifest, out,
              log_stream=io.StringIO())
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        with pytest.raises(ValueError, match="step 10, past max_steps 5"):
            train(TINY, tconf(max_steps=5, checkpoint_every=5), tiny_manifest, out,
                  start=load_checkpoint(out / "step000010.ckpt"), log_stream=io.StringIO())
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before
        with pytest.raises(ValueError, match="max_steps"):
            train(TINY, tconf(max_steps=5), tiny_manifest, tmp_path / "new",
                  start=load_checkpoint(out / "step000010.ckpt"), log_stream=io.StringIO())
        assert not (tmp_path / "new").exists()

    def test_resume_with_conflicting_model_config_rejected_before_writing(self, tiny_manifest,
                                                                          tmp_path):
        out = tmp_path / "run"
        train(TINY, tconf(max_steps=4), tiny_manifest, out, log_stream=io.StringIO())
        with pytest.raises(ValueError, match="model config differs") as err:
            train(ModelConfig(), tconf(), tiny_manifest, tmp_path / "new",
                  start=load_checkpoint(out / "step000004.ckpt"), log_stream=io.StringIO())
        assert "base_width=16 (checkpoint: 2)" in str(err.value)
        assert not (tmp_path / "new").exists()

    def test_previous_step_released_before_next_forward(self, tiny_manifest, tmp_path,
                                                        monkeypatch):
        # reference counting alone must free step N's batch and output: the
        # collector stays off so a reference cycle would keep them alive. A
        # tensor's array dies with it (Tensor has no __weakref__ slot)
        real_forward = train_mod.forward
        refs, dead_on_entry = [], []

        def spy(x, config, params):
            dead_on_entry.append([r() is None for r in refs])
            z = real_forward(x, config, params)
            refs[:] = [weakref.ref(x.data), weakref.ref(z.data)]
            return z

        monkeypatch.setattr(train_mod, "forward", spy)
        gc.disable()
        try:
            train(TINY, tconf(max_steps=4), tiny_manifest, tmp_path / "w",
                  log_stream=io.StringIO())
        finally:
            gc.enable()
        assert dead_on_entry == [[]] + [[True, True]] * 3

    def test_backward_sweep_frees_the_batch_and_output(self, tiny_manifest, tmp_path,
                                                      monkeypatch):
        # train() keeps no reference of its own to the batch or the output
        # through backward, so the sweep frees each once no node needs it
        real_forward, real_loss, real_backward = (train_mod.forward, train_mod.mae_loss,
                                                  Tensor.backward)
        refs, alive_after = [], []

        def forward_spy(x, config, params):
            refs[:] = [weakref.ref(x)]
            return real_forward(x, config, params)

        def loss_spy(z, clean):
            refs.extend([weakref.ref(z), weakref.ref(clean)])
            return real_loss(z, clean)

        def backward_spy(root):
            real_backward(root)
            alive_after.append([r() is not None for r in refs])

        monkeypatch.setattr(train_mod, "forward", forward_spy)
        monkeypatch.setattr(train_mod, "mae_loss", loss_spy)
        monkeypatch.setattr(Tensor, "backward", backward_spy)
        gc.disable()
        try:
            train(TINY, tconf(max_steps=2), tiny_manifest, tmp_path / "w",
                  log_stream=io.StringIO())
        finally:
            gc.enable()
        assert alive_after == [[False, False, False]] * 2

    def test_backward_called_through_one_argument_signature(self, tiny_manifest, tmp_path,
                                                            monkeypatch):
        # the benchmark's tracer replaces Tensor.backward with a wrapper that
        # takes exactly (root), so train() must call loss.backward() bare
        plain = train(TINY, tconf(max_steps=3), tiny_manifest, tmp_path / "plain",
                      log_stream=io.StringIO())
        real_backward = Tensor.backward
        released = []

        def wrapper(root):
            real_backward(root)
            released.append(root.grad is None)  # train() walks the graph in release mode

        monkeypatch.setattr(Tensor, "backward", wrapper)
        traced = train(TINY, tconf(max_steps=3), tiny_manifest, tmp_path / "traced",
                       log_stream=io.StringIO())
        assert released == [True] * 3
        assert traced.losses == plain.losses

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tconf(learning_rate=0.0)
        with pytest.raises(ValueError):
            tconf(beta1=1.0)
        with pytest.raises(ValueError):
            tconf(batch_size=0)

    def test_integer_fields_take_any_integer_type_and_reject_floats(self):
        config = tconf(batch_size=np.int64(3), max_steps=np.int32(8), init_seed=np.uint8(5))
        assert config == tconf() and hash(config) == hash(tconf())
        assert all(type(getattr(config, f.name)) is int
                   for f in dataclasses.fields(config) if type(f.default) is int)
        for bad in (dict(batch_size=2.5), dict(max_steps=10.0), dict(init_seed=1.5),
                    dict(checkpoint_every="4"), dict(epoch_seed=None)):
            with pytest.raises(TypeError):
                tconf(**bad)


class TestGradcheckHarness:
    def test_layer_level_passes(self):
        results = gradcheck.run("layer")
        assert results and all(r.passed for r in results)
        assert all(r.max_rel_err < 1e-6 for r in results)

    def test_block_level_passes(self):
        results = gradcheck.run("block")
        names = {r.name for r in results}
        assert names == {"inception_block", "inception_reduction_block"}
        assert all(r.passed for r in results)

    def test_fault_injection_reported_as_failure(self, monkeypatch):
        oracle = gradcheck._finite_difference
        monkeypatch.setattr(gradcheck, "_finite_difference", lambda loss_fn, targets: {
            k: g * 1.01 for k, g in oracle(loss_fn, targets).items()})
        results = gradcheck.run("layer")
        assert all(not r.passed for r in results)

    def test_per_parameter_group_errors_reported(self):
        result = gradcheck.run("layer")[0]
        assert set(result.group_errors) == {"x", "weight", "bias"}
        assert result.max_rel_err == max(result.group_errors.values())

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            gradcheck.run("everything")

    def test_kink_distance_is_the_smallest_relu_input(self):
        spec = ConvSpec(3, 4, kernel=3, relu=True)  # the conv2d_3x3_relu case
        lp = init_params(spec, 7, name="conv2d_3x3_relu", dtype=np.float64)
        lp.bias.data[...] = [0.1, -0.2, 0.05, 0.0]
        x = gradcheck._random_tensor(8, (2, 3, 5, 6))
        padded = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)))
        conv_plus_bias = lp.bias.data[None, :, None, None] + sum(
            np.einsum("oc,nchw->nohw", lp.weight.data[:, :, i, j], padded[:, :, i:i + 5, j:j + 6])
            for i in range(3) for j in range(3))
        assert gradcheck._kink_distance(lambda: conv2d(x, spec, lp)) == pytest.approx(
            np.min(np.abs(conv_plus_bias)), rel=1e-12, abs=1e-15)
        plain = dataclasses.replace(spec, relu=False)
        assert gradcheck._kink_distance(lambda: conv2d(x, plain, lp)) == np.inf
        assert gradcheck._kink_distance(lambda: x.relu()) == np.min(np.abs(x.data))

    def test_report_lines_are_printable(self):
        results = gradcheck.run("layer")
        for r in results:
            line = r.line()
            assert line.startswith("PASS") and r.name in line
