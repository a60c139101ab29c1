"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run as `pytest tests/test_acceptance.py -v -s`. The learning smoke test and
the gradient checks are the slow items; the whole module stays within a few
minutes on a laptop CPU.
"""

import io
import math
import time

import numpy as np
import pytest

from irunet import gradcheck, rng
from irunet.checkpoint import load_checkpoint, save_checkpoint
from irunet.cli import main as cli_main
from irunet.data import build_manifest
from irunet.imageio import load_image, save_image
from irunet.layers import ConvSpec, LayerParams, conv2d, init_params, transposed_conv2d
from irunet.metrics import evaluate_model, psnr, ssim
from irunet.model import ModelConfig, build_params, forward, param_count
from irunet.noise import NoiseSpec, corrupt
from irunet.tensor import Tensor, no_grad
from irunet.train import TrainConfig, train

from conftest import forward_with_latent, synth_image, write_corpus

GOLDEN_PARAM_TOTAL = 133_971
PARAM_BUDGET = 150_000
REFERENCE_PARAM_TOTAL = 123_379  # published budget this design tracks; not an equality gate

SMOKE_CONFIG = ModelConfig(input_channels=3, base_width=12,
                           stage_widths=(16, 20, 24, 32), branch_width=6)
TINY = ModelConfig(input_channels=3, base_width=2, stage_widths=(2, 2, 2, 2),
                   branch_width=1)


def _report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    results = gradcheck.run("all")
    elapsed = time.perf_counter() - start
    names = {r.name for r in results}
    assert {"conv2d_3x3_same", "conv2d_3x3_stride2", "conv2d_3x3_dilation2",
            "tconv_2x2_stride2", "tconv_3x3_stride2_dil2", "avg_pool_2x2",
            "inception_block", "inception_reduction_block",
            "tiny_full_model"} <= names
    for r in results:
        tol = 1e-4 if r.name == "tiny_full_model" else 1e-6
        assert r.max_rel_err < tol, r.line()
    assert elapsed < 120.0, f"gradcheck took {elapsed:.1f}s (budget 120s)"
    worst = max(r.max_rel_err for r in results)
    _report("criterion 1 (gradient correctness)",
            f"{len(results)} checks, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_adjoint_identity():
    worst = 0.0
    for trial in range(100):
        h = rng.hash64("acceptance-adjoint", trial)
        u = rng.uniform(h, 8)
        cin, cout = 1 + int(u[0] * 3), 1 + int(u[1] * 3)
        k, s, d = 1 + int(u[2] * 3), 1 + int(u[3] * 2), 1 + int(u[4] * 2)
        hh = min(s * (1 + int(u[5] * max(4 // s - 1, 0))), 4)
        ww = min(s * (1 + int(u[6] * max(4 // s - 1, 0))), 4)
        cspec = ConvSpec(cin, cout, kernel=k, stride=s, dilation=d)
        tspec = ConvSpec(cout, cin, kernel=k, stride=s, dilation=d, transposed=True)
        w = init_params(cspec, rng.hash64(h, "w"), dtype=np.float64).weight
        lp_c = LayerParams("c", cspec, w, Tensor(np.zeros(cout)))
        lp_t = LayerParams("t", tspec, Tensor(w.data.copy()), Tensor(np.zeros(cin)))
        x = Tensor(rng.uniform(rng.hash64(h, "x"), cin * hh * ww)
                   .reshape(1, cin, hh, ww) * 2 - 1, dtype=np.float64)
        oh, ow = -(-hh // s), -(-ww // s)
        y = Tensor(rng.uniform(rng.hash64(h, "y"), cout * oh * ow)
                   .reshape(1, cout, oh, ow) * 2 - 1, dtype=np.float64)
        with no_grad():
            lhs = float(np.sum(conv2d(x, cspec, lp_c).data * y.data))
            rhs = float(np.sum(x.data * transposed_conv2d(y, tspec, lp_t).data))
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10
    _report("criterion 2 (adjoint identity)", f"100 trials, worst gap {worst:.2e}")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_shape_and_range_contract():
    config = ModelConfig()
    params = build_params(config, 11)
    x_vals = rng.uniform(rng.hash64("acc3"), 3 * 96 * 96).reshape(1, 3, 96, 96)
    x = Tensor(x_vals.astype(np.float32))
    with no_grad():
        z, latent = forward_with_latent(x, config, params)
    assert z.shape == (1, 3, 96, 96)
    assert latent.shape[2:] == (6, 6)
    assert np.all(z.data > 0.0) and np.all(z.data < 1.0)
    _report("criterion 3 (shape/range contract)",
            f"96x96 -> 96x96, latent {latent.shape[2]}x{latent.shape[3]}, "
            f"output in ({z.data.min():.4f}, {z.data.max():.4f})")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_parameter_budget():
    total = param_count(ModelConfig())
    assert total == GOLDEN_PARAM_TOTAL, "default parameter total drifted from golden pin"
    assert total <= PARAM_BUDGET
    assert param_count(ModelConfig()) == total  # deterministic
    _report("criterion 4 (parameter budget)",
            f"total {total} <= {PARAM_BUDGET} (golden {GOLDEN_PARAM_TOTAL}, "
            f"reference design {REFERENCE_PARAM_TOTAL})")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_noise_statistics(tmp_path):
    clean = np.full((96, 96, 3), 128, dtype=np.uint8)
    spec = NoiseSpec(sigma=25.0, seed=20260808)
    noisy = corrupt(clean, spec)
    diff = noisy.astype(np.float64) - clean.astype(np.float64)
    mean, std = float(diff.mean()), float(diff.std(ddof=0))
    assert -0.5 <= mean <= 0.5
    assert 24.5 <= std <= 25.5

    assert np.array_equal(corrupt(clean, NoiseSpec(sigma=0.0, seed=5)), clean)

    again = corrupt(clean, spec)
    assert np.array_equal(noisy, again)
    p1, p2 = tmp_path / "n1.png", tmp_path / "n2.png"
    save_image(noisy, p1)
    save_image(again, p2)
    assert p1.read_bytes() == p2.read_bytes()
    _report("criterion 5 (noise statistics)",
            f"sigma=25 sample mean {mean:+.3f}, std {std:.3f}; sigma=0 bit-exact; "
            f"regeneration byte-identical")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_metric_oracles():
    a = np.zeros((16, 16, 3), dtype=np.uint8)
    b = a + 1
    p = psnr(a, b)
    assert abs(p - 48.1308) < 0.0005

    img = synth_image(61, size=24)
    s_self = ssim(img, img)
    assert abs(s_self - 1.0) <= 1e-9

    other = corrupt(img, NoiseSpec(sigma=25.0, seed=3))
    sym_gap = abs(ssim(img, other) - ssim(other, img))
    assert sym_gap <= 1e-12
    _report("criterion 6 (metric oracles)",
            f"psnr(diff=1) {p:.4f} dB; ssim(a,a) {s_self}; symmetry gap {sym_gap:.1e}")


# ---------------------------------------------------------------- criterion 7

@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """Shared 300-step training run: tiny config, 8 images at 32x32, sigma 25."""
    root = tmp_path_factory.mktemp("smoke")
    clean_dir = root / "clean"
    write_corpus(clean_dir, 8, size=32, tag="smoke")
    manifest = build_manifest(clean_dir, [25], base_seed=13, split_ratio=1.0)
    tc = TrainConfig(learning_rate=1e-4, beta1=0.9, beta2=0.999, epsilon=1e-7,
                     batch_size=8, max_steps=300, checkpoint_every=1000,
                     init_seed=42, epoch_seed=7)
    start = time.perf_counter()
    result = train(SMOKE_CONFIG, tc, manifest, root / "run", log_stream=io.StringIO())
    elapsed = time.perf_counter() - start
    return manifest, result, elapsed


def test_criterion_7_learning_smoke(smoke_run):
    manifest, result, elapsed = smoke_run
    initial, final = result.losses[0], result.losses[-1]
    assert final <= 0.5 * initial, f"MAE {initial:.4f} -> {final:.4f} did not halve"

    loaded = load_checkpoint(result.final_checkpoint)
    report = evaluate_model(loaded.params, loaded.config, manifest, "train")
    denoised_psnr = float(np.mean([s.psnr_db for s in report.scores]))
    noisy_psnrs = []
    for row in manifest.rows:
        clean = load_image(manifest.resolve(row))
        noisy = corrupt(clean, NoiseSpec(sigma=float(row.sigma), seed=row.seed))
        noisy_psnrs.append(psnr(noisy, clean))
    noisy_psnr = float(np.mean(noisy_psnrs))
    gain = denoised_psnr - noisy_psnr
    assert gain >= 2.0, f"PSNR gain {gain:+.2f} dB below +2 dB"
    assert elapsed < 300.0, f"smoke training took {elapsed:.0f}s (budget 300s)"
    _report("criterion 7 (learning smoke)",
            f"MAE {initial:.4f} -> {final:.4f} (ratio {final / initial:.3f}); "
            f"PSNR {noisy_psnr:.2f} -> {denoised_psnr:.2f} dB ({gain:+.2f}); "
            f"{elapsed:.0f}s for 300 steps")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_determinism_and_persistence(tmp_path):
    clean_dir = tmp_path / "clean"
    write_corpus(clean_dir, 6, size=16, tag="det")
    manifest = build_manifest(clean_dir, [10, 30], base_seed=21, split_ratio=1.0)

    def tc(max_steps, every=100):
        return TrainConfig(batch_size=3, max_steps=max_steps, checkpoint_every=every,
                           init_seed=5, epoch_seed=9)

    run_a = train(TINY, tc(10), manifest, tmp_path / "a", log_stream=io.StringIO())
    run_b = train(TINY, tc(10), manifest, tmp_path / "b", log_stream=io.StringIO())
    assert run_a.losses == run_b.losses  # bit-exact trace

    ckpt_a = load_checkpoint(run_a.final_checkpoint)
    x = Tensor(rng.uniform(3, 3 * 16 * 16).reshape(1, 3, 16, 16).astype(np.float32))
    with no_grad():
        z1 = forward(x, ckpt_a.config, ckpt_a.params)
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(ckpt_a.params, ckpt_a.config, resaved)
    reloaded = load_checkpoint(resaved)
    with no_grad():
        z2 = forward(x, reloaded.config, reloaded.params)
    assert np.array_equal(z1.data, z2.data)  # bit-exact forward after round trip

    train(TINY, tc(5, every=5), manifest, tmp_path / "half", log_stream=io.StringIO())
    resumed = train(TINY, tc(10), manifest, tmp_path / "resumed",
                    start=load_checkpoint(tmp_path / "half" / "step000005.ckpt"),
                    log_stream=io.StringIO())
    assert resumed.losses == run_a.losses[5:]  # resume matches uninterrupted trace
    _report("criterion 8 (determinism & persistence)",
            "trace bit-exact, checkpoint round trip bit-exact, resume exact")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_table_shaped_report_without_reproduction(tmp_path, capsys):
    # Full-corpus accuracy is out of desk scope by design; what must hold is
    # that evaluate emits the per-sigma report shape on a local checkpoint.
    clean_dir = tmp_path / "clean"
    write_corpus(clean_dir, 6, size=32, tag="rep")
    manifest = build_manifest(clean_dir, [10, 25, 50], base_seed=31, split_ratio=1.0)
    manifest_path = tmp_path / "manifest.csv"
    manifest.save(manifest_path)

    tc = TrainConfig(batch_size=6, max_steps=3, checkpoint_every=100,
                     init_seed=1, epoch_seed=2)
    result = train(SMOKE_CONFIG, tc, manifest, tmp_path / "run",
                   log_stream=io.StringIO())

    report_path = tmp_path / "report.tsv"
    code = cli_main(["evaluate", "--checkpoint", result.final_checkpoint,
                     "--manifest", str(manifest_path), "--split", "train",
                     "--out", str(report_path)])
    assert code == 0
    lines = report_path.read_text().strip().split("\n")
    assert lines[0] == "sigma\tn\tpsnr_mean\tssim_mean\tmae_mean"
    body = [ln.split("\t") for ln in lines[1:]]
    assert [row[0] for row in body] == ["10", "25", "50", "ALL"]
    for row in body:
        assert int(row[1]) > 0
        assert row[2] == "inf" or math.isfinite(float(row[2]))
        assert -1.0 <= float(row[3]) <= 1.0
        assert float(row[4]) >= 0.0
    _report("criterion 9 (report shape, no table reproduction)",
            f"per-sigma rows {[r[0] for r in body[:-1]]} + ALL row emitted")
