import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from irunet import metrics, rng
from irunet.data import DatasetManifest, ManifestRow, build_manifest
from irunet.metrics import (MetricReport, ImageScore, evaluate_model, mae_loss,
                            psnr, ssim)
from irunet.noise import NoiseSpec, corrupt
from irunet.tensor import Tensor, no_grad

from conftest import synth_image


def rand01(seed, shape):
    return rng.uniform(seed, int(np.prod(shape))).reshape(shape)


class TestMaeLoss:
    def test_identity_is_zero(self):
        x = Tensor(rand01(1, (2, 3, 4, 4)), dtype=np.float64)
        z = Tensor(x.data.copy(), dtype=np.float64)
        assert mae_loss(z, x).item() == 0.0

    def test_constant_offset(self):
        x = Tensor(np.full((1, 3, 4, 4), 0.25), dtype=np.float64)
        z = Tensor(np.full((1, 3, 4, 4), 0.5), dtype=np.float64)
        assert mae_loss(z, x).item() == pytest.approx(0.25, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            mae_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))

    def test_gradient_is_sign_over_count(self):
        x = Tensor(rand01(2, (3, 5)), dtype=np.float64)
        z = Tensor(rand01(3, (3, 5)), dtype=np.float64, requires_grad=True)
        mae_loss(z, x).backward()
        expected = np.sign(z.data - x.data) / z.size
        assert np.allclose(z.grad, expected, atol=1e-15)

    def test_gradient_matches_finite_differences_away_from_ties(self):
        x = Tensor(rand01(4, (4, 4)), dtype=np.float64)
        z = Tensor(rand01(5, (4, 4)) + 2.0, dtype=np.float64, requires_grad=True)
        mae_loss(z, x).backward()
        step = 1e-5
        flat = z.data.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            with no_grad():
                flat[i] = orig + step
                f_plus = mae_loss(z, x).item()
                flat[i] = orig - step
                f_minus = mae_loss(z, x).item()
            flat[i] = orig
            fd[i] = (f_plus - f_minus) / (2 * step)
        assert np.abs(z.grad.reshape(-1) - fd).max() < 1e-9

    def test_nonnegative_and_zero_only_at_equality(self):
        x = Tensor(rand01(6, (3, 3)), dtype=np.float64)
        z = Tensor(x.data + 1e-6, dtype=np.float64)
        assert mae_loss(z, x).item() > 0.0


class TestPsnr:
    def test_uniform_difference_one_closed_form(self):
        a = np.zeros((8, 8, 3), dtype=np.uint8)
        b = a + 1
        assert psnr(a, b) == pytest.approx(20 * math.log10(255), abs=5e-4)

    def test_identical_is_infinite(self):
        a = np.full((4, 4, 3), 100, dtype=np.uint8)
        assert math.isinf(psnr(a, a))

    def test_monotone_decreasing_in_noise_amplitude(self):
        clean = synth_image(7, size=32)
        values = []
        for sigma in (5.0, 15.0, 30.0, 50.0):
            noisy = corrupt(clean, NoiseSpec(sigma=sigma, seed=11))
            values.append(psnr(noisy, clean))
        assert values == sorted(values, reverse=True)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            psnr(np.zeros((4, 4, 3), np.uint8), np.zeros((4, 5, 3), np.uint8))

    def test_unit_scale_equivalent_after_quantization(self):
        a = synth_image(8, size=16)
        b = corrupt(a, NoiseSpec(sigma=20.0, seed=1))
        eight_bit = psnr(a, b, peak=255.0)
        unit = psnr(a.astype(np.float64) / 255.0, b.astype(np.float64) / 255.0, peak=1.0)
        assert eight_bit == pytest.approx(unit, abs=1e-9)


class TestSsim:
    def test_identical_is_one(self):
        img = synth_image(9, size=24)
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-9)

    def test_symmetry(self):
        a = synth_image(10, size=24)
        b = corrupt(a, NoiseSpec(sigma=25.0, seed=2))
        assert abs(ssim(a, b) - ssim(b, a)) <= 1e-12

    def test_constant_extremes_closed_form(self):
        z = np.zeros((16, 16, 3), np.uint8)
        o = np.full((16, 16, 3), 255, np.uint8)
        c1 = (0.01 * 255.0) ** 2
        expected = c1 / (255.0 ** 2 + c1)
        assert ssim(z, o) == pytest.approx(expected, rel=1e-9)

    def test_range_and_identity_detection(self):
        a = synth_image(11, size=20)
        b = a.copy()
        b[10, 10, 0] ^= 0x40  # one perturbed pixel
        s = ssim(a, b)
        assert 0.0 < s < 1.0
        assert ssim(a, a) == 1.0

    def test_noise_degrades_ssim(self):
        a = synth_image(12, size=32)
        s_small = ssim(a, corrupt(a, NoiseSpec(sigma=5.0, seed=3)))
        s_large = ssim(a, corrupt(a, NoiseSpec(sigma=50.0, seed=3)))
        assert s_large < s_small < 1.0

    def test_too_small_rejected(self):
        tiny = np.zeros((8, 8, 3), np.uint8)
        with pytest.raises(ValueError, match="window"):
            ssim(tiny, tiny)

    def test_single_channel_accepted(self):
        a = synth_image(13, size=16)[:, :, 0]
        assert ssim(a, a) == pytest.approx(1.0, abs=1e-12)


def reference_ssim(a, b):
    """Per-channel SSIM with one sliding-window tensordot per statistic."""
    w = metrics._WINDOW_1D

    def filt(img):
        t = sliding_window_view(img, len(w), axis=0)
        t = np.tensordot(t, w, axes=([2], [0]))
        t = sliding_window_view(t, len(w), axis=1)
        return np.tensordot(t, w, axes=([2], [0]))

    def channel(x, y):
        mu_x, mu_y = filt(x), filt(y)
        var_x = filt(x * x) - mu_x * mu_x
        var_y = filt(y * y) - mu_y * mu_y
        cov = filt(x * y) - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + metrics.SSIM_C1) * (2.0 * cov + metrics.SSIM_C2)
        den = (mu_x * mu_x + mu_y * mu_y + metrics.SSIM_C1) * (var_x + var_y + metrics.SSIM_C2)
        return float(np.mean(num / den))

    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.ndim == 2:
        x, y = x[:, :, None], y[:, :, None]
    return float(np.mean([channel(x[:, :, c], y[:, :, c]) for c in range(x.shape[2])]))


def ssim_pair(seed, shape, dtype):
    """A clean image and a noisy copy of it, as uint8 or float64 on 0..255."""
    clean = (rng.raw_uint64(seed, 0, int(np.prod(shape))) % np.uint64(256)).reshape(shape)
    clean = clean.astype(np.float64)
    noise = 40.0 * (rng.uniform(seed + 1, clean.size).reshape(shape) - 0.5)
    noisy = np.clip(clean + noise, 0, 255)
    if dtype == np.uint8:
        return clean.astype(np.uint8), np.floor(noisy).astype(np.uint8)
    return clean, noisy


class TestSsimOracle:
    """The banded-matmul SSIM against the per-channel tensordot reference."""

    @pytest.mark.parametrize("chunk", [None, 1, 5])
    @pytest.mark.parametrize("dtype", [np.uint8, np.float64], ids=["uint8", "float64"])
    @pytest.mark.parametrize("channels", [None, 1, 3], ids=["2d", "c1", "c3"])
    @pytest.mark.parametrize("h,w", [(11, 11), (12, 40), (75, 33), (96, 160), (128, 128)])
    def test_matches_reference(self, monkeypatch, chunk, dtype, channels, h, w):
        if chunk is not None:
            monkeypatch.setattr(metrics, "_CHUNK", chunk)
        shape = (h, w) if channels is None else (h, w, channels)
        a, b = ssim_pair(h * w + (channels or 0), shape, dtype)
        expected = reference_ssim(a, b)
        assert ssim(a, b) == pytest.approx(expected, rel=1e-12)
        assert ssim(a, a) == 1.0


class TestMetricReport:
    def make_report(self):
        report = MetricReport()
        report.scores = [
            ImageScore("a.png", 10, 30.0, 0.9, 0.02),
            ImageScore("b.png", 10, 34.0, 0.95, 0.01),
            ImageScore("c.png", 25, 25.0, 0.8, 0.05),
        ]
        return report

    def test_group_keys_are_distinct_sigmas(self):
        rows = self.make_report().group_means()
        assert [r[0] for r in rows] == ["10", "25", "ALL"]

    def test_overall_mean_matches_hand_computation(self):
        rows = self.make_report().group_means()
        all_row = rows[-1]
        assert all_row[1] == 3
        assert all_row[2] == pytest.approx((30.0 + 34.0 + 25.0) / 3)
        assert all_row[3] == pytest.approx((0.9 + 0.95 + 0.8) / 3)

    def test_tsv_format_and_inf_serialization(self):
        report = MetricReport()
        report.scores = [ImageScore("a.png", 0, math.inf, 1.0, 0.0)]
        text = report.to_tsv()
        lines = text.strip().split("\n")
        assert lines[0] == "sigma\tn\tpsnr_mean\tssim_mean\tmae_mean"
        assert lines[1].split("\t") == ["0", "1", "inf", "1.000000", "0.000000"]
        assert lines[2].startswith("ALL\t1\tinf")


@pytest.fixture
def identity_forward(monkeypatch):
    """Make evaluate_model's forward pass the identity, for pipeline checks."""
    monkeypatch.setattr(metrics, "forward", lambda x, config, params: x)


@pytest.mark.usefixtures("identity_forward")
class TestEvaluateModel:
    def test_identity_stub_on_sigma_zero(self, corpus8):
        # sigma=0 rows through an identity denoiser: PSNR inf, SSIM 1
        clean_dir, _ = corpus8
        manifest = build_manifest(clean_dir, [0], base_seed=6, split_ratio=1.0)
        report = evaluate_model(None, None, manifest, "train")
        assert all(math.isinf(s.psnr_db) for s in report.scores)
        assert all(s.ssim == pytest.approx(1.0, abs=1e-12) for s in report.scores)
        assert all(s.mae == 0.0 for s in report.scores)

    def test_unit_scale_psnr_scores_the_float_output_on_sigma_zero(self, corpus8):
        # the float32 output against clean / 255 in float64: rounding error only, so
        # a finite PSNR where the 8-bit score is inf; SSIM and MAE stay 8-bit
        clean_dir, _ = corpus8
        manifest = build_manifest(clean_dir, [0], base_seed=6, split_ratio=1.0)
        default = evaluate_model(None, None, manifest, "train")
        unit = evaluate_model(None, None, manifest, "train", unit_scale_psnr=True)
        assert all(math.isinf(s.psnr_db) for s in default.scores)
        assert all(100 < s.psnr_db < math.inf for s in unit.scores)
        assert [(s.ssim, s.mae) for s in unit.scores] == [(s.ssim, s.mae) for s in default.scores]

    def test_group_keys_match_manifest(self, corpus8):
        clean_dir, _ = corpus8
        manifest = build_manifest(clean_dir, [10, 25], base_seed=6, split_ratio=1.0)
        report = evaluate_model(None, None, manifest, "train")
        keys = {r[0] for r in report.group_means()}
        assert keys == {"10", "25", "ALL"}

    def test_overall_mean_recomputation(self, corpus8):
        clean_dir, _ = corpus8
        manifest = build_manifest(clean_dir, [15], base_seed=6, split_ratio=1.0)
        report = evaluate_model(None, None, manifest, "train")
        by_hand = float(np.mean([s.psnr_db for s in report.scores]))
        assert report.group_means()[-1][2] == pytest.approx(by_hand)

    def test_empty_split_rejected(self, corpus8):
        clean_dir, _ = corpus8
        manifest = build_manifest(clean_dir, [15], base_seed=6, split_ratio=1.0)
        with pytest.raises(ValueError, match="empty"):
            evaluate_model(None, None, manifest, "test")

    def test_missing_clean_files_listed_once_each(self, corpus8):
        clean_dir, names = corpus8
        manifest = DatasetManifest([ManifestRow(names[0], 10, 1, "train"),
                                    ManifestRow(names[1], 10, 2, "train"),
                                    ManifestRow(names[0], 25, 3, "train")], root=str(clean_dir))
        (clean_dir / names[0]).unlink()
        with pytest.raises(FileNotFoundError) as err:
            evaluate_model(None, None, manifest, "train")
        assert str(err.value) == f"missing clean files:\n  {clean_dir / names[0]}"
