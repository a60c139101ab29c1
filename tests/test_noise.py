import numpy as np
import pytest

from irunet.noise import NoiseSpec, corrupt


def mid_gray(h=96, w=96):
    return np.full((h, w, 3), 128, dtype=np.uint8)


class TestNoiseSpec:
    def test_sigma_range_enforced(self):
        NoiseSpec(sigma=0.0, seed=1)
        NoiseSpec(sigma=50.0, seed=1)
        with pytest.raises(ValueError):
            NoiseSpec(sigma=50.1, seed=1)
        with pytest.raises(ValueError):
            NoiseSpec(sigma=-0.1, seed=1)

    def test_mean_fixed_at_zero(self):
        with pytest.raises(TypeError):
            NoiseSpec(sigma=10.0, seed=1, mean=0.5)


class TestCorrupt:
    def test_sigma_zero_is_bit_exact(self):
        clean = mid_gray(16, 16)
        assert np.array_equal(corrupt(clean, NoiseSpec(sigma=0.0, seed=7)), clean)

    def test_deterministic_given_seed(self):
        clean = mid_gray(32, 32)
        spec = NoiseSpec(sigma=25.0, seed=12345)
        assert np.array_equal(corrupt(clean, spec), corrupt(clean, spec))

    def test_different_seeds_differ(self):
        clean = mid_gray(32, 32)
        a = corrupt(clean, NoiseSpec(sigma=25.0, seed=1))
        b = corrupt(clean, NoiseSpec(sigma=25.0, seed=2))
        assert not np.array_equal(a, b)

    def test_sigma25_sample_statistics(self):
        # law of large numbers over 96*96*3 = 27648 draws
        clean = mid_gray()
        noisy = corrupt(clean, NoiseSpec(sigma=25.0, seed=12345))
        diff = noisy.astype(np.float64) - clean.astype(np.float64)
        assert -0.5 <= diff.mean() <= 0.5
        assert 24.5 <= diff.std(ddof=0) <= 25.5

    def test_output_dtype_and_shape(self):
        clean = mid_gray(8, 12)
        noisy = corrupt(clean, NoiseSpec(sigma=10.0, seed=3))
        assert noisy.dtype == np.uint8
        assert noisy.shape == clean.shape

    def test_clipping_at_white(self):
        # one-sided clipping: nothing exceeds 255 and the mean drops below it
        white = np.full((64, 64, 3), 255, dtype=np.uint8)
        noisy = corrupt(white, NoiseSpec(sigma=50.0, seed=3))
        assert noisy.max() <= 255
        assert noisy.astype(np.float64).mean() < 255.0

    def test_clipping_at_black(self):
        black = np.zeros((64, 64, 3), dtype=np.uint8)
        noisy = corrupt(black, NoiseSpec(sigma=50.0, seed=4))
        assert noisy.min() >= 0
        assert noisy.astype(np.float64).mean() > 0.0

    def test_quantization_idempotent(self):
        noisy = corrupt(mid_gray(16, 16), NoiseSpec(sigma=30.0, seed=5))
        requantized = np.floor(np.clip(noisy.astype(np.float64), 0, 255) + 0.5).astype(np.uint8)
        assert np.array_equal(requantized, noisy)

    def test_noise_independence_between_pixels(self):
        # adjacent-pixel noise correlation stays near zero over ~1e5 pairs
        big = np.full((256, 256, 3), 128, dtype=np.uint8)
        noise = corrupt(big, NoiseSpec(sigma=25.0, seed=9)).astype(np.float64) - 128.0
        flat = noise.ravel()
        half = flat.size // 2
        r = np.corrcoef(flat[0::2][:half], flat[1::2][:half])[0, 1]
        assert abs(r) < 0.02

    def test_non_uint8_rejected(self):
        with pytest.raises(ValueError, match="8-bit"):
            corrupt(np.zeros((8, 8, 3), dtype=np.float32), NoiseSpec(sigma=1.0, seed=0))

    def test_wrong_channel_count_rejected(self):
        with pytest.raises(ValueError, match="RGB"):
            corrupt(np.zeros((8, 8), dtype=np.uint8), NoiseSpec(sigma=1.0, seed=0))
