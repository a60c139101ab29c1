"""Training loss and reconstruction quality metrics.

PSNR and SSIM are computed in the quantized 8-bit domain with peak 255,
the native scale of the data; PSNR over all pixels and channels jointly
(one MSE). SSIM is the single-scale formulation: 11x11 Gaussian window
(sigma 1.5), C1=(0.01*255)^2, C2=(0.03*255)^2, per channel, averaged over
valid window positions and then over channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import imageio
from .data import DatasetManifest
from .model import check_image_size, forward
from .noise import corrupt
from .tensor import Tensor, no_grad

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = (0.01 * 255.0) ** 2
SSIM_C2 = (0.03 * 255.0) ** 2


def mae_loss(z: Tensor, x: Tensor) -> Tensor:
    """Mean absolute error, differentiable; subgradient 0 at exact ties."""
    if z.shape != x.shape:
        raise ValueError(f"shape mismatch: {z.shape} vs {x.shape}")
    return (z - x).abs().mean()


def psnr(a: np.ndarray, b: np.ndarray, peak: float = 255.0) -> float:
    """10*log10(peak^2 / MSE) in dB; +inf when the images are identical."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def _gaussian_window(n: int, sigma: float) -> np.ndarray:
    x = np.arange(n, dtype=np.float64) - (n - 1) / 2.0
    w = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return w / w.sum()


_WINDOW_1D = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
# valid outputs per banded matmul: each is one (m x m+10) band times m+10 input
# rows (or columns), so the work stays O(H*W*(_CHUNK+10)) at any image size
_CHUNK = 32


def _filter_valid(maps: np.ndarray) -> np.ndarray:
    """Separable Gaussian correlation over the last two axes, valid positions only."""
    n = SSIM_WINDOW - 1
    height, width = maps.shape[-2] - n, maps.shape[-1] - n
    m = _CHUNK
    band = np.zeros((m, m + n))  # row i holds the window at columns i..i+n
    band[np.arange(m)[:, None], np.arange(m)[:, None] + np.arange(SSIM_WINDOW)] = _WINDOW_1D
    rows = np.empty(maps.shape[:-2] + (height, maps.shape[-1]))
    for r in range(0, height, m):
        k = min(m, height - r)
        np.matmul(band[:k, :k + n], maps[..., r:r + k + n, :], out=rows[..., r:r + k, :])
    out = np.empty(maps.shape[:-2] + (height, width))
    for c in range(0, width, m):
        k = min(m, width - c)
        np.matmul(rows[..., c:c + k + n], band[:k, :k + n].T, out=out[..., c:c + k])
    return out


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Structural similarity on the 0..255 scale; 1.0 for identical images."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if a.ndim == 2:
        a = a[:, :, None]
        b = b[:, :, None]
    if a.ndim != 3:
        raise ValueError(f"ssim expects [H,W] or [H,W,C], got shape {a.shape}")
    if a.shape[0] < SSIM_WINDOW or a.shape[1] < SSIM_WINDOW:
        raise ValueError(
            f"image {a.shape[0]}x{a.shape[1]} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")
    # every channel's x, y, x^2+y^2 and xy as one [4,C,H,W] stack, filtered at once
    stats = np.empty((4, a.shape[2], a.shape[0], a.shape[1]))
    x, y = stats[0], stats[1]
    x[...] = np.transpose(a, (2, 0, 1))
    y[...] = np.transpose(b, (2, 0, 1))
    np.add(x * x, y * y, out=stats[2])
    np.multiply(x, y, out=stats[3])
    mu_x, mu_y, sq_sum, xy = _filter_valid(stats)
    mu_xy = mu_x * mu_y
    # var_x + var_y as one difference: for a == b it is exactly 2*cov, so ssim(a, a) == 1.0
    mu_sq = mu_x * mu_x + mu_y * mu_y
    num = (2.0 * mu_xy + SSIM_C1) * (2.0 * (xy - mu_xy) + SSIM_C2)
    den = (mu_sq + SSIM_C1) * ((sq_sum - mu_sq) + SSIM_C2)
    per_channel = (num / den).reshape(num.shape[0], -1).mean(axis=1)
    return float(np.mean(per_channel))


# ------------------------------------------------------------- evaluation

def _fmt(v: float, digits: int) -> str:
    if math.isinf(v):
        return "inf"
    return f"{v:.{digits}f}"


@dataclass
class ImageScore:
    clean_path: str
    sigma: int
    psnr_db: float
    ssim: float
    mae: float


@dataclass
class MetricReport:
    """Per-image scores plus per-sigma and overall arithmetic means."""

    scores: list[ImageScore] = field(default_factory=list)

    def _mean(self, values: list[float]) -> float:
        # np.mean uses pairwise summation, keeping the aggregate order-stable
        return float(np.mean(np.array(values, dtype=np.float64)))

    def group_means(self) -> list[tuple[str, int, float, float, float]]:
        groups: dict[int, list[ImageScore]] = {}
        for s in self.scores:
            groups.setdefault(s.sigma, []).append(s)
        out = []
        for sigma in sorted(groups):
            ss = groups[sigma]
            out.append((str(sigma), len(ss),
                        self._mean([s.psnr_db for s in ss]),
                        self._mean([s.ssim for s in ss]),
                        self._mean([s.mae for s in ss])))
        out.append(("ALL", len(self.scores),
                    self._mean([s.psnr_db for s in self.scores]),
                    self._mean([s.ssim for s in self.scores]),
                    self._mean([s.mae for s in self.scores])))
        return out

    def to_tsv(self) -> str:
        lines = ["sigma\tn\tpsnr_mean\tssim_mean\tmae_mean"]
        for sigma, n, p, s, m in self.group_means():
            lines.append(f"{sigma}\t{n}\t{_fmt(p, 4)}\t{_fmt(s, 6)}\t{_fmt(m, 6)}")
        return "\n".join(lines) + "\n"


def evaluate_model(params, config, manifest: DatasetManifest, split: str,
                   unit_scale_psnr: bool = False) -> MetricReport:
    """Denoise every image of the split and score against its clean original.

    Outputs are quantized to 8 bits before scoring. With unit_scale_psnr the
    PSNR is instead computed on the raw [0,1] reconstruction with peak 1
    (SSIM stays in the 8-bit domain). MAE is reported on the [0,1] scale.
    """
    rows = manifest.split_rows(split)
    if not rows:
        raise ValueError(f"split {split!r} is empty")
    missing = manifest.missing_files(rows)
    if missing:
        raise FileNotFoundError(missing)

    report = MetricReport()
    for row in rows:
        clean = imageio.load_image(manifest.resolve(row))
        check_image_size(clean.shape[0], clean.shape[1], manifest.resolve(row))
        noisy = corrupt(clean, row.noise)
        x = imageio.to_batch([noisy])
        with no_grad():
            z = forward(x, config, params)
        restored = imageio.tensor_to_image(z)
        if unit_scale_psnr:
            z_hwc = np.transpose(z.data[0], (1, 2, 0)).astype(np.float64)
            psnr_db = psnr(z_hwc, clean.astype(np.float64) / 255.0, peak=1.0)
        else:
            psnr_db = psnr(restored, clean)
        report.scores.append(ImageScore(
            clean_path=row.clean_path,
            sigma=row.sigma,
            psnr_db=psnr_db,
            ssim=ssim(restored, clean),
            mae=float(np.mean(np.abs(
                restored.astype(np.float64) - clean.astype(np.float64)))) / 255.0,
        ))
    return report
