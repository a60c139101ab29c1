"""Training loss and reconstruction quality metrics.

PSNR and SSIM are computed in the quantized 8-bit domain with peak 255,
the native scale of the data; PSNR over all pixels and channels jointly
(one MSE). SSIM is the single-scale formulation: 11x11 Gaussian window
(sigma 1.5), C1=(0.01*255)^2, C2=(0.03*255)^2, per channel, averaged over
valid window positions and then over channels.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import checkpoint, imageio
from .data import DatasetManifest
from .model import forward
from .noise import NoiseSpec, corrupt
from .tensor import Tensor, no_grad

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = (0.01 * 255.0) ** 2
SSIM_C2 = (0.03 * 255.0) ** 2


def mae_loss(z: Tensor, x: Tensor) -> Tensor:
    """Mean absolute error, differentiable; subgradient 0 at exact ties."""
    if z.shape != x.shape:
        raise ValueError(f"shape mismatch: {z.shape} vs {x.shape}")
    return (z - x).abs_mean()


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


def _filter_valid(img: np.ndarray) -> np.ndarray:
    """Separable Gaussian correlation, valid positions only."""
    t = sliding_window_view(img, SSIM_WINDOW, axis=0)
    t = np.tensordot(t, _WINDOW_1D, axes=([2], [0]))
    t = sliding_window_view(t, SSIM_WINDOW, axis=1)
    return np.tensordot(t, _WINDOW_1D, axes=([2], [0]))


def _ssim_channel(x: np.ndarray, y: np.ndarray) -> float:
    mu_x = _filter_valid(x)
    mu_y = _filter_valid(y)
    var_x = _filter_valid(x * x) - mu_x * mu_x
    var_y = _filter_valid(y * y) - mu_y * mu_y
    cov = _filter_valid(x * y) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_x * mu_x + mu_y * mu_y + SSIM_C1) * (var_x + var_y + SSIM_C2)
    return float(np.mean(num / den))


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
    x = a.astype(np.float64)
    y = b.astype(np.float64)
    return float(np.mean([_ssim_channel(x[:, :, c], y[:, :, c]) for c in range(x.shape[2])]))


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
                   unit_scale_psnr: bool = False, denoiser=None) -> MetricReport:
    """Denoise every image of the split and score against its clean original.

    Outputs are quantized to 8 bits before scoring. With unit_scale_psnr the
    PSNR is instead computed on the raw [0,1] reconstruction with peak 1
    (SSIM stays in the 8-bit domain). MAE is reported on the [0,1] scale.
    `denoiser` overrides the model forward pass (e.g. an identity stub for
    pipeline checks); it receives and returns a [1,3,H,W] tensor.
    """
    rows = manifest.split_rows(split)
    if not rows:
        raise ValueError(f"split {split!r} is empty")
    missing = [manifest.resolve(r) for r in rows if not os.path.isfile(manifest.resolve(r))]
    if missing:
        listing = "\n  ".join(dict.fromkeys(missing))
        raise FileNotFoundError(f"missing clean files:\n  {listing}")
    if denoiser is None:
        denoiser = lambda x: forward(x, config, params)

    report = MetricReport()
    for row in rows:
        clean = imageio.load_image(manifest.resolve(row))
        noisy = corrupt(clean, NoiseSpec(sigma=float(row.sigma), seed=row.seed))
        x = imageio.to_batch([noisy])
        with no_grad():
            z = denoiser(x)
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


def evaluate(checkpoint_path, manifest: DatasetManifest, split: str,
             unit_scale_psnr: bool = False) -> MetricReport:
    """Load a checkpoint and score it on one split of the manifest."""
    loaded = checkpoint.load_checkpoint(checkpoint_path)
    return evaluate_model(loaded.params, loaded.config, manifest, split,
                          unit_scale_psnr=unit_scale_psnr)
