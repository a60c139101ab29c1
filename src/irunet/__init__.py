"""Lightweight multiscale inception-residual encoder-decoder image denoiser.

Built from scratch: dense tensors with reverse-mode autodiff, convolution
layers, the block architecture, AWGN dataset tooling, PSNR/SSIM metrics and
an Adam training loop, all behind one CLI (`irunet`).
"""

from .tensor import Tensor, concat_channels, no_grad
from .layers import ConvSpec, LayerParams, avg_pool2d, conv2d, init_params, transposed_conv2d
from .model import (ModelConfig, ParamStore, build_params, forward,
                    inception_block, inception_reduction_block, layer_specs, param_count)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint, save_training_checkpoint
from .noise import NoiseSpec, corrupt
from .data import DatasetManifest, ManifestRow, build_manifest
from .imageio import ImageFormatError, load_image, quantize, save_image, to_batch
from .metrics import MetricReport, evaluate_model, mae_loss, psnr, ssim
from .optim import AdamState, adam_step
from .train import NonFiniteLossError, TrainConfig, TrainResult, train

__version__ = "0.1.0"

__all__ = [
    "Tensor", "concat_channels", "no_grad",
    "ConvSpec", "LayerParams", "avg_pool2d", "conv2d", "init_params", "transposed_conv2d",
    "ModelConfig", "ParamStore", "build_params", "forward",
    "inception_block", "inception_reduction_block", "layer_specs", "param_count",
    "CheckpointError", "load_checkpoint", "save_checkpoint", "save_training_checkpoint",
    "NoiseSpec", "corrupt",
    "DatasetManifest", "ManifestRow", "build_manifest",
    "ImageFormatError", "load_image", "quantize", "save_image", "to_batch",
    "MetricReport", "evaluate_model", "mae_loss", "psnr", "ssim",
    "AdamState", "adam_step",
    "NonFiniteLossError", "TrainConfig", "TrainResult", "train",
    "__version__",
]
