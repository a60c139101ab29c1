"""Finite-difference validation of every backward pass.

The oracle never touches the autodiff machinery: it re-evaluates the
forward map numerically around each scalar coordinate (central differences,
step 1e-5, float64) and compares against the gradients backward() produced.
The loss is a fixed random projection of the output so that every output
element influences the check.

Central differences are only a valid oracle where the map is differentiable.
Relu makes that a real concern: a pre-activation closer to zero than the FD
step times its sensitivity puts the probe inside the kink. Every case
therefore searches derived seeds deterministically until every relu input
clears a wide safety margin around zero; a case with no relu takes its first
seed. Biases are randomized too in block and model cases: at zero-bias init a
reduce conv fed only by relu outputs can land exactly on the kink.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import rng
from .layers import ConvSpec, avg_pool2d, conv2d, init_params, transposed_conv2d
from .model import (ModelConfig, build_params, forward, inception_block,
                    inception_reduction_block)
from .tensor import Tensor, no_grad, observe_ops

FD_STEP = 1e-5
LAYER_TOL = 1e-6
MODEL_TOL = 1e-4
KINK_MARGIN = 2e-4  # min |relu pre-activation| accepted at the probe point
MAX_PROBE_ATTEMPTS = 64


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float
    seconds: float
    group_errors: dict[str, float] | None = None

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}  {self.name:32s} max_rel_err={self.max_rel_err:.3e} "
                f"tol={self.tolerance:.0e} ({self.seconds:.2f}s)")

    def group_lines(self) -> list[str]:
        if not self.group_errors:
            return []
        return [f"    {group:40s} rel_err={err:.3e}"
                for group, err in self.group_errors.items()]


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-12)
    return float(np.max(np.abs(a - b))) / scale


def _random_tensor(seed: int, shape, low: float = -1.0, high: float = 1.0) -> Tensor:
    vals = rng.uniform(seed, int(np.prod(shape))) * (high - low) + low
    return Tensor(vals.reshape(shape), requires_grad=True, dtype=np.float64)


def _randomize_biases(params, seed: int) -> None:
    for i, (name, t) in enumerate(params.named_tensors().items()):
        if name.endswith(".bias"):
            vals = rng.uniform(rng.hash64(seed, name, i), t.size) * 0.4 - 0.2
            t.data[...] = vals.reshape(t.shape)


def _kink_distance(build: Callable[[], Tensor]) -> float:
    """The smallest |relu pre-activation| in one pass of `build`."""
    pre = []

    def observer(op: str, fn: Callable, args: tuple) -> Tensor:
        if op == "relu":
            pre.append(args[0].data)
        elif op == "conv2d" and args[1].relu:  # the fused layer's conv + bias, bit for bit
            pre.append(fn(args[0], replace(args[1], relu=False), args[2]).data)
        return fn(*args)

    with no_grad(), observe_ops(observer):
        build()
    return min((float(np.min(np.abs(a))) for a in pre), default=np.inf)


def _finite_difference(loss_fn: Callable[[], float],
                       targets: dict[str, Tensor]) -> dict[str, np.ndarray]:
    grads = {}
    for name, t in targets.items():
        flat = t.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            f_plus = loss_fn()
            flat[i] = orig - FD_STEP
            f_minus = loss_fn()
            flat[i] = orig
            g[i] = (f_plus - f_minus) / (2.0 * FD_STEP)
        grads[name] = g.reshape(t.shape)
    return grads


def _case(name: str, make: Callable[[int], tuple], tolerance: float,
          seed: int) -> CheckResult:
    """Compare backward() against central differences for one forward map.

    `make(case_seed)` returns (build, targets). The case is built at the first
    derived seed whose probe point is clear of every relu kink.
    """
    start = time.perf_counter()
    for attempt in range(MAX_PROBE_ATTEMPTS):
        build, targets = make(rng.hash64(seed, name, attempt))
        if _kink_distance(build) > KINK_MARGIN:
            break
    else:
        raise RuntimeError(f"{name}: no generic probe point in {MAX_PROBE_ATTEMPTS} attempts")
    out = build()
    proj = rng.uniform(rng.hash64("proj", name), out.size).reshape(out.shape) * 2.0 - 1.0
    loss = (out * Tensor(proj, dtype=np.float64)).sum()
    loss.backward()
    ad = {k: t.grad if t.grad is not None else np.zeros_like(t.data)
          for k, t in targets.items()}
    for t in targets.values():
        t.zero_grad()

    def loss_fn() -> float:
        with no_grad():
            return float(np.sum(build().data * proj))

    fd = _finite_difference(loss_fn, targets)
    group_errors = {k: relative_error(ad[k], fd[k]) for k in targets}
    return CheckResult(name=name, max_rel_err=max(group_errors.values()),
                       tolerance=tolerance, seconds=time.perf_counter() - start,
                       group_errors=group_errors)


def _layer_case(name: str, spec: ConvSpec, in_shape, seed: int) -> CheckResult:
    op = transposed_conv2d if spec.transposed else conv2d

    def make(case_seed: int):
        lp = init_params(spec, rng.hash64(case_seed, name, "params"), name=name,
                         dtype=np.float64)
        x = _random_tensor(rng.hash64(case_seed, name, "x"), in_shape)
        return (lambda: op(x, spec, lp)), {"x": x, "weight": lp.weight, "bias": lp.bias}

    return _case(name, make, LAYER_TOL, seed)


def check_layers(seed: int = 0) -> list[CheckResult]:
    def pool(case_seed: int):
        x = _random_tensor(rng.hash64(case_seed, "pool", "x"), (2, 3, 4, 6))
        return (lambda: avg_pool2d(x)), {"x": x}

    return [
        _layer_case("conv2d_3x3_same", ConvSpec(3, 4, kernel=3), (2, 3, 5, 6), seed),
        _layer_case("conv2d_3x3_stride2", ConvSpec(3, 4, kernel=3, stride=2), (1, 3, 6, 6), seed),
        _layer_case("conv2d_3x3_dilation2", ConvSpec(2, 3, kernel=3, dilation=2), (1, 2, 7, 7), seed),
        _layer_case("conv2d_3x3_relu", ConvSpec(3, 4, kernel=3, relu=True), (2, 3, 5, 6), seed),
        _layer_case("conv2d_2x2_valid", ConvSpec(2, 2, kernel=2, padding="valid"), (1, 2, 4, 5), seed),
        _layer_case("tconv_2x2_stride2", ConvSpec(3, 2, kernel=2, stride=2, transposed=True), (1, 3, 3, 3), seed),
        _layer_case("tconv_3x3_stride1", ConvSpec(2, 3, kernel=3, transposed=True), (1, 2, 4, 4), seed),
        _layer_case("tconv_3x3_stride2_dil2", ConvSpec(2, 2, kernel=3, stride=2, dilation=2, transposed=True), (1, 2, 3, 3), seed),
        _case("avg_pool_2x2", pool, LAYER_TOL, seed),
    ]


def check_blocks(seed: int = 0) -> list[CheckResult]:
    config = ModelConfig(input_channels=3, base_width=4, stage_widths=(6, 6, 6, 6),
                         branch_width=2)

    def maker(block: Callable, prefix: str, in_shape):
        def make(case_seed: int):
            params = build_params(config, case_seed, dtype=np.float64)
            _randomize_biases(params, rng.hash64(case_seed, "bias"))
            x = _random_tensor(rng.hash64(case_seed, "x"), in_shape)
            targets = {"x": x}
            targets.update({k: v for k, v in params.named_tensors().items()
                            if k.startswith(prefix)})
            return (lambda: block(x, params, prefix)), targets
        return make

    return [
        _case("inception_block",
              maker(inception_block, "enc1.inc", (1, 6, 8, 8)), LAYER_TOL, seed),
        _case("inception_reduction_block",
              maker(inception_reduction_block, "enc1.red", (1, 4, 8, 8)), LAYER_TOL, seed),
    ]


def check_model(seed: int = 0) -> list[CheckResult]:
    config = ModelConfig(input_channels=3, base_width=2, stage_widths=(2, 2, 2, 2),
                         branch_width=1)

    def make(case_seed: int):
        params = build_params(config, case_seed, dtype=np.float64)
        _randomize_biases(params, rng.hash64(case_seed, "bias"))
        x = _random_tensor(rng.hash64(case_seed, "x"), (1, 3, 16, 16),
                           low=0.05, high=0.95)
        targets = {"x": x}
        targets.update(params.named_tensors())
        return (lambda: forward(x, config, params)), targets

    return [_case("tiny_full_model", make, MODEL_TOL, seed)]


LEVELS = {
    "layer": check_layers,
    "block": check_blocks,
    "model": check_model,
}


def run(level: str, seed: int = 0) -> list[CheckResult]:
    """Run one level ('layer', 'block', 'model') or 'all'."""
    if level == "all":
        results = []
        for fn in LEVELS.values():
            results.extend(fn(seed=seed))
        return results
    if level not in LEVELS:
        raise ValueError(f"unknown gradcheck level {level!r}")
    return LEVELS[level](seed=seed)
