"""Outside-in tracing: timing wrappers around irunet's public functions.

For a traced run the benchmark replaces module attributes of irunet with
wrappers that record one span per call: name, start, end, parent span and
the unit of work (train step, denoised file, evaluate pass) it ran in.
Conv, pooling and concat outputs also get their `_backward` closure wrapped,
so backward time is attributed per conv geometry. Spans stay in memory and
are reduced to per-layer metrics, and written to the trace file, once the run
ends. Nothing under src/ knows about this module.

FLOP and byte counts are computed from each call's ConvSpec (which comes
from `layer_specs`) and its activation shapes, not measured: they are
labelled "computed" and repeat exactly from run to run.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time

import numpy as np

from irunet import checkpoint, data, imageio, layers, metrics, model
from irunet.tensor import Tensor

# the package re-exports the function train() under the submodule's name
train = importlib.import_module("irunet.train")

GEOMETRIES = ("conv3x3", "conv3x3_d2", "conv3x3_s2", "conv1x1", "conv1x1_s2",
              "tconv2x2_s2", "avgpool2x2")
FLOAT_BYTES = 4

# span fields
NAME, START, END, PARENT, UNIT, ATTRS = range(6)


def geometry(spec: layers.ConvSpec) -> str:
    """Geometry label of a conv spec, e.g. conv3x3_d2 or tconv2x2_s2."""
    kh, kw = spec.kernel
    label = f"{'t' if spec.transposed else ''}conv{kh}x{kw}"
    if spec.dilation != (1, 1):
        label += f"_d{spec.dilation[0]}"
    if spec.stride != (1, 1):
        label += f"_s{spec.stride[0]}"
    return label


def conv_counts(spec: layers.ConvSpec, x_shape) -> dict:
    """Computed FLOPs and bytes of one conv call, forward and backward.

    Forward reads x and the weight and writes y; backward reads g, x and
    the weight and writes grad_x and grad_w, at twice the forward FLOPs.
    """
    n, c, h, w = x_shape
    kh, kw = spec.kernel
    if spec.transposed:
        out_hw = h * spec.stride[0] * w * spec.stride[1]
        macs = n * h * w * c * spec.out_channels * kh * kw
    else:
        out_h = layers.conv_output_size(h, kh, spec.stride[0], spec.dilation[0], spec.padding)
        out_w = layers.conv_output_size(w, kw, spec.stride[1], spec.dilation[1], spec.padding)
        out_hw = out_h * out_w
        macs = n * out_hw * spec.out_channels * c * kh * kw
    x_size = n * c * h * w
    y_size = n * spec.out_channels * out_hw
    w_size = spec.in_channels * spec.out_channels * kh * kw
    return {"fwd_flop": 2 * macs, "bwd_flop": 4 * macs,
            "fwd_bytes": FLOAT_BYTES * (x_size + w_size + y_size),
            "bwd_bytes": FLOAT_BYTES * (y_size + 2 * x_size + 2 * w_size)}


def pool_counts(x_shape) -> dict:
    """Computed counts of a 2x2 average pool: one add per input element each way."""
    x_size = int(np.prod(x_shape))
    moved = FLOAT_BYTES * (x_size + x_size // 4)
    return {"fwd_flop": x_size, "bwd_flop": x_size, "fwd_bytes": moved, "bwd_bytes": moved}


def graph_size(root: Tensor) -> int:
    """Nodes the backward sweep from root visits."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Span recorder; `installed()` patches irunet for the duration of a block."""

    def __init__(self):
        self.spans: list[list] = []
        self.unit = -1  # -1 is set-up; the workload advances it per unit of work
        self.graph_nodes = 0
        self._open: list[int] = []

    def call(self, name: str, attrs: dict | None, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.unit, attrs]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            self._open.pop()

    def _plain(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, None, fn, *args, **kwargs)
        return wrapper

    def _traced_backward(self, out: Tensor, name: str, attrs: dict | None) -> None:
        inner = out._backward
        if inner is not None:
            out._backward = lambda g: self.call(name, attrs, inner, g)

    def _conv(self, fn):
        def wrapper(x, spec, params):
            geom = geometry(spec)
            counts = conv_counts(spec, x.shape)
            fwd = {"layer": params.name, "flop": counts["fwd_flop"], "bytes": counts["fwd_bytes"]}
            bwd = {"layer": params.name, "flop": counts["bwd_flop"], "bytes": counts["bwd_bytes"]}
            out = self.call(f"layers.{geom}.fwd", fwd, fn, x, spec, params)
            self._traced_backward(out, f"layers.{geom}.bwd", bwd)
            return out
        return wrapper

    def _pool(self, fn):
        def wrapper(x, *args, **kwargs):
            counts = pool_counts(x.shape)
            fwd = {"layer": "avgpool", "flop": counts["fwd_flop"], "bytes": counts["fwd_bytes"]}
            bwd = {"layer": "avgpool", "flop": counts["bwd_flop"], "bytes": counts["bwd_bytes"]}
            out = self.call("layers.avgpool2x2.fwd", fwd, fn, x, *args, **kwargs)
            self._traced_backward(out, "layers.avgpool2x2.bwd", bwd)
            return out
        return wrapper

    def _concat(self, fn):
        def wrapper(parts):
            out = self.call("tensor.concat", None, fn, parts)
            self._traced_backward(out, "tensor.concat_bwd", None)
            return out
        return wrapper

    def _backward(self, fn):
        def wrapper(root):
            # every step builds the same graph: count it once, in the untimed warm-up step
            if not self.graph_nodes:
                self.graph_nodes = graph_size(root)
            return self.call("tensor.backward", None, fn, root)
        return wrapper

    def _materialize(self, fn):
        def wrapper(manifest, batch_rows, *args, **kwargs):
            return self.call("data.materialize_batch", {"rows": len(batch_rows)},
                             fn, manifest, batch_rows, *args, **kwargs)
        return wrapper

    def _load_image(self, fn):
        def wrapper(path):
            attrs: dict = {}
            img = self.call("imageio.load_image", attrs, fn, path)
            attrs["pixels"] = img.shape[0] * img.shape[1]
            return img
        return wrapper

    def _checkpoint(self, name: str, fn, path_arg: int):
        def wrapper(*args):
            attrs: dict = {}
            result = self.call(name, attrs, fn, *args)
            attrs["bytes"] = os.path.getsize(args[path_arg])
            return result
        return wrapper

    def _patches(self):
        """(owner, attribute, wrapper) for every call site the workloads reach."""
        plain = self._plain
        return [
            (model, "conv2d", self._conv(model.conv2d)),
            (model, "transposed_conv2d", self._conv(model.transposed_conv2d)),
            (model, "avg_pool2d", self._pool(model.avg_pool2d)),
            (model, "concat_channels", self._concat(model.concat_channels)),
            (model, "forward", plain("model.forward", model.forward)),
            (train, "forward", plain("model.forward", train.forward)),
            (metrics, "forward", plain("model.forward", metrics.forward)),
            (train, "materialize_batch", self._materialize(train.materialize_batch)),
            (train, "adam_step", plain("optim.adam_step", train.adam_step)),
            (train, "mae_loss", plain("metrics.mae_loss", train.mae_loss)),
            (Tensor, "backward", self._backward(Tensor.backward)),
            (metrics, "ssim", plain("metrics.ssim", metrics.ssim)),
            (metrics, "psnr", plain("metrics.psnr", metrics.psnr)),
            (metrics, "corrupt", plain("noise.corrupt", metrics.corrupt)),
            (data, "corrupt", plain("noise.corrupt", data.corrupt)),
            (imageio, "load_image", self._load_image(imageio.load_image)),
            (imageio, "save_image", plain("imageio.save_image", imageio.save_image)),
            (imageio, "to_batch", plain("imageio.to_batch", imageio.to_batch)),
            (imageio, "tensor_to_image", plain("imageio.tensor_to_image", imageio.tensor_to_image)),
            (checkpoint, "save_training_checkpoint",
             self._checkpoint("checkpoint.save", checkpoint.save_training_checkpoint, -1)),
            (checkpoint, "load_checkpoint",
             self._checkpoint("checkpoint.load", checkpoint.load_checkpoint, 0)),
        ]

    @contextlib.contextmanager
    def installed(self):
        patches = self._patches()
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)


# ------------------------------------------------------------ reduction

def _self_times(spans: list[list]) -> np.ndarray:
    dur = np.array([s[END] - s[START] for s in spans])
    child = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            child[s[PARENT]] += d
    return dur - child


def per_layer_metrics(tracer: Tracer, timed_units: list[tuple[int, float, float]],
                      step_units: bool) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit).

    Times, calls and computed counts are per unit of work, over the timed
    units (the warm-up unit and set-up excluded); checkpoint figures are per
    call over the whole run, because saves are periodic and loads happen in
    set-up. `step_units` says the units are train steps, so the step's own
    time outside its traced calls is reported as train.step_self_s.
    """
    spans = tracer.spans
    n_units = max(len(timed_units), 1)
    timed = {u for u, _, _ in timed_units}
    self_t = _self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    flop: dict[str, float] = {}
    moved: dict[str, float] = {}
    top_level: dict[int, float] = {}
    rows = loads_in_batches = pixels = 0
    for s, st in zip(spans, self_t):
        name, dur, attrs = s[NAME], s[END] - s[START], s[ATTRS] or {}
        if s[UNIT] not in timed:
            continue
        total[name] = total.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + st
        calls[name] = calls.get(name, 0) + 1
        flop[name] = flop.get(name, 0.0) + attrs.get("flop", 0)
        moved[name] = moved.get(name, 0.0) + attrs.get("bytes", 0)
        if s[PARENT] < 0:
            top_level[s[UNIT]] = top_level.get(s[UNIT], 0.0) + dur
        if name == "data.materialize_batch":
            rows += attrs["rows"]
        elif name == "imageio.load_image":
            pixels += attrs["pixels"]
            if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "data.materialize_batch":
                loads_in_batches += 1

    def per_unit(name: str, table: dict = total) -> float:
        return table.get(name, 0.0) / n_units

    out: dict[str, tuple[float, str]] = {}
    for g in GEOMETRIES:
        fwd, bwd = f"layers.{g}.fwd", f"layers.{g}.bwd"
        busy = per_unit(fwd) + per_unit(bwd)
        gflop = (flop.get(fwd, 0.0) + flop.get(bwd, 0.0)) / 1e9 / n_units
        out[f"layers.{g}.fwd_s"] = (per_unit(fwd), "s")
        out[f"layers.{g}.bwd_s"] = (per_unit(bwd), "s")
        out[f"layers.{g}.calls"] = (calls.get(fwd, 0) / n_units, "count")
        out[f"layers.{g}.gflop"] = (gflop, "GFLOP")
        out[f"layers.{g}.mbytes"] = ((moved.get(fwd, 0.0) + moved.get(bwd, 0.0)) / 1e6 / n_units,
                                     "MB")
        out[f"layers.{g}.gflop_per_s"] = (gflop / busy if busy > 0 else 0.0, "GFLOP/s")
    out["tensor.backward_s"] = (per_unit("tensor.backward"), "s")
    out["tensor.backward_self_s"] = (per_unit("tensor.backward", own), "s")
    out["tensor.concat_s"] = (per_unit("tensor.concat") + per_unit("tensor.concat_bwd"), "s")
    out["tensor.graph_nodes"] = (float(tracer.graph_nodes), "count")
    out["model.forward_s"] = (per_unit("model.forward"), "s")
    out["model.forward_self_s"] = (per_unit("model.forward", own), "s")
    out["optim.adam_step_s"] = (per_unit("optim.adam_step"), "s")
    out["data.materialize_batch_s"] = (per_unit("data.materialize_batch"), "s")
    out["data.image_cache_hit_ratio"] = (1.0 - loads_in_batches / rows if rows else 0.0, "ratio")
    out["noise.corrupt_s"] = (per_unit("noise.corrupt"), "s")
    load_s = total.get("imageio.load_image", 0.0)
    out["imageio.load_image_s"] = (per_unit("imageio.load_image"), "s")
    out["imageio.decode_mpix_per_s"] = (pixels / 1e6 / load_s if load_s > 0 else 0.0, "Mpix/s")
    out["imageio.save_image_s"] = (per_unit("imageio.save_image"), "s")
    out["imageio.to_batch_s"] = (per_unit("imageio.to_batch"), "s")
    out["imageio.tensor_to_image_s"] = (per_unit("imageio.tensor_to_image"), "s")
    out["metrics.ssim_s"] = (per_unit("metrics.ssim"), "s")
    out["metrics.psnr_s"] = (per_unit("metrics.psnr"), "s")
    out["metrics.mae_loss_s"] = (per_unit("metrics.mae_loss"), "s")
    for op in ("save", "load"):
        ck = [s for s in spans if s[NAME] == f"checkpoint.{op}"]
        out[f"checkpoint.{op}_s"] = (
            float(np.mean([s[END] - s[START] for s in ck])) if ck else 0.0, "s")
    ck = [s for s in spans if s[NAME].startswith("checkpoint.")]
    out["checkpoint.bytes"] = (float(np.mean([s[ATTRS]["bytes"] for s in ck])) if ck else 0.0,
                               "bytes")
    step_self = [(end - start) - top_level.get(u, 0.0) for u, start, end in timed_units]
    out["train.step_self_s"] = (float(np.mean(step_self)) if step_units and step_self else 0.0,
                                "s")
    return out


def named_layer_table(spans: list[list], timed_units) -> dict[str, dict]:
    """Per named layer (enc1.red.b1, ...): geometry, seconds and computed GFLOP per unit."""
    n_units = max(len(timed_units), 1)
    timed = {u for u, _, _ in timed_units}
    table: dict[str, dict] = {}
    for s in spans:
        if s[UNIT] not in timed or not s[NAME].startswith("layers."):
            continue
        _, geom, phase = s[NAME].split(".")
        row = table.setdefault(s[ATTRS]["layer"], {
            "geometry": geom, "calls": 0.0, "fwd_s": 0.0, "bwd_s": 0.0, "computed_gflop": 0.0})
        row[f"{phase}_s"] += (s[END] - s[START]) / n_units
        row["computed_gflop"] += s[ATTRS]["flop"] / 1e9 / n_units
        if phase == "fwd":
            row["calls"] += 1 / n_units
    return table
