"""Binary checkpoint serialization.

Model checkpoint layout (all integers little-endian):

    magic "IRUN" | u32 version=1
    u32 field count, then per config field: u16 name length, name bytes, i64 value
    u32 parameter count, then per parameter:
        u16 name length, name bytes, u8 ndim, u32 dims..., float32 payload
    u32 CRC32 of everything prior

A training checkpoint inserts an optimizer section between the parameters
and the CRC: u64 step counter, then the first/second moment tensors encoded
exactly like parameters. The CRC always covers everything before it, so one
reader handles both flavors by the bytes remaining after the parameters.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, fields

import numpy as np

from .model import ModelConfig, ParamStore, layer_specs
from .layers import LayerParams
from .optim import AdamState
from .tensor import Tensor

MAGIC = b"IRUN"
VERSION = 1
# on-disk name stem of the entries of ModelConfig's one tuple field: stage_width_0..3
WIDTH_PREFIX = "stage_width_"


class CheckpointError(ValueError):
    """Malformed or inconsistent checkpoint file."""


def _config_fields(config: ModelConfig) -> list[tuple[str, int]]:
    """On-disk (name, value) pairs in field order; the tuple field expands in place."""
    pairs = []
    for f in fields(ModelConfig):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            pairs.extend((f"{WIDTH_PREFIX}{i}", v) for i, v in enumerate(value))
        else:
            pairs.append((f.name, value))
    return pairs


def _config_from_fields(stored: dict[str, int], path) -> ModelConfig:
    default = ModelConfig()
    expected = {name for name, _ in _config_fields(default)}
    got = set(stored)
    if got != expected:
        missing = sorted(expected - got)
        unknown = sorted(got - expected)
        raise CheckpointError(
            f"{path}: config field mismatch: missing {missing}, unknown {unknown}")
    values = {}
    for f in fields(ModelConfig):
        value = getattr(default, f.name)
        if isinstance(value, tuple):
            values[f.name] = tuple(stored[f"{WIDTH_PREFIX}{i}"] for i in range(len(value)))
        else:
            values[f.name] = stored[f.name]
    try:
        return ModelConfig(**values)
    except ValueError as e:
        raise CheckpointError(f"{path}: invalid stored config: {e}") from e


def _encode_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CheckpointError(f"name too long: {len(raw)} bytes, over {0xFFFF}: {name[:24]!r}...")
    return struct.pack("<H", len(raw)) + raw


def _encode_tensor(name: str, data: np.ndarray) -> bytes:
    if data.ndim > 0xFF:
        raise CheckpointError("tensor rank too large")
    parts = [_encode_name(name), struct.pack("<B", data.ndim)]
    parts.append(struct.pack(f"<{data.ndim}I", *data.shape))
    parts.append(np.ascontiguousarray(data, dtype="<f4").tobytes())
    return b"".join(parts)


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.pos = 0
        self.path = path  # named in every error

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self.take(8))[0]

    def name(self) -> str:
        raw = self.take(self.u16())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{self.path}: name is not UTF-8: {raw!r}") from None

    def tensor(self) -> tuple[str, np.ndarray]:
        name = self.name()
        ndim = self.u8()
        shape = struct.unpack(f"<{ndim}I", self.take(4 * ndim))
        count = math.prod(shape)  # exact: np.prod wraps at 2**63
        payload = self.take(4 * count)
        try:
            data = np.frombuffer(payload, dtype="<f4", count=count).reshape(shape)
        except ValueError as e:  # a rank past numpy's limit, or zero-sized dims overflowing
            raise CheckpointError(f"{self.path}: tensor {name!r}: {e}") from None
        return name, data.astype(np.float32)

    def remaining(self) -> int:
        return len(self.buf) - self.pos


def _serialize(params: ParamStore, config: ModelConfig,
               state: AdamState | None = None) -> bytes:
    parts = [MAGIC, struct.pack("<I", VERSION)]
    config_fields = _config_fields(config)
    parts.append(struct.pack("<I", len(config_fields)))
    for name, value in config_fields:
        parts.append(_encode_name(name) + struct.pack("<q", value))
    tensors = params.named_tensors()
    parts.append(struct.pack("<I", len(tensors)))
    for name, t in tensors.items():
        parts.append(_encode_tensor(name, t.data))
    if state is not None:
        parts.append(struct.pack("<Q", state.t))
        moments: list[tuple[str, np.ndarray]] = []
        for name in tensors:
            moments.append((f"{name}.m", state.m[name]))
            moments.append((f"{name}.v", state.v[name]))
        parts.append(struct.pack("<I", len(moments)))
        for name, arr in moments:
            parts.append(_encode_tensor(name, arr))
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _write(path, params: ParamStore, config: ModelConfig, state: AdamState | None) -> None:
    """Serialize first, so a rejected save leaves no file behind."""
    try:
        data = _serialize(params, config, state)
    except CheckpointError as e:
        raise CheckpointError(f"{path}: {e}") from None
    with open(path, "wb") as f:
        f.write(data)


def save_checkpoint(params: ParamStore, config: ModelConfig, path) -> None:
    """Write a model checkpoint; round trip is bit-exact for float32 data."""
    _write(path, params, config, None)


def save_training_checkpoint(params: ParamStore, config: ModelConfig,
                             state: AdamState, path) -> None:
    _write(path, params, config, state)


@dataclass
class LoadedCheckpoint:
    path: object  # the file it was read from, named in errors about its contents
    config: ModelConfig
    params: ParamStore
    state: AdamState | None


def _read_section(r: _Reader, what: str, shapes: dict[str, tuple[int, ...]]
                  ) -> dict[str, np.ndarray]:
    """Read a count, then exactly the tensors `shapes` names, each once, in its shape."""
    out: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name, data = r.tensor()
        if name in out:
            raise CheckpointError(f"{r.path}: duplicate {what} {name!r}")
        if name not in shapes:
            raise CheckpointError(f"{r.path}: unexpected {what} {name!r} for this config")
        if data.shape != shapes[name]:
            raise CheckpointError(f"{r.path}: {what} {name!r} has shape {data.shape}, "
                                  f"config requires {shapes[name]}")
        out[name] = data
    missing = sorted(set(shapes) - set(out))
    if missing:
        raise CheckpointError(f"{r.path}: missing {what}s {missing}")
    return out


def load_checkpoint(path) -> LoadedCheckpoint:
    """Parse and validate a checkpoint (model or training flavor)."""
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < len(MAGIC) + 8:
        raise CheckpointError(f"{path}: file too short to be a checkpoint")
    if buf[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {buf[:4]!r}")
    crc_stored = struct.unpack("<I", buf[-4:])[0]
    crc_actual = zlib.crc32(buf[:-4]) & 0xFFFFFFFF
    if crc_stored != crc_actual:
        raise CheckpointError(
            f"{path}: CRC mismatch (stored {crc_stored:#010x}, computed {crc_actual:#010x})")

    r = _Reader(buf[:-4], path)
    r.take(4)  # magic, already checked
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")

    stored: dict[str, int] = {}
    for _ in range(r.u32()):
        name = r.name()
        if name in stored:
            raise CheckpointError(f"{path}: duplicate config field {name!r}")
        stored[name] = r.i64()
    config = _config_from_fields(stored, path)

    specs = layer_specs(config)
    shapes = {}
    for lname, spec in specs:
        shapes[f"{lname}.weight"] = spec.weight_shape
        shapes[f"{lname}.bias"] = spec.bias_shape
    loaded = _read_section(r, "parameter", shapes)

    params = ParamStore()
    for lname, spec in specs:
        params.add(LayerParams(
            name=lname, spec=spec,
            weight=Tensor(loaded[f"{lname}.weight"], requires_grad=True),
            bias=Tensor(loaded[f"{lname}.bias"], requires_grad=True),
        ))

    state: AdamState | None = None
    if r.remaining() > 0:
        step = r.u64()
        moments = _read_section(r, "optimizer tensor", {
            f"{name}.{kind}": shape for name, shape in shapes.items() for kind in "mv"})
        state = AdamState(m={name: moments[f"{name}.m"] for name in shapes},
                          v={name: moments[f"{name}.v"] for name in shapes}, t=step)
    if r.remaining() != 0:
        raise CheckpointError(f"{path}: {r.remaining()} trailing bytes after payload")
    return LoadedCheckpoint(path=path, config=config, params=params, state=state)
