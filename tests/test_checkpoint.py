import hashlib
import struct
import zlib

import numpy as np
import pytest

from irunet import rng
from irunet.checkpoint import (CheckpointError, load_checkpoint, save_checkpoint,
                               save_training_checkpoint)
from irunet.layers import ConvSpec, init_params
from irunet.model import ModelConfig, build_params, forward, layer_specs, param_count
from irunet.optim import AdamState
from irunet.tensor import Tensor, no_grad

CFG = ModelConfig(input_channels=3, base_width=4, stage_widths=(4, 6, 8, 10),
                  branch_width=2)


def fixed_input(seed=21):
    vals = rng.uniform(seed, 3 * 32 * 32).reshape(1, 3, 32, 32).astype(np.float32)
    return Tensor(vals)


def test_round_trip_bit_exact_forward(tmp_path):
    params = build_params(CFG, 10)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, CFG, path)
    loaded = load_checkpoint(path)
    assert loaded.config == CFG
    assert loaded.state is None
    x = fixed_input()
    with no_grad():
        a = forward(x, CFG, params)
        b = forward(x, loaded.config, loaded.params)
    assert np.array_equal(a.data, b.data)


def test_header_byte_corruption_rejected(tmp_path):
    params = build_params(CFG, 10)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, CFG, path)
    buf = bytearray(path.read_bytes())
    buf[2] ^= 0xFF  # inside the magic
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(buf))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad)


def test_payload_byte_corruption_fails_crc(tmp_path):
    params = build_params(CFG, 10)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, CFG, path)
    buf = bytearray(path.read_bytes())
    buf[len(buf) // 2] ^= 0x01
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(buf))
    with pytest.raises(CheckpointError, match="CRC"):
        load_checkpoint(bad)


def test_truncation_rejected(tmp_path):
    params = build_params(CFG, 10)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, CFG, path)
    bad = tmp_path / "short.ckpt"
    bad.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


def test_version_mismatch_rejected(tmp_path):
    import zlib

    params = build_params(CFG, 10)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, CFG, path)
    buf = bytearray(path.read_bytes())
    struct.pack_into("<I", buf, 4, 99)  # version field
    body = bytes(buf[:-4])
    patched = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    bad = tmp_path / "v99.ckpt"
    bad.write_bytes(patched)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad)


def test_shape_disagreement_with_config_rejected(tmp_path):
    other = ModelConfig(input_channels=3, base_width=6, stage_widths=(6, 8, 10, 12),
                        branch_width=2)
    params_other = build_params(other, 11)
    path = tmp_path / "mismatch.ckpt"
    save_checkpoint(params_other, CFG, path)  # params do not match the stored config
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_payload_size_accounting(tmp_path):
    # file length is exactly header + names/dims overhead + 4 bytes per scalar + CRC
    config = ModelConfig()
    params = build_params(config, 12)
    path = tmp_path / "default.ckpt"
    save_checkpoint(params, config, path)

    expected = 4 + 4  # magic + version
    config_fields = 11
    field_names = ["input_channels", "base_width", "stage_width_0", "stage_width_1",
                   "stage_width_2", "stage_width_3", "kernel", "dilation_rate",
                   "branch_width", "sigma_low", "sigma_high"]
    expected += 4 + sum(2 + len(n) + 8 for n in field_names)
    assert len(field_names) == config_fields
    tensor_names = []
    for name, spec in layer_specs(config):
        tensor_names.append((f"{name}.weight", len(spec.weight_shape)))
        tensor_names.append((f"{name}.bias", 1))
    expected += 4 + sum(2 + len(n) + 1 + 4 * ndim for n, ndim in tensor_names)
    expected += 4 * param_count(config)  # float32 payload scalars
    expected += 4  # CRC
    assert path.stat().st_size == expected

    loaded = load_checkpoint(path)
    assert sum(t.size for t in loaded.params.named_tensors().values()) == param_count(config)


def test_training_checkpoint_round_trip(tmp_path):
    params = build_params(CFG, 13)
    state = AdamState.initial(params)
    state.t = 42
    for name in state.m:
        state.m[name] += 0.5
        state.v[name] += 0.25
    path = tmp_path / "train.ckpt"
    save_training_checkpoint(params, CFG, state, path)
    loaded = load_checkpoint(path)
    assert loaded.state is not None
    assert loaded.state.t == 42
    for name in state.m:
        assert np.array_equal(loaded.state.m[name], state.m[name].astype(np.float32))
        assert np.array_equal(loaded.state.v[name], state.v[name].astype(np.float32))


def test_not_a_checkpoint_rejected(tmp_path):
    bad = tmp_path / "junk.ckpt"
    bad.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


# Every field off its default; sizes and hashes recorded from the format-1
# writer before the config field list was derived from ModelConfig.
FIXTURE_CFG = ModelConfig(input_channels=1, base_width=2, stage_widths=(2, 3, 4, 5), kernel=5,
                          dilation_rate=3, branch_width=1, sigma_low=5, sigma_high=40)


@pytest.mark.parametrize("training, size, sha256", [
    (False, 16036, "25543d513d9b275bcfdec2594d1d06e9018b85f3a55493bf2b6f15a2ffb5cb2c"),
    (True, 48072, "5f9ba9e5544867ef496638503ddff1e3df7d541954b9c9df0bba896135904bb8"),
])
def test_bytes_match_format_1_fixture(tmp_path, training, size, sha256):
    params = build_params(FIXTURE_CFG, 7)
    path = tmp_path / "fixture.ckpt"
    if training:
        state = AdamState.initial(params)
        state.t = 3
        save_training_checkpoint(params, FIXTURE_CFG, state, path)
    else:
        save_checkpoint(params, FIXTURE_CFG, path)
    buf = path.read_bytes()
    assert len(buf) == size
    assert hashlib.sha256(buf).hexdigest() == sha256
    assert load_checkpoint(path).config == FIXTURE_CFG


def long_named_params(seed):
    """Valid parameters plus one layer whose name encodes to more than 65,535 bytes."""
    params = build_params(CFG, seed)
    params.add(init_params(ConvSpec(1, 1, kernel=1), seed, name="x" * 0x10000))
    return params


def save(params, path, training):
    if training:
        save_training_checkpoint(params, CFG, AdamState.initial(params), path)
    else:
        save_checkpoint(params, CFG, path)


@pytest.mark.parametrize("training", [False, True])
def test_save_rejected_while_serializing_creates_no_file(tmp_path, training):
    path = tmp_path / "rejected.ckpt"
    # the first tensor named, "x" * 65536 + ".weight", encodes to 65543 bytes
    with pytest.raises(CheckpointError, match="name too long: 65543 bytes") as err:
        save(long_named_params(14), path, training)
    assert str(err.value).startswith(f"{path}: ")
    assert len(str(err.value)) < len(str(path)) + 80  # a prefix of the name, not all of it
    assert not path.exists()


@pytest.mark.parametrize("training", [False, True])
def test_save_rejected_while_serializing_leaves_existing_file_intact(tmp_path, training):
    path = tmp_path / "kept.ckpt"
    save_checkpoint(build_params(CFG, 15), CFG, path)
    before = path.read_bytes()
    with pytest.raises(CheckpointError, match="name too long"):
        save(long_named_params(15), path, training)
    assert path.read_bytes() == before


def patched_config_file(tmp_path, old: bytes, new: bytes):
    """A valid checkpoint with one run of header bytes replaced and the CRC redone."""
    path = tmp_path / "patched.ckpt"
    save_checkpoint(build_params(CFG, 16), CFG, path)
    buf = path.read_bytes()
    assert buf.count(old) == 1
    body = buf[:-4].replace(old, new)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    return path


def test_invalid_stored_config_is_checkpoint_error_naming_file(tmp_path):
    name = b"\x09\x00sigma_low"
    path = patched_config_file(tmp_path, name + struct.pack("<q", CFG.sigma_low),
                               name + struct.pack("<q", 60))
    with pytest.raises(CheckpointError, match="sigma range") as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")


def test_config_field_mismatch_names_file(tmp_path):
    path = patched_config_file(tmp_path, b"sigma_low", b"sigma_lox")
    with pytest.raises(CheckpointError, match="field mismatch") as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")
    assert "sigma_lox" in str(err.value)


FIRST_PARAM = layer_specs(CFG)[0][0].encode() + b".weight"


def split_at_param_count(tmp_path):
    """A valid checkpoint body as (bytes before the parameter count, the count,
    the parameters and everything after them, CRC excluded)."""
    path = tmp_path / "valid.ckpt"
    save_checkpoint(build_params(CFG, 17), CFG, path)
    body = path.read_bytes()[:-4]
    start = body.index(struct.pack("<H", len(FIRST_PARAM)) + FIRST_PARAM)
    return body[:start - 4], struct.unpack("<I", body[start - 4:start])[0], body[start:]


def with_valid_crc(tmp_path, body: bytes):
    path = tmp_path / "crafted.ckpt"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    return path


def test_dims_overflowing_int64_are_checkpoint_error_naming_file(tmp_path):
    # 2**31 * 2**31 * 4 == 2**64 elements: a wrapped int64 product would read 0
    before, count, _ = split_at_param_count(tmp_path)
    path = with_valid_crc(tmp_path, before + struct.pack("<IH", count, len(FIRST_PARAM))
                          + FIRST_PARAM + struct.pack("<B3I", 3, 2**31, 2**31, 4))
    with pytest.raises(CheckpointError, match="truncated") as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")


def test_non_utf8_name_is_checkpoint_error_naming_file(tmp_path):
    path = patched_config_file(tmp_path, b"sigma_low", b"sigma_lo\xff")
    with pytest.raises(CheckpointError, match="UTF-8") as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")


def test_count_past_the_end_is_checkpoint_error_naming_file(tmp_path):
    before, count, params = split_at_param_count(tmp_path)
    path = with_valid_crc(tmp_path, before + struct.pack("<I", count + 1) + params)
    with pytest.raises(CheckpointError, match="truncated") as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")


def encode_tensor(name: str, data: np.ndarray) -> bytes:
    raw = name.encode()
    return (struct.pack("<H", len(raw)) + raw
            + struct.pack(f"<B{data.ndim}I", data.ndim, *data.shape) + data.astype("<f4").tobytes())


def encode_section(entries) -> bytes:
    return struct.pack("<I", len(entries)) + b"".join(encode_tensor(n, a) for n, a in entries)


SECTION_FAULTS = {  # fault -> (entries -> faulty entries, what the error says)
    "duplicate": (lambda entries: entries + entries[:1], "duplicate"),
    "unexpected": (lambda entries: entries + [("bogus", np.zeros(1))], "unexpected"),
    "wrong shape": (lambda entries: [(entries[0][0], np.zeros(1))] + entries[1:], "has shape"),
    "missing": (lambda entries: entries[:-1], "missing"),
}


@pytest.mark.parametrize("section, fault", [
    *[(section, fault) for section in ("parameter", "optimizer tensor")
      for fault in SECTION_FAULTS],
    (None, "trailing bytes"),
])
def test_malformed_section_is_checkpoint_error_naming_file(tmp_path, section, fault):
    before, _, _ = split_at_param_count(tmp_path)
    tensors = build_params(CFG, 18).named_tensors()
    sections = {
        "parameter": [(name, t.data) for name, t in tensors.items()],
        "optimizer tensor": [(f"{name}.{kind}", np.full(t.shape, 0.5))
                             for name, t in tensors.items() for kind in "mv"],
    }
    tail, expected = b"\x00" * 3, "3 trailing bytes after payload"
    if section is not None:
        make_faulty, expected = SECTION_FAULTS[fault]
        sections[section] = make_faulty(sections[section])
        tail = b""
    path = with_valid_crc(tmp_path, before + encode_section(sections["parameter"])
                          + struct.pack("<Q", 5) + encode_section(sections["optimizer tensor"])
                          + tail)
    with pytest.raises(CheckpointError, match=expected) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")
    assert section is None or section in str(err.value)


def test_seeded_mutations_load_or_raise_checkpoint_error_naming_file(tmp_path):
    tiny = ModelConfig(input_channels=3, base_width=2, stage_widths=(2, 2, 2, 2),
                       branch_width=1)
    params = build_params(tiny, 19)
    state = AdamState.initial(params)
    state.t = 7
    src = tmp_path / "tiny.ckpt"
    save_training_checkpoint(params, tiny, state, src)
    good = src.read_bytes()
    path = tmp_path / "mutated.ckpt"
    rejected = []
    for i in range(200):
        u = rng.uniform(rng.hash64("ckpt-fuzz", i), 2)
        pos = int(u[0] * len(good))
        if i % 3 == 0:  # truncation
            buf = good[:pos]
        elif i % 3 == 1:  # bit flip
            buf = bytearray(good)
            buf[pos] ^= 1 << int(u[1] * 8)
            buf = bytes(buf)
        else:  # byte insertion
            buf = good[:pos] + bytes([int(u[1] * 256)]) + good[pos:]
        if i % 2 and len(buf) >= 4:  # a valid CRC lets the mutation reach the section reader
            buf = buf[:-4] + struct.pack("<I", zlib.crc32(buf[:-4]) & 0xFFFFFFFF)
        path.write_bytes(buf)
        try:
            load_checkpoint(path)
        except CheckpointError as e:
            assert str(e).startswith(f"{path}: "), (i, str(e))
            rejected.append(str(e))
    assert len(rejected) > 100
    assert any("optimizer tensor" in message for message in rejected)
