import os
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

from irunet import imageio, rng
from irunet.imageio import (ImageFormatError, PNG_SIGNATURE, load_image, quantize,
                            save_image, tensor_to_image, to_batch)

from conftest import seeded_mutations, synth_image


def random_rgb(seed, h, w):
    vals = rng.raw_uint64(seed, 0, h * w * 3)
    return (vals % np.uint64(256)).astype(np.uint8).reshape(h, w, 3)


def png_chunk(ctype: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + ctype + data
            + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF))


def make_png(width, height, color_type, raw_rows: bytes) -> bytes:
    ihdr = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    return (PNG_SIGNATURE + png_chunk(b"IHDR", ihdr)
            + png_chunk(b"IDAT", zlib.compress(raw_rows)) + png_chunk(b"IEND", b""))


class TestRoundTrips:
    def test_png_round_trip_bit_exact(self, tmp_path):
        img = random_rgb(1, 16, 16)
        path = tmp_path / "x.png"
        save_image(img, path)
        assert np.array_equal(load_image(path), img)

    def test_ppm_round_trip_bit_exact(self, tmp_path):
        img = random_rgb(2, 9, 13)
        path = tmp_path / "x.ppm"
        save_image(img, path)
        assert np.array_equal(load_image(path), img)

    def test_non_square_png(self, tmp_path):
        img = random_rgb(3, 5, 11)
        path = tmp_path / "r.png"
        save_image(img, path)
        assert np.array_equal(load_image(path), img)

    @pytest.mark.parametrize("h,w", [(1, 1), (1, 17), (17, 1), (3, 5)])
    def test_small_png_round_trip_bit_exact(self, tmp_path, h, w):
        img = random_rgb(10 + 7 * h + w, h, w)
        path = tmp_path / "s.png"
        save_image(img, path)
        assert np.array_equal(load_image(path), img)

    def test_save_rejects_bad_input(self, tmp_path):
        with pytest.raises(ImageFormatError):
            save_image(np.zeros((4, 4, 3), dtype=np.float32), tmp_path / "z.png")
        with pytest.raises(ImageFormatError):
            save_image(np.zeros((4, 4), dtype=np.uint8), tmp_path / "z.png")
        with pytest.raises(ImageFormatError, match="extension"):
            save_image(np.zeros((4, 4, 3), dtype=np.uint8), tmp_path / "z.bmp")


def png_chunk_list(buf: bytes) -> list[tuple[bytes, bytes]]:
    """(type, data) of every chunk, in file order."""
    chunks, pos = [], len(PNG_SIGNATURE)
    while pos < len(buf):
        (length,) = struct.unpack(">I", buf[pos:pos + 4])
        chunks.append((buf[pos + 4:pos + 8], buf[pos + 8:pos + 8 + length]))
        pos += 12 + length
    return chunks


class TestPngWriter:
    def test_unfiltered_scanlines_in_one_idat(self, tmp_path):
        img = random_rgb(12, 6, 9)
        path = tmp_path / "w.png"
        save_image(img, path)
        chunks = png_chunk_list(path.read_bytes())
        assert [c for c, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"]
        assert chunks[0][1] == struct.pack(">IIBBBBB", 9, 6, 8, 2, 0, 0, 0)
        rows = np.frombuffer(zlib.decompress(chunks[1][1]), np.uint8).reshape(6, 1 + 9 * 3)
        assert rows[:, 0].tolist() == [0] * 6  # filter None on every scanline
        assert np.array_equal(rows[:, 1:].reshape(6, 9, 3), img)

    def test_flat_image_is_compressed(self, tmp_path):
        img = np.full((256, 256, 3), 77, dtype=np.uint8)
        path = tmp_path / "flat.png"
        save_image(img, path)
        assert path.stat().st_size < 2048  # stored uncompressed it would be 196,864 bytes
        assert np.array_equal(load_image(path), img)

    @pytest.mark.parametrize("ext", ["png", "ppm"])
    @pytest.mark.parametrize("shape", [(0, 5, 3), (5, 0, 3)])
    def test_zero_size_rejected_before_file_is_created(self, tmp_path, ext, shape):
        path = tmp_path / f"empty.{ext}"
        with pytest.raises(ImageFormatError, match="non-empty"):
            save_image(np.zeros(shape, dtype=np.uint8), path)
        assert not path.exists()


def encode_filtered(img, filters) -> bytes:
    """Raw PNG scanlines of img, row y under filter type filters[y]; reference math."""
    h, w, _ = img.shape
    stride = w * 3
    flat = img.reshape(h, stride).astype(np.int32)
    rows = bytearray()
    prev = np.zeros(stride, dtype=np.int32)
    for y in range(h):
        ftype = filters[y]
        cur = flat[y]
        left = np.concatenate([np.zeros(3, np.int32), cur[:-3]])
        upleft = np.concatenate([np.zeros(3, np.int32), prev[:-3]])
        if ftype == 0:
            enc = cur
        elif ftype == 1:
            enc = cur - left
        elif ftype == 2:
            enc = cur - prev
        elif ftype == 3:
            enc = cur - (left + prev) // 2
        else:
            p = left + prev - upleft
            pa, pb, pc = np.abs(p - left), np.abs(p - prev), np.abs(p - upleft)
            pred = np.where((pa <= pb) & (pa <= pc), left,
                            np.where(pb <= pc, prev, upleft))
            enc = cur - pred
        rows.append(ftype)
        rows.extend((enc % 256).astype(np.uint8).tobytes())
        prev = cur
    return bytes(rows)


def decode_filtered(tmp_path, img, filters):
    h, w, _ = img.shape
    path = tmp_path / "filtered.png"
    path.write_bytes(make_png(w, h, 2, encode_filtered(img, filters)))
    return load_image(path)


class TestPngDecoding:
    def test_all_filter_types_decode(self, tmp_path):
        # encode each scanline with every filter type (reference math in encode_filtered)
        img = random_rgb(4, 6, 7)
        h, w = 6, 7
        path = tmp_path / "filters.png"
        path.write_bytes(make_png(w, h, 2, encode_filtered(img, [y % 5 for y in range(h)])))
        assert np.array_equal(load_image(path), img)

    def test_grayscale_rejected(self, tmp_path):
        rows = b"".join(b"\x00" + bytes(range(8)) for _ in range(8))
        path = tmp_path / "gray.png"
        path.write_bytes(make_png(8, 8, 0, rows))
        with pytest.raises(ImageFormatError, match="grayscale"):
            load_image(path)

    def test_rgba_rejected(self, tmp_path):
        rows = b"".join(b"\x00" + bytes(32) for _ in range(8))
        path = tmp_path / "rgba.png"
        path.write_bytes(make_png(8, 8, 6, rows))
        with pytest.raises(ImageFormatError, match="RGBA"):
            load_image(path)

    def test_truncated_rejected(self, tmp_path):
        img = random_rgb(5, 8, 8)
        path = tmp_path / "full.png"
        save_image(img, path)
        cut = tmp_path / "cut.png"
        cut.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(ImageFormatError):
            load_image(cut)

    def test_chunk_crc_verified(self, tmp_path):
        img = random_rgb(6, 8, 8)
        path = tmp_path / "ok.png"
        save_image(img, path)
        buf = bytearray(path.read_bytes())
        buf[len(PNG_SIGNATURE) + 8 + 2] ^= 0x01  # flip a bit inside IHDR data
        bad = tmp_path / "badcrc.png"
        bad.write_bytes(bytes(buf))
        with pytest.raises(ImageFormatError, match="CRC"):
            load_image(bad)

    @pytest.mark.parametrize("size", [12, 14])
    def test_wrong_size_ihdr_rejected(self, tmp_path, size):
        # the CRC is valid, so only the length check stands between the chunk and unpack
        ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 2, 0, 0, 0).ljust(size, b"\0")[:size]
        path = tmp_path / "ihdr.png"
        path.write_bytes(PNG_SIGNATURE + png_chunk(b"IHDR", ihdr) + png_chunk(b"IEND", b""))
        with pytest.raises(ImageFormatError, match=f"ihdr.png: IHDR chunk has {size} bytes"):
            load_image(path)

    @pytest.mark.parametrize("dims, order, bad", [
        ([(2, 1)], ("IDAT", "IHDR0"), "chunk 0 is b'IDAT'"),
        ([(2, 1), (1, 2)], ("IHDR0", "IHDR1", "IDAT"), "chunk 1 is b'IHDR'")],
        ids=["idat_first", "two_ihdr"])
    def test_ihdr_must_be_the_first_chunk_and_the_only_one(self, tmp_path, dims, order, bad):
        # each file decodes if the reader takes every IHDR it meets, the last one winning
        w, h = dims[-1]
        chunks = {f"IHDR{i}": png_chunk(b"IHDR", struct.pack(">IIBBBBB", *d, 8, 2, 0, 0, 0))
                  for i, d in enumerate(dims)}
        chunks["IDAT"] = png_chunk(b"IDAT", zlib.compress(b"".join(
            b"\0" + bytes(range(3 * w)) for _ in range(h))))
        path = tmp_path / "order.png"
        path.write_bytes(PNG_SIGNATURE + b"".join(chunks[c] for c in order)
                         + png_chunk(b"IEND", b""))
        with pytest.raises(ImageFormatError, match=f"order.png: {bad}, but IHDR must be first"):
            load_image(path)

    @pytest.mark.parametrize("ctype, critical", [
        (b"ABCD", True), (b"IDOT", True), (b"abCD", False), (b"tEXt", False),
        (b"PLTE", False)])
    def test_unknown_critical_chunk_rejected_ancillary_and_plte_skipped(self, tmp_path, ctype,
                                                                         critical):
        img = random_rgb(7, 4, 4)
        raw = b"".join(b"\0" + img[y].tobytes() for y in range(4))
        ihdr = png_chunk(b"IHDR", struct.pack(">IIBBBBB", 4, 4, 8, 2, 0, 0, 0))
        path = tmp_path / "extra.png"
        path.write_bytes(PNG_SIGNATURE + ihdr + png_chunk(ctype, bytes(6))
                         + png_chunk(b"IDAT", zlib.compress(raw)) + png_chunk(b"IEND", b""))
        if critical:
            with pytest.raises(ImageFormatError,
                               match=f"extra.png: unknown critical PNG chunk {ctype!r}"):
                load_image(path)
        else:
            assert np.array_equal(load_image(path), img)

    @pytest.mark.parametrize("tail", [b"\0", bytes(13), png_chunk(b"IEND", b"")],
                             ids=["1", "13", "second_iend"])
    def test_bytes_after_iend_rejected(self, tmp_path, tail):
        img = random_rgb(8, 4, 4)
        path = tmp_path / "tail.png"
        save_image(img, path)
        path.write_bytes(path.read_bytes() + tail)
        with pytest.raises(ImageFormatError, match=f"tail.png: {len(tail)} bytes after IEND"):
            load_image(path)

    def test_no_idat_rejected(self, tmp_path):
        path = tmp_path / "empty.png"
        path.write_bytes(PNG_SIGNATURE
                         + png_chunk(b"IHDR", struct.pack(">IIBBBBB", 4, 4, 8, 2, 0, 0, 0))
                         + png_chunk(b"IEND", b""))
        with pytest.raises(ImageFormatError, match="^.*empty.png: missing image data$"):
            load_image(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "mystery.dat"
        path.write_bytes(b"GIF89a not supported here")
        with pytest.raises(ImageFormatError, match="unsupported"):
            load_image(path)


class TestDefilterOracle:
    """Bit-exact decode of files encoded by the reference filter math above."""

    @pytest.mark.parametrize("seed,h,w", [(20, 16, 16), (21, 9, 13), (22, 33, 5),
                                          (23, 4, 40), (24, 1, 1), (25, 7, 1),
                                          (26, 5, 2), (27, 1, 9), (28, 1, 2)])
    def test_random_images_under_random_row_filters(self, tmp_path, seed, h, w):
        img = random_rgb(seed, h, w)
        filters = (rng.raw_uint64(seed + 100, 0, h) % np.uint64(5)).astype(int).tolist()
        assert np.array_equal(decode_filtered(tmp_path, img, filters), img)

    @pytest.mark.parametrize("ftype", [3, 4], ids=["average", "paeth"])
    @pytest.mark.parametrize("h,w", [(12, 10), (1, 6), (6, 1), (3, 2)])
    def test_single_filter_images(self, tmp_path, ftype, h, w):
        img = random_rgb(30 + ftype, h, w)
        assert np.array_equal(decode_filtered(tmp_path, img, [ftype] * h), img)

    @pytest.mark.parametrize("w,h,raw", [(0, 5, bytes(range(5))), (4, 0, b"")])
    def test_zero_width_or_height_rejected(self, tmp_path, w, h, raw):
        path = tmp_path / "empty.png"
        path.write_bytes(make_png(w, h, 2, raw))
        with pytest.raises(ImageFormatError, match="zero width or height"):
            load_image(path)

    @pytest.mark.parametrize("ftype", range(5))
    def test_each_filter_on_row_zero(self, tmp_path, ftype):
        # the row above the first is zeros: Up and Paeth then see no upper pixels
        img = random_rgb(40 + ftype, 3, 8)
        assert np.array_equal(decode_filtered(tmp_path, img, [ftype, 0, 0]), img)

    def test_saturated_pixels_wrap_mod_256(self, tmp_path):
        img = np.full((4, 6, 3), 255, dtype=np.uint8)
        img[::2, ::2] = 0
        for ftype in range(5):
            assert np.array_equal(decode_filtered(tmp_path, img, [ftype] * 4), img)

    @pytest.mark.parametrize("bad", [5, 255])
    def test_unknown_filter_byte_rejected(self, tmp_path, bad):
        img = random_rgb(50, 4, 3)
        raw = bytearray(encode_filtered(img, [1, 2, 3, 4]))
        raw[2 * (3 * 3 + 1)] = bad  # filter byte of row 2
        path = tmp_path / "bad.png"
        path.write_bytes(make_png(3, 4, 2, bytes(raw)))
        with pytest.raises(ImageFormatError, match=f"unknown PNG filter type {bad}$"):
            load_image(path)

    def test_first_unknown_filter_byte_is_named(self, tmp_path):
        raw = bytearray(encode_filtered(random_rgb(51, 4, 3), [0, 0, 0, 0]))
        raw[1 * 10] = 7
        raw[3 * 10] = 9
        path = tmp_path / "bad.png"
        path.write_bytes(make_png(3, 4, 2, bytes(raw)))
        with pytest.raises(ImageFormatError, match="unknown PNG filter type 7$"):
            load_image(path)

    @pytest.mark.parametrize("delta", [-1, 1, -10])
    def test_wrong_length_stream_rejected(self, tmp_path, delta):
        raw = encode_filtered(random_rgb(52, 4, 3), [1, 2, 3, 4])
        raw = raw[:delta] if delta < 0 else raw + bytes(delta)
        path = tmp_path / "len.png"
        path.write_bytes(make_png(3, 4, 2, raw))
        with pytest.raises(ImageFormatError, match="wrong length"):
            load_image(path)


# a 16x16 PNG whose IDAT inflates to 64 MiB of zeros, loaded in a fresh
# process; prints the growth of its peak RSS in KiB across the load
INFLATE_BOMB_RSS = """
import resource
import struct
import zlib

from irunet.imageio import ImageFormatError, PNG_SIGNATURE, _load_png


def chunk(ctype, data):
    return (struct.pack(">I", len(data)) + ctype + data
            + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF))


deflate, block = zlib.compressobj(9), bytes(1 << 20)
idat = b"".join(deflate.compress(block) for _ in range(64)) + deflate.flush()
buf = (PNG_SIGNATURE + chunk(b"IHDR", struct.pack(">IIBBBBB", 16, 16, 8, 2, 0, 0, 0))
       + chunk(b"IDAT", idat) + chunk(b"IEND", b""))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    _load_png(buf, "bomb.png")
except ImageFormatError as e:
    assert "bomb.png: PNG pixel data has wrong length" in str(e), e
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


class TestInflateBound:
    """The PNG reader inflates at most one byte past the pixel data IHDR declares."""

    def test_oversized_stream_not_inflated_whole(self):
        pytest.importorskip("resource")
        src = os.path.dirname(os.path.dirname(imageio.__file__))
        out = subprocess.run([sys.executable, "-c", INFLATE_BOMB_RSS],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=120, check=True)
        assert int(out.stdout) < 8 * 1024  # KiB, against 64 MiB inflated

    @pytest.mark.parametrize("case, message", [
        ("long", "PNG pixel data has wrong length"),
        ("truncated", "corrupt PNG stream"), ("bad checksum", "corrupt PNG stream")])
    def test_each_stream_fault_keeps_its_error(self, tmp_path, case, message):
        raw = encode_filtered(random_rgb(53, 4, 3), [0, 1, 2, 3])
        # "long": pixel data runs on well past the limit, so inflation stops early
        stream = zlib.compress(raw + bytes(100) if case == "long" else raw)
        if case == "truncated":
            stream = stream[:-5]
        elif case == "bad checksum":
            stream = stream[:-1] + bytes([stream[-1] ^ 1])
        path = tmp_path / "s.png"
        path.write_bytes(PNG_SIGNATURE
                         + png_chunk(b"IHDR", struct.pack(">IIBBBBB", 3, 4, 8, 2, 0, 0, 0))
                         + png_chunk(b"IDAT", stream) + png_chunk(b"IEND", b""))
        with pytest.raises(ImageFormatError, match=f"s.png: {message}"):
            load_image(path)

    def test_header_past_the_inflate_limit_is_wrong_length(self, tmp_path):
        # height*(3*width+1) passes 2**63, the largest length zlib can be asked for
        ihdr = struct.pack(">IIBBBBB", 2**32 - 1, 2**32 - 1, 8, 2, 0, 0, 0)
        path = tmp_path / "huge.png"
        path.write_bytes(PNG_SIGNATURE + png_chunk(b"IHDR", ihdr)
                         + png_chunk(b"IDAT", zlib.compress(bytes(8))) + png_chunk(b"IEND", b""))
        with pytest.raises(ImageFormatError, match="huge.png: PNG pixel data has wrong length"):
            load_image(path)


class TestPpmDecoding:
    def test_comment_in_header(self, tmp_path):
        img = random_rgb(7, 4, 4)
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n4 4\n255\n" + img.tobytes())
        assert np.array_equal(load_image(path), img)

    def test_bytes_after_pixels_ignored(self, tmp_path):
        # netpbm allows several images in one file; the reader takes the first
        img = random_rgb(9, 4, 4)
        path = tmp_path / "two.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + img.tobytes() + b"P6\n1 1\n255\n" + bytes(3))
        assert np.array_equal(load_image(path), img)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
        with pytest.raises(ImageFormatError, match="maxval"):
            load_image(path)

    def test_truncated_pixels_rejected(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(ImageFormatError, match="truncated"):
            load_image(path)

    @pytest.mark.parametrize("dims", [b"0 5", b"5 0", b"0 0"])
    def test_zero_width_or_height_rejected(self, tmp_path, dims):
        path = tmp_path / "z.ppm"
        path.write_bytes(b"P6\n" + dims + b"\n255\n")
        with pytest.raises(ImageFormatError, match="z.ppm: PPM has zero width or height"):
            load_image(path)

    def test_p5_rejected(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(16))
        with pytest.raises(ImageFormatError, match="unsupported"):
            load_image(path)


def with_chunk_crcs_fixed(buf: bytes) -> bytes:
    """buf with every whole chunk's CRC recomputed, so a mutation reaches the chunk readers."""
    out, pos = bytearray(buf), len(PNG_SIGNATURE)
    while pos + 12 <= len(out):
        (length,) = struct.unpack(">I", out[pos:pos + 4])
        end = pos + 8 + length
        if end + 4 > len(out):
            break
        out[end:end + 4] = struct.pack(">I", zlib.crc32(out[pos + 4:end]) & 0xFFFFFFFF)
        pos = end + 4
    return bytes(out)


class TestSeededMutations:
    """A mutated image loads as uint8 [H,W,3] or raises ImageFormatError naming the file."""

    @staticmethod
    def loads_or_rejects(tmp_path, ext, mutations):
        path = tmp_path / f"mutated{ext}"
        loaded, rejected = 0, []
        for i, buf in mutations:
            path.write_bytes(buf)
            try:
                img = load_image(path)
            except ImageFormatError as e:
                assert str(e).startswith(f"{path}: "), (i, str(e))
                rejected.append(str(e))
                continue
            assert img.dtype == np.uint8 and img.ndim == 3 and img.shape[2] == 3, i
            loaded += 1
        return loaded, rejected

    def test_png(self, tmp_path):
        src = tmp_path / "src.png"
        save_image(random_rgb(61, 12, 10), src)
        mutations = ((i, with_chunk_crcs_fixed(buf) if i % 2 else buf)
                     for i, buf in seeded_mutations(src.read_bytes(), "png-fuzz"))
        loaded, rejected = self.loads_or_rejects(tmp_path, ".png", mutations)
        assert len(rejected) > 150
        # with valid CRCs, mutations reach the header and pixel-data checks
        assert any("CRC" not in m and "truncated" not in m for m in rejected)

    def test_ppm(self, tmp_path):
        src = tmp_path / "src.ppm"
        save_image(random_rgb(62, 12, 10), src)
        loaded, rejected = self.loads_or_rejects(
            tmp_path, ".ppm", seeded_mutations(src.read_bytes(), "ppm-fuzz"))
        # a flipped pixel byte still loads: PPM has no checksum
        assert loaded > 0 and len(rejected) > 30


class TestIngestion:
    def test_96x96_loads_to_chw(self, tmp_path):
        img = synth_image(11, size=96)
        path = tmp_path / "a.png"
        save_image(img, path)
        t = to_batch([load_image(path)])
        assert t.shape == (1, 3, 96, 96)  # one [3,H,W] image, batched
        assert t.data.min() >= 0.0 and t.data.max() <= 1.0

    def test_to_batch_stacks(self):
        imgs = [random_rgb(i, 8, 8) for i in range(3)]
        t = to_batch(imgs)
        assert t.shape == (3, 3, 8, 8)
        assert np.allclose(t.data[1], np.transpose(imgs[1], (2, 0, 1)) / 255.0, atol=1e-7)

    def test_to_batch_rejects_mixed_dims(self):
        with pytest.raises(ValueError, match="mixed"):
            to_batch([random_rgb(0, 8, 8), random_rgb(1, 8, 9)])

    @pytest.mark.parametrize("img", [np.full((4, 4, 3), 0.5), np.zeros((4, 4, 3), np.uint16),
                                     np.zeros((4, 4), np.uint8), np.zeros((4, 4, 4), np.uint8)],
                             ids=["float", "uint16", "gray", "rgba"])
    def test_to_batch_rejects_non_uint8_rgb(self, img):
        with pytest.raises(ValueError, match="uint8 \\[H,W,3\\]"):
            to_batch([img])

    def test_quantize_round_half_away(self):
        vals = np.array([0.0, 0.5 / 255.0, 1.5 / 255.0, 1.0, 2.0, -1.0])
        assert np.array_equal(quantize(vals), [0, 1, 2, 255, 255, 0])

    def test_quantize_inverts_ingestion(self):
        img = random_rgb(8, 8, 8)
        t = to_batch([img])
        assert np.array_equal(tensor_to_image(t), img)

    def test_tensor_round_trip_through_files(self, tmp_path):
        img = random_rgb(9, 16, 16)
        t = to_batch([img])
        out = tensor_to_image(t)
        path = tmp_path / "rt.png"
        save_image(out, path)
        assert np.array_equal(load_image(path), img)
