"""8-bit RGB image files: PNG and binary PPM (P6), plus tensor ingestion.

Only the formats the pipeline needs are supported, and strictly: PNG must
be 8-bit truecolor without alpha or interlace, PPM must be P6 with maxval
255. Everything else is rejected with a diagnostic rather than silently
converted.
"""

from __future__ import annotations

import struct
import sys
import zlib

import numpy as np

from .tensor import Tensor

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


class ImageFormatError(ValueError):
    """Unsupported, malformed or truncated image file."""


# ----------------------------------------------------------------- PNG

def _png_chunks(buf: bytes, path):
    pos = len(PNG_SIGNATURE)
    while True:
        if pos + 8 > len(buf):
            raise ImageFormatError(f"{path}: truncated PNG (no IEND)")
        (length,) = struct.unpack(">I", buf[pos:pos + 4])
        ctype = buf[pos + 4:pos + 8]
        data_end = pos + 8 + length
        if data_end + 4 > len(buf):
            raise ImageFormatError(f"{path}: truncated PNG chunk {ctype!r}")
        data = buf[pos + 8:data_end]
        (crc,) = struct.unpack(">I", buf[data_end:data_end + 4])
        if zlib.crc32(ctype + data) & 0xFFFFFFFF != crc:
            raise ImageFormatError(f"{path}: CRC mismatch in chunk {ctype!r}")
        yield ctype, data
        pos = data_end + 4
        if ctype == b"IEND":
            if pos < len(buf):
                raise ImageFormatError(f"{path}: {len(buf) - pos} bytes after IEND")
            return


def _average_row(line: bytes, up: bytes, bpp: int) -> bytearray:
    """Average filter per channel: x = raw + (left + up) // 2, left to right."""
    out = bytearray(len(line))
    for ch in range(bpp):
        a, row = 0, []
        for r, b in zip(line[ch::bpp], up[ch::bpp]):
            a = (r + ((a + b) >> 1)) & 0xFF
            row.append(a)
        out[ch::bpp] = row
    return out


def _paeth_row(line: bytes, up: bytes, bpp: int) -> bytearray:
    """Paeth filter per channel (RFC 2083), left to right.

    With left a, up b and up-left c the predictor distances are |b-c|,
    |a-c| and |(a-c) + (b-c)|; numpy precomputes |b-c|, which needs no a.
    """
    upleft = bytes(bpp) + up[:-bpp]
    dist_a = np.abs(np.frombuffer(up, np.uint8).astype(np.int16)
                    - np.frombuffer(upleft, np.uint8)).astype(np.uint8).tobytes()
    out = bytearray(len(line))
    for ch in range(bpp):
        a, row = 0, []
        for r, b, c, pa in zip(line[ch::bpp], up[ch::bpp], upleft[ch::bpp], dist_a[ch::bpp]):
            d = a - c
            pb = abs(d)
            pc = abs(d + b - c)
            if pa <= pb and pa <= pc:
                pred = a
            elif pb <= pc:
                pred = b
            else:
                pred = c
            a = (r + pred) & 0xFF
            row.append(a)
        out[ch::bpp] = row
    return out


def _defilter(raw: bytes, width: int, height: int, path) -> np.ndarray:
    bpp = 3
    stride = width * bpp
    if len(raw) != height * (stride + 1):
        raise ImageFormatError(f"{path}: PNG pixel data has wrong length")
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    ftypes = rows[:, 0].tolist()
    for ftype in ftypes:
        if ftype > 4:
            raise ImageFormatError(f"{path}: unknown PNG filter type {ftype}")
    lines = rows[:, 1:].reshape(height, width, bpp)
    out = np.empty((height, width, bpp), dtype=np.uint8)
    above = np.zeros((width, bpp), dtype=np.uint8)  # the row above the first
    for y, ftype in enumerate(ftypes):
        line, cur = lines[y], out[y]
        if ftype == 0:  # None
            cur[...] = line
        elif ftype == 1:  # Sub: a running sum per channel, mod 256 like the filter
            np.cumsum(line, axis=0, dtype=np.uint8, out=cur)
        elif ftype == 2:  # Up
            np.add(line, above, out=cur)
        else:  # Average, Paeth
            defilter_row = _average_row if ftype == 3 else _paeth_row
            cur.reshape(-1)[...] = np.frombuffer(
                defilter_row(line.tobytes(), above.tobytes(), bpp), dtype=np.uint8)
        above = cur
    return out


_COLOR_TYPE_NAMES = {0: "grayscale", 3: "palette", 4: "grayscale+alpha", 6: "RGBA"}


def _load_png(buf: bytes, path) -> np.ndarray:
    idat = bytearray()
    for i, (ctype, data) in enumerate(_png_chunks(buf, path)):
        if (ctype == b"IHDR") != (i == 0):
            raise ImageFormatError(f"{path}: chunk {i} is {ctype!r}, but IHDR must be "
                                   f"first and only once")
        if ctype == b"IHDR":
            if len(data) != 13:
                raise ImageFormatError(f"{path}: IHDR chunk has {len(data)} bytes, expected 13")
            width, height, depth, color, comp, filt, interlace = struct.unpack(">IIBBBBB", data)
            if depth != 8:
                raise ImageFormatError(f"{path}: only 8-bit PNG supported, got depth {depth}")
            if color != 2:
                kind = _COLOR_TYPE_NAMES.get(color, f"color type {color}")
                raise ImageFormatError(f"{path}: only RGB PNG supported, got {kind}")
            if comp != 0 or filt != 0:
                raise ImageFormatError(f"{path}: unsupported PNG compression/filter method")
            if interlace != 0:
                raise ImageFormatError(f"{path}: interlaced PNG not supported")
            if width == 0 or height == 0:
                raise ImageFormatError(f"{path}: PNG has zero width or height")
        elif ctype == b"IDAT":
            idat.extend(data)
        elif ctype[:1].isupper() and ctype not in (b"PLTE", b"IEND"):
            # a critical chunk (upper-case first letter) a decoder must not skip
            raise ImageFormatError(f"{path}: unknown critical PNG chunk {ctype!r}")
    if not idat:
        raise ImageFormatError(f"{path}: missing image data")
    # one byte past the pixel data shows too much without inflating the rest;
    # IHDR sizes can pass the largest length zlib takes
    size = height * (3 * width + 1)
    inflate = zlib.decompressobj()
    try:
        raw = inflate.decompress(idat, min(size + 1, sys.maxsize))
    except zlib.error as e:
        raise ImageFormatError(f"{path}: corrupt PNG stream ({e})") from e
    if len(raw) <= size and not inflate.eof:
        raise ImageFormatError(f"{path}: corrupt PNG stream (incomplete or truncated stream)")
    return _defilter(raw, width, height, path)


def _save_png(img: np.ndarray, path) -> None:
    height, width, _ = img.shape
    # each scanline: filter byte 0 (None), then the row's pixels as they are
    rows = np.hstack((np.zeros((height, 1), np.uint8), img.reshape(height, 3 * width)))
    # Run-length deflate: on denoised and noisy images an LZ77 match search
    # takes about three times as long and saves under 1% of the bytes.
    deflate = zlib.compressobj(6, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)

    def chunk(ctype: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + ctype + data
                + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF))

    with open(path, "wb") as f:
        f.write(PNG_SIGNATURE)
        f.write(chunk(b"IHDR", ihdr))
        f.write(chunk(b"IDAT", deflate.compress(rows) + deflate.flush()))
        f.write(chunk(b"IEND", b""))


# ----------------------------------------------------------------- PPM

def _ppm_tokens(buf: bytes, count: int, path) -> tuple[list[int], int]:
    """First `count` whitespace-separated integer tokens after the magic."""
    tokens: list[int] = []
    pos = 2  # past "P6"
    while len(tokens) < count:
        if pos >= len(buf):
            raise ImageFormatError(f"{path}: truncated PPM header")
        ch = buf[pos:pos + 1]
        if ch == b"#":
            while pos < len(buf) and buf[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(buf) and buf[pos:pos + 1].isdigit():
                pos += 1
            tokens.append(int(buf[start:pos]))
        else:
            raise ImageFormatError(f"{path}: malformed PPM header")
    if pos >= len(buf) or not buf[pos:pos + 1].isspace():
        raise ImageFormatError(f"{path}: malformed PPM header")
    return tokens, pos + 1  # single whitespace after maxval


def _load_ppm(buf: bytes, path) -> np.ndarray:
    (width, height, maxval), start = _ppm_tokens(buf, 3, path)
    if maxval != 255:
        raise ImageFormatError(f"{path}: only maxval 255 PPM supported, got {maxval}")
    if width == 0 or height == 0:
        raise ImageFormatError(f"{path}: PPM has zero width or height")
    need = width * height * 3
    data = buf[start:start + need]
    if len(data) != need:
        raise ImageFormatError(f"{path}: truncated PPM pixel data")
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width, 3).copy()


def _save_ppm(img: np.ndarray, path) -> None:
    height, width, _ = img.shape
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (width, height))
        f.write(img.tobytes())


# The supported image formats by file extension, each with its writer. A
# reader sniffs the format from the content instead (load_image).
_WRITERS = {".png": _save_png, ".ppm": _save_ppm}
IMAGE_EXTENSIONS = tuple(_WRITERS)


# ------------------------------------------------------------- public API

def load_image(path) -> np.ndarray:
    """Load an 8-bit RGB image as uint8 [H,W,3]; format sniffed from content."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf.startswith(PNG_SIGNATURE):
        return _load_png(buf, path)
    if buf.startswith(b"P6"):
        return _load_ppm(buf, path)
    raise ImageFormatError(f"{path}: unsupported image format (PNG or PPM P6 required)")


def image_writer(path):
    """The writer of uint8 [H,W,3] images that `path`'s extension (.png/.ppm) selects."""
    name = str(path).lower()
    for ext, writer in _WRITERS.items():
        if name.endswith(ext):
            return writer
    raise ImageFormatError(f"{path}: unsupported output extension (.png or .ppm)")


def save_image(img: np.ndarray, path) -> None:
    """Write uint8 [H,W,3] losslessly; format chosen by extension (image_writer)."""
    if not isinstance(img, np.ndarray) or img.dtype != np.uint8:
        raise ImageFormatError("save_image expects a uint8 array")
    if img.ndim != 3 or img.shape[2] != 3:
        raise ImageFormatError(f"save_image expects [H,W,3] RGB, got shape {img.shape}")
    if img.shape[0] == 0 or img.shape[1] == 0:
        raise ImageFormatError(f"save_image expects a non-empty image, got shape {img.shape}")
    image_writer(path)(np.ascontiguousarray(img), path)


def to_batch(imgs: list[np.ndarray]) -> Tensor:
    """Stack equal-sized uint8 [H,W,3] images into a float32 [N,3,H,W] tensor in [0,1]."""
    if not imgs:
        raise ValueError("to_batch needs at least one image")
    shape = imgs[0].shape
    for im in imgs:
        if im.dtype != np.uint8 or im.ndim != 3 or im.shape[2] != 3:
            raise ValueError("to_batch expects uint8 [H,W,3] images")
        if im.shape != shape:
            raise ValueError(f"mixed image dimensions in batch: {shape} vs {im.shape}")
    planes = [np.transpose(im, (2, 0, 1)) for im in imgs]
    data = np.stack(planes).astype(np.float32) / np.float32(255)
    return Tensor(data)


def quantize(values: np.ndarray) -> np.ndarray:
    """Map [0,1] float values to uint8, same rounding as the corruption path."""
    scaled = np.clip(np.asarray(values, dtype=np.float64) * 255.0, 0.0, 255.0)
    return np.floor(scaled + 0.5).astype(np.uint8)


def tensor_to_image(t: Tensor | np.ndarray) -> np.ndarray:
    """Quantize a [3,H,W] or [1,3,H,W] reconstruction back to uint8 [H,W,3]."""
    data = t.data if isinstance(t, Tensor) else np.asarray(t)
    if data.ndim == 4:
        if data.shape[0] != 1:
            raise ValueError(f"expected a single image, got batch of {data.shape[0]}")
        data = data[0]
    if data.ndim != 3 or data.shape[0] != 3:
        raise ValueError(f"expected [3,H,W], got shape {data.shape}")
    return quantize(np.transpose(data, (1, 2, 0)))
