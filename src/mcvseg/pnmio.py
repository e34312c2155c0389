"""Bit-exact PNM ingestion and emission, plus label-map serialization.

Supported formats: PGM (P2 plain / P5 raw, one band) and PPM (P3 plain /
P6 raw, three bands), maxval 1..65535. Raw two-byte samples are big-endian.
Label maps are emitted as 16-bit PGM when every label fits in 16 bits, or
as CSV (one line per lattice row, comma-separated, LF endings) otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Lattice
from .partition import Partition


class PnmParseError(ValueError):
    """Malformed PNM input; carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass
class ImageBuffer:
    """Real-valued raster: ``samples[row, col, band]``, row-major, 0-based
    storage for the 1-based (col, row) lattice."""

    lattice: Lattice
    bands: int
    samples: np.ndarray
    max_value: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        expected = (self.lattice.height, self.lattice.width, self.bands)
        if self.samples.shape != expected:
            raise ValueError(f"sample array shape {self.samples.shape} != {expected}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")

    def value_at(self, pixel) -> np.ndarray:
        c, r = pixel
        return self.samples[r - 1, c - 1]


_WHITESPACE = b" \t\r\n\v\f"


def _skip_space(data: bytes, pos: int) -> int:
    """Advance past whitespace and '#' comments."""
    n = len(data)
    while pos < n:
        if data[pos : pos + 1] in (b"#",):
            while pos < n and data[pos] not in (0x0A, 0x0D):
                pos += 1
        elif data[pos] in _WHITESPACE:
            pos += 1
        else:
            break
    return pos


def _next_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    pos = _skip_space(data, pos)
    if pos >= len(data):
        raise PnmParseError(f"unexpected end of file reading {what}", pos)
    start = pos
    while pos < len(data) and data[pos] not in _WHITESPACE and data[pos : pos + 1] != b"#":
        pos += 1
    token = data[start:pos]
    if not token.isdigit():
        raise PnmParseError(f"expected integer for {what}, got {token!r}", start)
    return int(token), pos


def load_pnm(data: bytes) -> ImageBuffer:
    """Decode PGM/PPM bytes into an ImageBuffer, exactly as encoded."""
    if len(data) < 2:
        raise PnmParseError("not a PNM file: too short", 0)
    magic = data[:2]
    formats = {b"P2": (1, False), b"P3": (3, False), b"P5": (1, True), b"P6": (3, True)}
    if magic not in formats:
        raise PnmParseError(f"unsupported magic {magic!r}", 0)
    bands, raw = formats[magic]

    pos = 2
    width, pos = _next_int(data, pos, "width")
    height, pos = _next_int(data, pos, "height")
    if width < 1 or height < 1:
        raise PnmParseError(f"dimensions must be positive, got {width}x{height}", 2)
    maxval_at = _skip_space(data, pos)
    maxval, pos = _next_int(data, pos, "maxval")
    if not 1 <= maxval <= 65535:
        raise PnmParseError(f"maxval {maxval} outside [1, 65535]", maxval_at)

    count = width * height * bands
    if raw:
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise PnmParseError("expected single whitespace after maxval", pos)
        pos += 1
        bytes_per = 2 if maxval > 255 else 1
        need = count * bytes_per
        if len(data) - pos < need:
            raise PnmParseError(
                f"truncated raster: need {need} bytes, have {len(data) - pos}", len(data)
            )
        payload = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
        if bytes_per == 2:
            values = payload.reshape(-1, 2).astype(np.uint32)
            flat = values[:, 0] * 256 + values[:, 1]
        else:
            flat = payload.astype(np.uint32)
        if flat.max(initial=0) > maxval:
            bad = int(np.argmax(flat > maxval))
            raise PnmParseError(
                f"sample {int(flat[bad])} exceeds maxval {maxval}", pos + bad * bytes_per
            )
    else:
        flat = np.empty(count, dtype=np.uint32)
        for i in range(count):
            at = _skip_space(data, pos)
            value, pos = _next_int(data, pos, f"sample {i}")
            if value > maxval:
                raise PnmParseError(f"sample {value} exceeds maxval {maxval}", at)
            flat[i] = value

    samples = flat.astype(np.float64).reshape(height, width, bands)
    return ImageBuffer(Lattice(width, height), bands, samples, maxval)


def save_pnm(img: ImageBuffer, plain: bool = False) -> bytes:
    """Encode an ImageBuffer as PGM (1 band) or PPM (3 bands).

    Samples are rounded to the nearest integer and clipped to
    [0, max_value]; images that came from load_pnm round-trip exactly.
    """
    if img.bands not in (1, 3):
        raise ValueError(f"PNM supports 1 or 3 bands, got {img.bands}")
    values = np.clip(np.rint(img.samples), 0, img.max_value).astype(np.uint32)
    flat = values.reshape(-1)
    header = "{magic}\n{w} {h}\n{mv}\n".format(
        magic=("P2" if img.bands == 1 else "P3") if plain else ("P5" if img.bands == 1 else "P6"),
        w=img.lattice.width,
        h=img.lattice.height,
        mv=img.max_value,
    ).encode("ascii")
    if plain:
        rows = values.reshape(img.lattice.height, -1)
        body = "\n".join(" ".join(str(v) for v in row) for row in rows) + "\n"
        return header + body.encode("ascii")
    if img.max_value > 255:
        payload = np.empty(flat.size * 2, dtype=np.uint8)
        payload[0::2] = flat >> 8
        payload[1::2] = flat & 0xFF
    else:
        payload = flat.astype(np.uint8)
    return header + payload.tobytes()


def _check_nonnegative(labels: np.ndarray) -> None:
    if labels.min(initial=0) < 0:
        raise ValueError("label maps hold nonnegative labels; ABSENT pixels "
                         "have no encoding")


def save_labels(lm: Partition, format: str = "pgm16") -> bytes:
    """Serialize a total partition as 16-bit PGM or CSV.

    pgm16 requires every label <= 65535; CSV has no label limit.
    """
    _check_nonnegative(lm.labels)
    if format == "pgm16":
        if lm.labels.max(initial=0) > 65535:
            raise ValueError(
                f"label {int(lm.labels.max())} exceeds 65535; use csv format instead"
            )
        img = ImageBuffer(lm.lattice, 1, lm.labels[:, :, None].astype(np.float64), 65535)
        return save_pnm(img)
    if format == "csv":
        lines = "\n".join(",".join(str(v) for v in row) for row in lm.labels) + "\n"
        return lines.encode("utf-8")
    raise ValueError(f"unknown label format {format!r}")


def load_labels(data: bytes) -> Partition:
    """Load a label map from 16-bit/8-bit PGM bytes or CSV bytes."""
    if data[:2] in (b"P2", b"P5"):
        img = load_pnm(data)
        return Partition(img.lattice, img.samples[:, :, 0])
    if data[:2] in (b"P3", b"P6"):
        raise ValueError("label maps must be single-band (PGM), got PPM")
    text = data.decode("utf-8")
    rows = [line.split(",") for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty label CSV")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"ragged label CSV: row lengths {sorted(widths)}")
    labels = np.array([[int(v) for v in row] for row in rows], dtype=np.int32)
    _check_nonnegative(labels)
    return Partition(Lattice(labels.shape[1], labels.shape[0]), labels)


def colorize(lm: Partition, seed: int = 0) -> ImageBuffer:
    """Render a label map as an RGB image, one color per label.

    Colors come from a seeded affine bijection of the 24-bit color cube,
    so distinct labels get distinct colors for up to 2**24 labels and the
    output is byte-reproducible for a fixed seed.
    """
    _check_nonnegative(lm.labels)
    rng = np.random.default_rng(seed)
    mult = 2 * int(rng.integers(0, 2**23)) + 1
    offset = int(rng.integers(0, 2**24))
    distinct, inverse = np.unique(lm.labels, return_inverse=True)
    codes = (mult * np.arange(distinct.size, dtype=np.int64) + offset) % (2**24)
    rgb = np.stack([codes >> 16, (codes >> 8) & 0xFF, codes & 0xFF], axis=1)
    samples = rgb[inverse].reshape(lm.labels.shape + (3,)).astype(np.float64)
    return ImageBuffer(lm.lattice, 3, samples, 255)
