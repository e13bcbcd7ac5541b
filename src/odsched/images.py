"""Grayscale frame images: in-memory representation plus PGM and base64 I/O.

File formats are 8-bit, and a frame decoded from one (or made by
``sim.gen_trace``) keeps its pixels as ``uint8``: one byte per pixel, an
eighth of a float64 copy.  An array of any other dtype is converted to float64
and checked to lie in [0, 255].  Correlation math reads either dtype: two
8-bit images are correlated from exact integer sums, any other pair in
float64 (see ``context``).
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import json_int


@dataclass(frozen=True, eq=False)
class GrayscaleImage:
    """A single-channel image, row-major, intensities in [0, 255]."""

    pixels: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels)
        is_bytes = px.dtype == np.uint8
        if not is_bytes:
            px = np.asarray(px, dtype=np.float64)
        if px.ndim != 2 or px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError(f"image must be a 2-D array, got shape {px.shape}")
        if not is_bytes:  # every byte already lies in [0, 255]
            if not np.all(np.isfinite(px)):
                raise ValueError("image contains non-finite intensities")
            if px.min() < 0.0 or px.max() > 255.0:
                raise ValueError("image intensities must lie in [0, 255]")
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @classmethod
    def from_bytes(cls, width: int, height: int, raw: bytes) -> GrayscaleImage:
        if width < 1 or height < 1:
            raise ValueError("image dimensions must be positive")
        if len(raw) != width * height:
            raise ValueError(
                f"pixel count {len(raw)} does not match {width}x{height}"
            )
        return cls(np.frombuffer(raw, dtype=np.uint8).reshape(height, width))

    def to_bytes(self) -> bytes:
        """Row-major 8-bit bytes; float pixels are rounded half-to-even."""
        if self.pixels.dtype == np.uint8:
            return self.pixels.tobytes()
        return np.rint(self.pixels).astype(np.uint8).tobytes()


def encode_inline(img: GrayscaleImage) -> dict:
    """Inline trace-file form: dimensions plus base64 of the 8-bit pixels."""
    return {
        "width": img.width,
        "height": img.height,
        "pixels_b64": base64.b64encode(img.to_bytes()).decode("ascii"),
    }


def decode_inline(obj: dict) -> GrayscaleImage:
    """Inverse of `encode_inline`; a malformed block raises one of
    `errors.DECODE_ERRORS`."""
    width, height = json_int(obj, "width"), json_int(obj, "height")
    raw = base64.b64decode(obj["pixels_b64"], validate=True)
    return GrayscaleImage.from_bytes(width, height, raw)


def read_pgm(path: str | Path) -> GrayscaleImage:
    """Read a binary (P5) PGM file with maxval <= 255 and no sample above it."""
    data = Path(path).read_bytes()
    fields: list[bytes] = []
    pos = 0
    # Header: magic, width, height, maxval -- whitespace separated, with
    # '#' comments allowed between tokens.
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated PGM header")
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    try:
        width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    except ValueError as exc:
        raise ValueError(f"{path}: bad PGM header: {exc}") from exc
    if width < 1 or height < 1:
        raise ValueError(f"{path}: image dimensions must be positive, got {width}x{height}")
    if maxval < 1 or maxval > 255:
        raise ValueError(f"{path}: PGM maxval {maxval} unsupported (need <= 255)")
    pos += 1  # single whitespace byte after maxval
    raw = data[pos : pos + width * height]
    if len(raw) != width * height:
        raise ValueError(f"{path}: PGM pixel data truncated")
    img = GrayscaleImage.from_bytes(width, height, raw)
    if maxval < 255 and (top := int(img.pixels.max())) > maxval:
        raise ValueError(f"{path}: PGM sample {top} exceeds maxval {maxval}")
    return img


def write_pgm(img: GrayscaleImage, path: str | Path) -> None:
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.to_bytes())
