"""Frame-context change detection via normalized cross-correlation.

All arithmetic is float64.  NCC of images p and c is

    sum((p - mean(p)) * (c - mean(c)))
    ----------------------------------
    sqrt(sum((c - mean(c))^2)) * sqrt(sum((p - mean(p))^2))

clamped to [-1, 1] against rounding.  A constant image has no correlation
evidence: it scores 0 against anything except an equal constant, which
scores 1.
"""

from __future__ import annotations

import numpy as np

from .catalog import BoundingBox
from .images import GrayscaleImage

# Below this centered sum-of-squares an image is treated as constant; one
# 8-bit quantum of real variation sits many orders of magnitude above it.
_VAR_EPS = 1e-9

# Crops are compared at this fixed square resolution.
PATCH_SIZE = 64


def ncc(p: GrayscaleImage, c: GrayscaleImage) -> float:
    """Normalized cross-correlation of two same-size images, in [-1, 1]."""
    if p.pixels.shape != c.pixels.shape:
        raise ValueError(
            f"image dimensions differ: {p.pixels.shape} vs {c.pixels.shape}"
        )
    return _ncc_flat(p.pixels.ravel(), c.pixels.ravel())


class FrameStats:
    """Centered pixels of one frame, precomputed for repeated NCC use.

    The scheduler correlates every incoming frame against the previous one;
    caching the previous frame's centering halves the work per call while
    producing bit-identical results to :func:`ncc`.
    """

    __slots__ = ("image", "centered", "var", "mean")

    def __init__(self, image: GrayscaleImage) -> None:
        flat = image.pixels.ravel()
        self.image = image
        self.mean = flat.mean()
        self.centered = flat - self.mean
        self.var = float(self.centered @ self.centered)


def ncc_cached(prev: FrameStats, cur: FrameStats) -> float:
    """Same result as ``ncc(prev.image, cur.image)``, reusing cached stats."""
    if prev.image.pixels.shape != cur.image.pixels.shape:
        raise ValueError(
            f"image dimensions differ: {prev.image.pixels.shape} "
            f"vs {cur.image.pixels.shape}"
        )
    return _ncc_from_stats(
        float(prev.centered @ cur.centered),
        prev.var,
        cur.var,
        prev.mean,
        cur.mean,
    )


def _ncc_flat(a: np.ndarray, b: np.ndarray) -> float:
    ma = a.mean()
    mb = b.mean()
    ac = a - ma
    bc = b - mb
    return _ncc_from_stats(
        float(ac @ bc), float(ac @ ac), float(bc @ bc), ma, mb
    )


def _ncc_from_stats(
    cross: float, va: float, vb: float, mean_a: float, mean_b: float
) -> float:
    if va < _VAR_EPS or vb < _VAR_EPS:
        if va < _VAR_EPS and vb < _VAR_EPS and abs(mean_a - mean_b) < _VAR_EPS:
            return 1.0
        return 0.0
    # sqrt of the product (not product of sqrts) so that self-correlation
    # divides va by exactly va and yields exactly 1.0.
    r = cross / np.sqrt(va * vb)
    return min(1.0, max(-1.0, float(r)))


def _crop(frame: GrayscaleImage, box: BoundingBox) -> np.ndarray:
    if box.x_max > frame.width or box.y_max > frame.height:
        raise ValueError(
            f"box ({box.x_min}, {box.y_min}, {box.x_max}, {box.y_max}) "
            f"outside {frame.width}x{frame.height} frame"
        )
    x0, x1 = int(np.floor(box.x_min)), int(np.ceil(box.x_max))
    y0, y1 = int(np.floor(box.y_min)), int(np.ceil(box.y_max))
    return frame.pixels[y0:y1, x0:x1]


def _resample_nearest(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = pixels.shape
    rows = np.minimum(((np.arange(out_h) + 0.5) * h / out_h).astype(int), h - 1)
    cols = np.minimum(((np.arange(out_w) + 0.5) * w / out_w).astype(int), w - 1)
    return pixels.take(rows, 0).take(cols, 1)


def bbox_similarity(
    prev_frame: GrayscaleImage,
    prev_box: BoundingBox,
    cur_frame: GrayscaleImage,
    cur_box: BoundingBox,
) -> float:
    """NCC between the two box contents, resampled to a common square patch.

    Differently sized boxes are comparable after nearest-neighbor resampling.
    A zero-area box carries no content and scores 0.
    """
    a = _crop(prev_frame, prev_box)
    b = _crop(cur_frame, cur_box)
    if a.size == 0 or b.size == 0:
        return 0.0
    a = _resample_nearest(a, PATCH_SIZE, PATCH_SIZE)
    b = _resample_nearest(b, PATCH_SIZE, PATCH_SIZE)
    return _ncc_flat(a.ravel(), b.ravel())


def similarity(
    prev_frame: GrayscaleImage,
    cur_frame: GrayscaleImage,
    prev_box: BoundingBox | None = None,
    cur_box: BoundingBox | None = None,
) -> float:
    """min(frame NCC, box NCC); a missing box zeroes the box term.

    The min forces the score down when either the scene or the detection
    became unstable, which is what triggers rescheduling.
    """
    frame_term = ncc(prev_frame, cur_frame)
    if prev_box is None or cur_box is None:
        box_term = 0.0
    else:
        box_term = bbox_similarity(prev_frame, prev_box, cur_frame, cur_box)
    return min(frame_term, box_term)
