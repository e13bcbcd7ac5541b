"""Frame-context change detection via normalized cross-correlation.

All arithmetic is float64.  NCC of images p and c is

    sum((p - mean(p)) * (c - mean(c)))
    ----------------------------------
    sqrt(sum((c - mean(c))^2)) * sqrt(sum((p - mean(p))^2))

clamped to [-1, 1] against rounding.  A constant image has no correlation
evidence: it scores 0 against anything except an equal constant, which
scores 1.

An 8-bit image is cast once to a float64 copy, which is centred in place;
a float64 image is centred out of place (`FrameStats`).  Either way the
mean is ``np.mean``'s bit for bit: the cast is exact and every partial sum
of 8-bit pixels is an integer below 2**53, so any summation order gives
the exact sum, and float64 pixels go through the same pairwise sum.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import BoundingBox
from .images import GrayscaleImage

# Below this centered sum-of-squares an image is treated as constant; one
# 8-bit quantum of real variation sits many orders of magnitude above it.
_VAR_EPS = 1e-9

# Crops are compared at this fixed square resolution.
PATCH_SIZE = 64
# 2k + 1 for each patch index k: the sample centre k + 0.5, doubled.
_ODD = 2 * np.arange(PATCH_SIZE) + 1


def ncc(p: GrayscaleImage, c: GrayscaleImage) -> float:
    """Normalized cross-correlation of two same-size images, in [-1, 1]."""
    return ncc_cached(FrameStats(p.pixels), FrameStats(c.pixels))


class FrameStats:
    """Centered values of one 2-D pixel array, the input of :func:`ncc_cached`.

    The scheduler correlates every incoming frame against the previous one
    and keeps the previous frame's stats, so each frame is centered once.
    8-bit pixels are cast once to a float64 copy and centred in place, with
    no mixed-dtype arithmetic; the mean equals ``pixels.mean()`` bit for bit
    (see the module docstring).  The input array is never written to.
    """

    __slots__ = ("shape", "centered", "var", "mean")

    def __init__(self, pixels: np.ndarray) -> None:
        self.shape = pixels.shape
        if pixels.dtype == np.float64:
            # A copy to centre in place costs more here than the
            # out-of-place subtraction (about 20% at 640x640).
            flat = pixels.ravel()
            self.mean = flat.sum() / flat.size
            centered = flat - self.mean
        else:
            centered = pixels.astype(np.float64, order="C").ravel()
            self.mean = centered.sum() / centered.size
            centered -= self.mean
        self.centered = centered
        self.var = float(centered @ centered)


def ncc_cached(prev: FrameStats, cur: FrameStats) -> float:
    """NCC of two same-shape arrays' stats; every NCC in this module is this one."""
    if prev.shape != cur.shape:
        raise ValueError(f"image dimensions differ: {prev.shape} vs {cur.shape}")
    if prev.var < _VAR_EPS or cur.var < _VAR_EPS:
        both = prev.var < _VAR_EPS and cur.var < _VAR_EPS
        return 1.0 if both and abs(prev.mean - cur.mean) < _VAR_EPS else 0.0
    # sqrt of the product (not product of sqrts) so that self-correlation
    # divides var by exactly var and yields exactly 1.0.
    r = float(prev.centered @ cur.centered) / np.sqrt(prev.var * cur.var)
    return min(1.0, max(-1.0, float(r)))


def _crop(frame: GrayscaleImage, box: BoundingBox) -> np.ndarray:
    if box.x_max > frame.width or box.y_max > frame.height:
        raise ValueError(
            f"box ({box.x_min}, {box.y_min}, {box.x_max}, {box.y_max}) "
            f"outside {frame.width}x{frame.height} frame"
        )
    x0, x1 = math.floor(box.x_min), math.ceil(box.x_max)
    y0, y1 = math.floor(box.y_min), math.ceil(box.y_max)
    return frame.pixels[y0:y1, x0:x1]


def _resample_nearest(pixels: np.ndarray) -> np.ndarray:
    # Source index floor((k + 0.5) * n / 64) in integers: ((2k + 1) * n) >> 7.
    # It is below n, as (2 * 63 + 1) * n < 128 * n, so it needs no clamp.
    # Rows first: the 64 gathered rows are a contiguous copy, which the
    # column gather then reads faster than the strided crop.
    height, width = pixels.shape
    return pixels[(_ODD * height) >> 7][:, (_ODD * width) >> 7]


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
    return ncc_cached(
        FrameStats(_resample_nearest(a)),
        FrameStats(_resample_nearest(b)),
    )


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
