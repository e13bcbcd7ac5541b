"""Frame-context change detection via normalized cross-correlation.

The NCC of images p and c is their Pearson correlation,

    sum((p - mean(p)) * (c - mean(c)))
    ----------------------------------
    sqrt(sum((c - mean(c))^2)) * sqrt(sum((p - mean(p))^2))

clamped to [-1, 1].  A constant image has no correlation evidence: it
scores 0 against anything except an equal constant, which scores 1.

Two 8-bit images take the exact path, the sum form of Lewis, "Fast
Normalized Cross-Correlation" (1995).  With n pixels, sums S = sum(x) and
Q = sum(x^2) per image and P = sum(p * c),

    NCC = (n P - Sp Sc) / sqrt((n Qp - Sp^2) (n Qc - Sc^2))

Each sum is an integer below 2**53 for any frame that fits in memory, so
float64 arithmetic on the uncentred values gets it exactly in any
summation order, on any number of BLAS threads.  The rest is Python
integer arithmetic, and the one division is correctly rounded, so the
value is the same to the last bit on every host and a self-correlation is
exactly 1.0.

Any other pair follows the first formula in float64.  A float64 image is
centred when its stats are built.  An 8-bit image paired with a float64
one is centred on S / n, which equals ``np.mean``'s result bit for bit
because S is exact.

A box term compares two boxes' crops, each resampled to one square patch.
A stream's previous patch is the one its previous box term built as the
current patch, so a :class:`LastPatch` keeps that one and
:func:`bbox_similarity` reuses it instead of building it again.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import BoundingBox
from .images import GrayscaleImage

# Below this centered sum-of-squares a float64 image is treated as
# constant; one 8-bit quantum of real variation sits many orders of
# magnitude above it.
_VAR_EPS = 1e-9

# Crops are compared at this fixed square resolution.
PATCH_SIZE = 64
# 2k + 1 for each patch index k: the sample centre k + 0.5, doubled.
_ODD = 2 * np.arange(PATCH_SIZE) + 1


class FrameStats:
    """What :func:`ncc_cached` needs of one 2-D pixel array.

    The scheduler correlates every incoming frame against the previous one
    and keeps the previous frame's stats, so each frame's are built once.
    ``values`` is a flat float64 copy of the pixels.  For 8-bit pixels it is
    uncentred, with ``total`` = sum(x) and ``spread`` = n sum(x^2) -
    sum(x)^2 as Python ints (``spread`` is 0 for a constant image).  For any
    other dtype it is centred on ``mean``, with ``var`` its sum of squares,
    and ``total`` and ``spread`` are None.  The input array is never
    written to.
    """

    __slots__ = ("shape", "values", "total", "spread", "mean", "var")

    def __init__(self, pixels: np.ndarray) -> None:
        self.shape = pixels.shape
        if pixels.dtype == np.uint8:
            self.values = values = pixels.astype(np.float64, order="C").ravel()
            # Exact in any order; einsum's unrolled sum is as fast as the
            # pairwise sum on a 64x64 patch and faster on larger frames.
            self.total = total = int(np.einsum("i->", values))
            self.spread = values.size * int(values @ values) - total * total
            self.mean = self.var = None
        else:
            # A copy to centre in place costs more here than the
            # out-of-place subtraction (about 20% at 640x640).
            flat = pixels.astype(np.float64, copy=False).ravel()
            self.mean = flat.sum() / flat.size
            self.values = centered = flat - self.mean
            self.var = float(centered @ centered)
            self.total = self.spread = None


def _centered(stats: FrameStats) -> tuple[np.ndarray, float, float]:
    """(centred values, their sum of squares, mean) of either kind of stats."""
    if stats.spread is None:
        return stats.values, stats.var, stats.mean
    mean = stats.total / stats.values.size
    centered = stats.values - mean
    return centered, float(centered @ centered), mean


def ncc_cached(prev: FrameStats, cur: FrameStats) -> float:
    """NCC of two same-shape arrays' stats; every NCC in this module is this one."""
    if prev.shape != cur.shape:
        raise ValueError(f"image dimensions differ: {prev.shape} vs {cur.shape}")
    v1, v2 = prev.spread, cur.spread
    if v1 is not None and v2 is not None:
        if not v1 or not v2:
            return 1.0 if v1 == v2 and prev.total == cur.total else 0.0
        values = prev.values
        cov = values.size * int(values @ cur.values) - prev.total * cur.total
        # isqrt floors the root 64 bits below its units place, which moves
        # the quotient by under 2**-64 of itself; Python's int division then
        # rounds correctly.  A plain isqrt(v1 * v2) drops the root's
        # fraction, which moves a near-constant 64x64 patch's NCC by ~5e-10.
        r = (cov << 64) / math.isqrt((v1 * v2) << 128)
        return min(1.0, max(-1.0, r))
    a, var_a, mean_a = _centered(prev)
    b, var_b, mean_b = _centered(cur)
    if var_a < _VAR_EPS or var_b < _VAR_EPS:
        both = var_a < _VAR_EPS and var_b < _VAR_EPS
        return 1.0 if both and abs(mean_a - mean_b) < _VAR_EPS else 0.0
    # sqrt of the product (not product of sqrts) so that self-correlation
    # divides var by exactly var and yields exactly 1.0.
    r = float(a @ b) / np.sqrt(var_a * var_b)
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


class LastPatch:
    """The last box patch one stream built: the frame and box it was cut
    from, and its FrameStats (None for a zero-area crop).  It holds one
    patch, so a stream keeps nothing more as it grows."""

    __slots__ = ("frame", "box", "stats")

    def __init__(self) -> None:
        self.frame: GrayscaleImage | None = None
        self.box: BoundingBox | None = None
        self.stats: FrameStats | None = None


def _patch(frame: GrayscaleImage, box: BoundingBox) -> FrameStats | None:
    """FrameStats of the box's crop resampled to the common square patch,
    or None for a zero-area crop; every box patch is built here."""
    pixels = _crop(frame, box)
    return FrameStats(_resample_nearest(pixels)) if pixels.size else None


def bbox_similarity(
    prev_frame: GrayscaleImage,
    prev_box: BoundingBox,
    cur_frame: GrayscaleImage,
    cur_box: BoundingBox,
    last: LastPatch,
) -> float:
    """NCC between the two box contents, resampled to a common square patch.

    Differently sized boxes are comparable after nearest-neighbor resampling.
    A zero-area box carries no content and scores 0.

    `last` stands in for the previous patch when it holds exactly
    `prev_frame` and `prev_box` (the same objects), and the current patch
    replaces it.  A patch depends only on its frame and box, so a fresh
    `LastPatch()`, which builds both, gives the same value to the last bit.
    """
    if last.frame is prev_frame and last.box is prev_box:
        a = last.stats
    else:
        a = _patch(prev_frame, prev_box)
    b = _patch(cur_frame, cur_box)
    last.frame, last.box, last.stats = cur_frame, cur_box, b
    if a is None or b is None:
        return 0.0
    return ncc_cached(a, b)
