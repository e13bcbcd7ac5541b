from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odsched.catalog import BoundingBox
from odsched.context import (
    FrameStats,
    _resample_nearest,
    bbox_similarity,
    ncc,
    ncc_cached,
    similarity,
)
from odsched.images import GrayscaleImage


def _random_image(rng: np.random.Generator, h: int = 16, w: int = 16) -> GrayscaleImage:
    return GrayscaleImage(rng.integers(0, 256, size=(h, w)).astype(float))


def test_self_correlation_is_exactly_one():
    rng = np.random.default_rng(0)
    for shape in ((4, 4), (17, 3), (64, 64)):
        img = _random_image(rng, *shape)
        assert ncc(img, img) == 1.0


def test_negation_is_minus_one():
    rng = np.random.default_rng(1)
    img = _random_image(rng)
    neg = GrayscaleImage(255.0 - img.pixels)
    assert ncc(img, neg) == pytest.approx(-1.0, abs=1e-12)


def test_constant_image_rules():
    flat = GrayscaleImage(np.full((8, 8), 100.0))
    other = _random_image(np.random.default_rng(2), 8, 8)
    assert ncc(flat, other) == 0.0
    assert ncc(other, flat) == 0.0
    assert ncc(flat, GrayscaleImage(np.full((8, 8), 100.0))) == 1.0
    assert ncc(flat, GrayscaleImage(np.full((8, 8), 101.0))) == 0.0


def test_dimension_mismatch_rejected():
    a = GrayscaleImage(np.zeros((4, 4)))
    b = GrayscaleImage(np.zeros((4, 5)))
    with pytest.raises(ValueError, match="differ"):
        ncc(a, b)


def test_matches_pearson_correlation_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = _random_image(rng, 12, 9)
        b = _random_image(rng, 12, 9)
        expected = np.corrcoef(a.pixels.ravel(), b.pixels.ravel())[0, 1]
        assert ncc(a, b) == pytest.approx(float(expected), abs=1e-12)


def test_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b = _random_image(rng), _random_image(rng)
        assert abs(ncc(a, b) - ncc(b, a)) <= 1e-12


def test_affine_invariance_positive_scale():
    rng = np.random.default_rng(5)
    for a_scale, b_shift in ((0.5, 3.0), (2.0, 10.0), (0.125, 0.0)):
        p = GrayscaleImage(rng.integers(0, 100, size=(20, 20)).astype(float))
        c = _random_image(rng, 20, 20)
        transformed = GrayscaleImage(a_scale * p.pixels + b_shift)
        assert ncc(transformed, c) == pytest.approx(ncc(p, c), abs=1e-9)


def test_bounded_by_one():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a, b = _random_image(rng, 5, 5), _random_image(rng, 5, 5)
        assert abs(ncc(a, b)) <= 1.0


def test_cached_path_matches_plain():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a, b = _random_image(rng, 33, 21), _random_image(rng, 33, 21)
        assert ncc_cached(FrameStats(a.pixels), FrameStats(b.pixels)) == ncc(a, b)


def test_uint8_frames_match_float64_copies(demo_trace):
    # Byte frames are summed and centred in float64, exactly like their copies.
    frames = [fr.frame for fr in demo_trace.frames[140:160]]
    rng = np.random.default_rng(9)
    frames += [GrayscaleImage(rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
               for _ in range(4)]
    frames.append(GrayscaleImage(np.full((64, 64), 7, dtype=np.uint8)))
    wide = [GrayscaleImage(f.pixels.astype(np.float64)) for f in frames]
    assert {f.pixels.dtype for f in frames} == {np.dtype(np.uint8)}
    boxes = [BoundingBox(3.5, 2.25, 40.0, 33.7), BoundingBox(10.0, 12.0, 64.0, 30.5)]
    for i in range(1, len(frames)):
        p, c, pw, cw = frames[i - 1], frames[i], wide[i - 1], wide[i]
        assert ncc(p, c) == ncc(pw, cw)
        assert ncc_cached(FrameStats(p.pixels), FrameStats(c.pixels)) == ncc(pw, cw)
        for a in boxes:
            for b in boxes:
                assert bbox_similarity(p, a, c, b) == bbox_similarity(pw, a, cw, b)


@st.composite
def _pixel_arrays(draw) -> np.ndarray:
    """uint8 or float64 pixels in [0, 255], 1x1 to 300x300, constant or not,
    as a C-order, Fortran-order or strided array."""
    h, w = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    dtype = draw(st.sampled_from([np.uint8, np.float64]))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base_shape = (2 * h + 1, 3 * w) if layout == "strided" else (h, w)
    if draw(st.booleans()):
        value = draw(st.integers(0, 255) if dtype == np.uint8 else st.floats(0, 255))
        base = np.full(base_shape, value, dtype=dtype)
    elif dtype == np.uint8:
        base = rng.integers(0, 256, size=base_shape, dtype=np.uint8)
    else:
        base = rng.uniform(0, 255, size=base_shape)
    if layout == "F":
        return np.asfortranarray(base)
    return base[1::2, ::3] if layout == "strided" else base


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_pixel_arrays())
def test_frame_stats_match_mean_then_subtract(pixels):
    # The plain formula FrameStats replaces; every field must agree bit for bit.
    before = pixels.copy()
    flat = pixels.ravel()
    mean = flat.mean()
    centered = flat - mean
    stats = FrameStats(pixels)
    assert stats.mean == mean
    assert stats.centered.dtype == np.float64
    assert np.array_equal(stats.centered, centered)
    assert stats.var == float(centered @ centered)
    assert stats.shape == pixels.shape
    assert np.array_equal(pixels, before)


def test_resample_indices_match_clamped_formula():
    # Rows depend on the height only and columns on the width only, so one
    # ramp per size covers every height and every width from 1 to 700.
    for n in range(1, 701):
        clamped = np.minimum(((np.arange(64) + 0.5) * n / 64).astype(int), n - 1)
        ramp = np.arange(n)
        assert np.array_equal(_resample_nearest(ramp[:, None])[:, 0], clamped)
        assert np.array_equal(_resample_nearest(ramp[None, :])[0], clamped)


def test_resample_integer_indices_match_float_formula():
    # ((2k + 1) * n) >> 7 is floor((k + 0.5) * n / 64) exactly, with no clamp.
    centers = np.arange(64) + 0.5
    for n in range(1, 4097):
        expected = (centers * n / 64).astype(np.intp)
        ramp = np.arange(n)
        assert np.array_equal(_resample_nearest(ramp[:, None])[:, 0], expected)
        assert np.array_equal(_resample_nearest(ramp[None, :])[0], expected)


# ---------------------------------------------------------------------------
# box similarity


def test_same_frame_same_box_is_one():
    img = _random_image(np.random.default_rng(8), 32, 32)
    box = BoundingBox(4, 4, 20, 20)
    assert bbox_similarity(img, box, img, box) == 1.0


def test_negated_crop_is_minus_one():
    rng = np.random.default_rng(9)
    frame = _random_image(rng, 40, 40)
    negated = GrayscaleImage(255.0 - frame.pixels)
    box = BoundingBox(5, 10, 25, 30)
    assert bbox_similarity(frame, box, negated, box) == pytest.approx(-1.0, abs=1e-12)


def test_different_sized_boxes_are_comparable():
    rng = np.random.default_rng(10)
    frame = _random_image(rng, 64, 64)
    r = bbox_similarity(frame, BoundingBox(0, 0, 32, 32), frame, BoundingBox(0, 0, 16, 16))
    assert -1.0 <= r <= 1.0


def test_zero_area_box_scores_zero():
    img = _random_image(np.random.default_rng(11), 16, 16)
    assert bbox_similarity(img, BoundingBox(3, 3, 3, 9), img, BoundingBox(0, 0, 8, 8)) == 0.0


def test_box_outside_frame_rejected():
    img = _random_image(np.random.default_rng(12), 16, 16)
    with pytest.raises(ValueError, match="outside"):
        bbox_similarity(img, BoundingBox(0, 0, 20, 20), img, BoundingBox(0, 0, 8, 8))


# ---------------------------------------------------------------------------
# combined similarity


def test_identical_frames_and_boxes():
    img = _random_image(np.random.default_rng(13), 32, 32)
    box = BoundingBox(2, 2, 30, 30)
    assert similarity(img, img, box, box) == 1.0


def test_missing_box_zeroes_the_min():
    img = _random_image(np.random.default_rng(14), 32, 32)
    assert similarity(img, img, BoundingBox(0, 0, 8, 8), None) == 0.0
    assert similarity(img, img, None, BoundingBox(0, 0, 8, 8)) == 0.0


def test_min_of_frame_and_box_terms():
    # frames nearly identical, but the current box region is negated: the
    # box term is far below the frame term and must win the min
    rng = np.random.default_rng(15)
    prev = _random_image(rng, 48, 48)
    cur_px = prev.pixels.copy()
    cur_px[10:30, 10:30] = 255.0 - cur_px[10:30, 10:30]
    cur = GrayscaleImage(cur_px)
    box = BoundingBox(10, 10, 30, 30)
    frame_term = ncc(prev, cur)
    box_term = bbox_similarity(prev, box, cur, box)
    assert box_term == pytest.approx(-1.0, abs=1e-12)
    assert box_term < frame_term
    assert similarity(prev, cur, box, box) == box_term


def test_similarity_never_exceeds_frame_ncc():
    rng = np.random.default_rng(16)
    for _ in range(10):
        a, b = _random_image(rng, 24, 24), _random_image(rng, 24, 24)
        box1 = BoundingBox(2, 2, 12, 12)
        box2 = BoundingBox(6, 4, 20, 18)
        assert similarity(a, b, box1, box2) <= ncc(a, b)
