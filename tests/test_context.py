from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import odsched
from odsched import context
from odsched.catalog import BoundingBox
from odsched.context import (
    FrameStats,
    LastPatch,
    _crop,
    _resample_nearest,
    bbox_similarity,
    ncc_cached,
)
from odsched.images import GrayscaleImage
from reference import ncc, similarity


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


def _exact_ncc_terms(p: np.ndarray, c: np.ndarray) -> tuple[int, int, int, int]:
    """n, sum(p), n sum(pc) - sum(p) sum(c) and the product of the two
    n sum(x^2) - sum(x)^2, from int64 sums (exact for 8-bit pixels)."""
    x, y = (a.astype(np.int64).ravel() for a in (p, c))
    n, sx, sy = x.size, int(x.sum()), int(y.sum())
    spreads = (n * int(x @ x) - sx * sx) * (n * int(y @ y) - sy * sy)
    return n, sx, n * int(x @ y) - sx * sy, spreads


def _at_least(cov: int, spreads: int, q: Fraction) -> bool:
    """Whether cov / sqrt(spreads) >= q, compared exactly through squares."""
    if cov >= 0:
        return q <= 0 or cov * cov >= q * q * spreads
    return q <= 0 and cov * cov <= q * q * spreads


def _is_correctly_rounded_ncc(r: float, p: np.ndarray, c: np.ndarray) -> bool:
    """Whether `r` is the float nearest the exact NCC of 8-bit arrays p and c:
    the exact value lies between the midpoints from r to its neighbours."""
    _, _, cov, spreads = _exact_ncc_terms(p, c)
    if spreads == 0:  # a constant image: 1 against an equal constant, else 0
        return r == (1.0 if p.min() == p.max() and np.array_equal(p, c) else 0.0)
    lo = (Fraction(r) + Fraction(math.nextafter(r, -2.0))) / 2
    hi = (Fraction(r) + Fraction(math.nextafter(r, 2.0))) / 2
    return _at_least(cov, spreads, lo) and not _at_least(cov, spreads, hi)


def _float_ncc(p: np.ndarray, c: np.ndarray) -> float:
    """The float64 formula: centre each copy on its mean, then correlate."""
    a, b = (x.astype(np.float64).ravel() for x in (p, c))
    a, b = a - a.mean(), b - b.mean()
    return min(1.0, max(-1.0, float((a @ b) / np.sqrt((a @ a) * (b @ b)))))


def test_uint8_ncc_is_the_correctly_rounded_exact_value(demo_trace):
    # 8-bit frames and box patches take the exact integer-sum path; float64
    # copies take the centred float path, which lands within 1e-12 of it.
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
        r = ncc(p, c)
        assert _is_correctly_rounded_ncc(r, p.pixels, c.pixels)
        assert abs(r - ncc(pw, cw)) <= 1e-12
        assert ncc_cached(FrameStats(p.pixels), FrameStats(c.pixels)) == r
        for a in boxes:
            for b in boxes:
                r = bbox_similarity(p, a, c, b, LastPatch())
                patches = (_resample_nearest(_crop(p, a)), _resample_nearest(_crop(c, b)))
                assert _is_correctly_rounded_ncc(r, *patches)
                assert abs(r - bbox_similarity(pw, a, cw, b, LastPatch())) <= 1e-12


def test_uint8_self_correlation_and_constant_rules_are_exact():
    rng = np.random.default_rng(17)
    for shape in ((1, 2), (4, 4), (17, 3), (64, 64), (130, 130), (240, 320)):
        img = GrayscaleImage(rng.integers(0, 256, size=shape, dtype=np.uint8))
        assert ncc(img, img) == 1.0
        assert ncc(img, GrayscaleImage(255 - img.pixels)) == -1.0
        flat = GrayscaleImage(np.full(shape, 7, dtype=np.uint8))
        assert ncc(flat, GrayscaleImage(np.full(shape, 7, dtype=np.uint8))) == 1.0
        assert ncc(flat, GrayscaleImage(np.full(shape, 8, dtype=np.uint8))) == 0.0
        assert ncc(flat, img) == ncc(img, flat) == 0.0


def test_mixed_pair_takes_the_float64_path(demo_trace):
    # An 8-bit image against a float64 one is centred and correlated in
    # float64, bit for bit as if both were float64.
    frames = [fr.frame.pixels for fr in demo_trace.frames[145:155]]
    for p, c in zip(frames, frames[1:]):
        pw, cw = p.astype(np.float64), c.astype(np.float64)
        float_path = ncc_cached(FrameStats(pw), FrameStats(cw))
        assert float_path == _float_ncc(p, c)
        assert ncc_cached(FrameStats(p), FrameStats(cw)) == float_path
        assert ncc_cached(FrameStats(pw), FrameStats(c)) == float_path
    flat = np.full((64, 64), 7, dtype=np.uint8)
    assert ncc_cached(FrameStats(flat), FrameStats(flat.astype(np.float64))) == 1.0
    assert ncc_cached(FrameStats(flat), FrameStats(np.full((64, 64), 8.0))) == 0.0
    assert ncc_cached(FrameStats(flat), FrameStats(frames[0].astype(np.float64))) == 0.0


@st.composite
def _pixel_arrays(draw, dtype) -> np.ndarray:
    """`dtype` pixels in [0, 255], 1x1 to 300x300, constant or not, as a
    C-order, Fortran-order or strided array."""
    h, w = draw(st.integers(1, 300)), draw(st.integers(1, 300))
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
@given(_pixel_arrays(np.float64))
def test_frame_stats_match_mean_then_subtract(pixels):
    # The plain formula the float64 path follows; every field agrees bit for bit.
    before = pixels.copy()
    flat = pixels.ravel()
    mean = flat.mean()
    centered = flat - mean
    stats = FrameStats(pixels)
    assert stats.mean == mean
    assert stats.values.dtype == np.float64
    assert np.array_equal(stats.values, centered)
    assert stats.var == float(centered @ centered)
    assert stats.total is None and stats.spread is None
    assert stats.shape == pixels.shape
    assert np.array_equal(pixels, before)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_pixel_arrays(np.uint8))
def test_uint8_frame_stats_hold_exact_integer_sums(pixels):
    # The sums are exact at every size, layout and value.
    before = pixels.copy()
    n, total, spread, _ = _exact_ncc_terms(pixels, pixels)
    stats = FrameStats(pixels)
    assert type(stats.total) is int and type(stats.spread) is int
    assert (stats.total, stats.spread) == (total, spread)
    assert np.array_equal(stats.values, pixels.astype(np.float64).ravel())
    assert stats.values.size == n and stats.shape == pixels.shape
    assert stats.mean is None and stats.var is None
    assert np.array_equal(pixels, before)


_NCC_BITS_CHILD = """
import numpy as np
from odsched.context import FrameStats, LastPatch, bbox_similarity, ncc_cached
from odsched.sim import ModelBehavior, Scenario, Segment, gen_trace

behavior = {"m": ModelBehavior(0.8, 0.05, 0.7, 0.05)}
scenario = Scenario((Segment(6, behavior), Segment(6, behavior)), width=320, height=240)
frames = gen_trace(scenario, 5).frames
assert all(fr.frame.pixels.dtype == np.uint8 for fr in frames)
for p, c in zip(frames, frames[1:]):
    frame_term = ncc_cached(FrameStats(p.frame.pixels), FrameStats(c.frame.pixels))
    box_term = bbox_similarity(p.frame, p.ground_truth, c.frame, c.ground_truth, LastPatch())
    print(frame_term.hex(), box_term.hex())
"""


def test_uint8_ncc_bits_do_not_depend_on_the_blas_thread_count():
    # Two fresh interpreters, one on a single OpenBLAS thread and one on the
    # library's default; each prints the frame and box NCCs of 320x240
    # generated frames as float.hex().
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(odsched.__file__).parents[1])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _NCC_BITS_CHILD], env=child_env,
            capture_output=True, text=True, check=True,
        ).stdout
        for child_env in (dict(env, OPENBLAS_NUM_THREADS="1"), env)
    ]
    assert len(outputs[0].splitlines()) == 11
    assert outputs[0] == outputs[1]


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
    assert bbox_similarity(img, box, img, box, LastPatch()) == 1.0


def test_negated_crop_is_minus_one():
    rng = np.random.default_rng(9)
    frame = _random_image(rng, 40, 40)
    negated = GrayscaleImage(255.0 - frame.pixels)
    box = BoundingBox(5, 10, 25, 30)
    r = bbox_similarity(frame, box, negated, box, LastPatch())
    assert r == pytest.approx(-1.0, abs=1e-12)


def test_different_sized_boxes_are_comparable():
    rng = np.random.default_rng(10)
    frame = _random_image(rng, 64, 64)
    big, small = BoundingBox(0, 0, 32, 32), BoundingBox(0, 0, 16, 16)
    r = bbox_similarity(frame, big, frame, small, LastPatch())
    assert -1.0 <= r <= 1.0


def test_zero_area_box_scores_zero():
    img = _random_image(np.random.default_rng(11), 16, 16)
    flat, box = BoundingBox(3, 3, 3, 9), BoundingBox(0, 0, 8, 8)
    assert bbox_similarity(img, flat, img, box, LastPatch()) == 0.0


def test_box_outside_frame_rejected():
    img = _random_image(np.random.default_rng(12), 16, 16)
    with pytest.raises(ValueError, match="outside"):
        bbox_similarity(img, BoundingBox(0, 0, 20, 20), img, BoundingBox(0, 0, 8, 8),
                        LastPatch())


# 8-bit frames of three sizes and one constant frame; a box that fits the
# largest may lie outside a smaller one.
_PATCH_FRAMES = tuple(
    GrayscaleImage(np.random.default_rng(30 + i).integers(0, 256, shape, dtype=np.uint8))
    for i, shape in enumerate(((48, 80), (96, 130), (70, 70)))
) + (GrayscaleImage(np.full((96, 130), 9, dtype=np.uint8)),)


@st.composite
def _patch_boxes(draw) -> BoundingBox:
    """A box in quarter pixels within 130x96: narrower or shorter than the
    patch (upsampled), wider or taller (downsampled), or of zero area."""
    def span(limit: int) -> tuple[float, float]:
        lo = draw(st.integers(0, 4 * limit)) / 4
        size = draw(st.one_of(st.just(0), st.integers(1, 4 * limit))) / 4
        return lo, min(lo + size, limit)

    (x0, x1), (y0, y1) = span(130), span(96)
    return BoundingBox(x0, y0, x1, y1)


# How a call passes the previous detection: as the objects the last call
# took, as an equal copy of its box or frame, or with its box on another
# frame, which the kept patch must not stand in for.
_PREVIOUS = ("same", "box copy", "frame copy", "other frame")


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, len(_PATCH_FRAMES) - 1), _patch_boxes(), st.sampled_from(_PREVIOUS)),
    min_size=2, max_size=10,
))
def test_kept_patch_chain_matches_fresh_patch_calls(chain):
    # Each call compares the previous detection with the current one, as the
    # scheduler does, and must equal the call with a fresh LastPatch on the
    # same arguments to the last bit, or raise as it does.
    last = LastPatch()
    prev_index, prev_box = chain[0][0], chain[0][1]
    for index, box, previous in chain[1:]:
        frame = _PATCH_FRAMES[index]
        p_frame, p_box = _PATCH_FRAMES[prev_index], prev_box
        if previous == "box copy":
            p_box = replace(prev_box)
        elif previous == "frame copy":
            p_frame = GrayscaleImage(p_frame.pixels.copy())
        elif previous == "other frame":
            p_frame = _PATCH_FRAMES[(prev_index + 1) % len(_PATCH_FRAMES)]
        try:
            want = bbox_similarity(p_frame, p_box, frame, box, LastPatch())
        except ValueError:
            with pytest.raises(ValueError, match="outside"):
                bbox_similarity(p_frame, p_box, frame, box, last)
        else:
            got = bbox_similarity(p_frame, p_box, frame, box, last)
            assert got.hex() == want.hex()
            assert last.frame is frame and last.box is box
        prev_index, prev_box = index, box


def test_kept_patch_is_read_only_for_the_same_frame_and_box(monkeypatch):
    built = []
    real = context._patch
    monkeypatch.setattr(context, "_patch", lambda f, b: built.append(b) or real(f, b))
    f1, f2, f3 = _PATCH_FRAMES[:3]
    b1, b2, b3 = BoundingBox(0, 0, 20, 10), BoundingBox(5, 5, 45, 40), BoundingBox(1, 2, 70, 69)
    last = LastPatch()
    calls = [
        ((f1, b1, f2, b2), 2),
        ((f2, b2, f3, b3), 1),
        ((f3, replace(b3), f1, b1), 2),  # an equal box, not the kept one
        ((f1, b1, f2, b2), 1),
    ]
    for args, builds in calls:
        before = len(built)
        assert bbox_similarity(*args, last) == bbox_similarity(*args, LastPatch())
        assert len(built) - before == 2 + builds
    # Right after a reused patch, a current box outside its frame still
    # raises, and the kept patch stays the last one built.
    bad = BoundingBox(0, 0, 90, 60)
    with pytest.raises(ValueError, match="outside"):
        bbox_similarity(f2, b2, f3, bad, last)
    assert last.frame is f2 and last.box is b2
    assert bbox_similarity(f2, b2, f1, b1, last) == bbox_similarity(f2, b2, f1, b1, LastPatch())


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
    box_term = bbox_similarity(prev, box, cur, box, LastPatch())
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
