from __future__ import annotations

import numpy as np
import pytest

from odsched.images import (
    GrayscaleImage,
    decode_inline,
    encode_inline,
    read_pgm,
    write_pgm,
)


def test_dimensions():
    img = GrayscaleImage(np.zeros((3, 5)))
    assert img.height == 3 and img.width == 5


def test_validation():
    with pytest.raises(ValueError, match="2-D"):
        GrayscaleImage(np.zeros(4))
    with pytest.raises(ValueError, match="\\[0, 255\\]"):
        GrayscaleImage(np.full((2, 2), 300.0))
    with pytest.raises(ValueError, match="\\[0, 255\\]"):
        GrayscaleImage(np.full((2, 2), 256, dtype=np.int16))
    with pytest.raises(ValueError, match="non-finite"):
        GrayscaleImage(np.full((2, 2), np.nan))


def test_eight_bit_sources_stay_uint8(tmp_path):
    raw = bytes(range(256)) * 3
    img = GrayscaleImage.from_bytes(32, 24, raw)
    write_pgm(img, tmp_path / "x.pgm")
    for decoded in (img, decode_inline(encode_inline(img)), read_pgm(tmp_path / "x.pgm")):
        assert decoded.pixels.dtype == np.uint8
        assert decoded.to_bytes() == raw
    given = np.zeros((2, 3), dtype=np.uint8)
    assert GrayscaleImage(given).pixels is given


def test_other_dtypes_become_float64():
    assert GrayscaleImage(np.zeros((2, 2), dtype=np.int64)).pixels.dtype == np.float64
    assert GrayscaleImage([[0.5, 255.0]]).pixels.dtype == np.float64


def test_from_bytes_size_check():
    with pytest.raises(ValueError, match="pixel count"):
        GrayscaleImage.from_bytes(3, 3, b"\x00" * 8)


def test_inline_round_trip():
    rng = np.random.default_rng(0)
    img = GrayscaleImage(rng.integers(0, 256, size=(7, 9)).astype(float))
    back = decode_inline(encode_inline(img))
    assert (back.pixels == img.pixels).all()


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = GrayscaleImage(rng.integers(0, 256, size=(11, 6)).astype(float))
    write_pgm(img, tmp_path / "x.pgm")
    back = read_pgm(tmp_path / "x.pgm")
    assert (back.pixels == img.pixels).all()


def test_pgm_header_comments(tmp_path):
    raw = b"P5\n# a comment\n2 2\n# another\n255\n\x01\x02\x03\x04"
    p = tmp_path / "c.pgm"
    p.write_bytes(raw)
    img = read_pgm(p)
    assert img.pixels.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_pgm_rejects_ascii_format(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P2\n2 2\n255\n1 2 3 4\n")
    with pytest.raises(ValueError, match="P5"):
        read_pgm(p)


def test_pgm_truncated(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(ValueError, match="truncated"):
        read_pgm(p)


@pytest.mark.parametrize("size", [b"0 5", b"5 0", b"-2 3", b"3 -2"])
def test_pgm_non_positive_size_is_a_header_fault(tmp_path, size):
    p = tmp_path / "s.pgm"
    p.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(16))
    width, height = size.decode().split()
    with pytest.raises(
        ValueError, match=f"s.pgm: image dimensions must be positive, got {width}x{height}$"
    ):
        read_pgm(p)


def test_pgm_samples_may_reach_but_not_exceed_maxval(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n2 2\n15\n" + bytes([0, 15, 7, 3]))
    assert read_pgm(p).pixels.tolist() == [[0, 15], [7, 3]]
    p.write_bytes(b"P5\n2 2\n15\n" + bytes([0, 16, 7, 3]))
    with pytest.raises(ValueError, match="m.pgm: PGM sample 16 exceeds maxval 15"):
        read_pgm(p)
