from __future__ import annotations

import json
import re
from dataclasses import replace
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_catalog, make_profile
from odsched.catalog import (
    BoundingBox,
    CharacterizationTrace,
    DetectionOutcome,
    FrameRecord,
    builtin_catalog,
    catalog_from_dict,
    catalog_to_dict,
    energy_of,
    frame_to_dict,
    iou,
    load_catalog,
    load_trace,
    save_catalog,
    save_trace,
)
from odsched.errors import CatalogError, TraceError
from odsched.images import GrayscaleImage, encode_inline, write_pgm
from odsched.sim import demo_scenario, gen_trace

# ---------------------------------------------------------------------------
# iou


def test_iou_identical_boxes():
    b = BoundingBox(1, 2, 5, 7)
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(2, 2, 3, 3)) == 0.0


def test_iou_partial_overlap_hand_value():
    # intersection 1x1, union 4 + 4 - 1 = 7
    assert iou(BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 3, 3)) == 1 / 7


def test_iou_zero_area_rules():
    point = BoundingBox(1, 1, 1, 1)
    assert iou(point, point) == 1.0
    assert iou(point, BoundingBox(2, 2, 2, 2)) == 0.0
    # zero-area box inside a positive-area one contributes no intersection
    assert iou(point, BoundingBox(0, 0, 5, 5)) == 0.0
    # overlapping boxes whose areas underflow to 0: no 0/0
    assert iou(BoundingBox(0, 0, 1e-200, 1e-200), BoundingBox(0, 0, 1e-200, 2e-200)) == 0.0


coords = st.floats(min_value=0, max_value=1000, allow_nan=False)


@st.composite
def boxes(draw):
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    return BoundingBox(x1, y1, x2, y2)


@given(boxes(), boxes())
def test_iou_symmetric_and_bounded(a, b):
    r = iou(a, b)
    assert r == iou(b, a)
    assert 0.0 <= r <= 1.0


@given(boxes())
def test_iou_self_is_one(a):
    assert iou(a, a) == 1.0


def test_box_validation():
    with pytest.raises(ValueError):
        BoundingBox(2, 0, 1, 1)
    with pytest.raises(ValueError):
        BoundingBox(-1, 0, 1, 1)
    with pytest.raises(ValueError):
        BoundingBox(float("nan"), 0, 1, 1)


# ---------------------------------------------------------------------------
# energy


def test_energy_of_reference_rows():
    assert energy_of(0.130, 15.14) == pytest.approx(1.968, abs=0.01)
    assert energy_of(0.025, 11.2) == pytest.approx(0.280, abs=0.01)
    assert energy_of(0.0, 123.0) == 0.0


@pytest.mark.parametrize("latency, power", [(-0.1, 1.0), (0.1, -1.0)])
def test_energy_of_rejects_negative_inputs(latency, power):
    with pytest.raises(ValueError, match="must be non-negative"):
        energy_of(latency, power)


@given(
    st.floats(min_value=1e-9, max_value=1e6),
    st.floats(min_value=1e-9, max_value=1e6),
)
def test_energy_of_bilinear(t, p):
    # doubling commutes with rounding for normal floats (exact x2 scaling)
    assert energy_of(2 * t, p) == 2 * energy_of(t, p)
    assert energy_of(0.0, p) == 0.0


# ---------------------------------------------------------------------------
# catalog loading and validation


def _minimal_doc() -> dict:
    return {
        "accelerators": [{"name": "gpu", "memory_bytes": 100}],
        "models": ["m1"],
        "compatibility": {"m1": ["gpu"]},
        "profiles": [
            {
                "model": "m1",
                "accelerator": "gpu",
                "avg_latency_s": 0.1,
                "avg_power_w": 10.0,
                "avg_energy_j": 1.0,
                "memory_bytes": 10,
                "load_time_s": 0.0,
                "load_energy_j": 0.0,
            }
        ],
    }


def test_minimal_catalog_accepted():
    cat = catalog_from_dict(_minimal_doc())
    assert cat.models == ("m1",)
    assert cat.profile("m1", "gpu").avg_energy_j == 1.0
    with pytest.raises(KeyError, match=r"no profile for pair \(m1, dla\)"):
        cat.profile("m1", "dla")


def test_reference_row_accepted():
    doc = _minimal_doc()
    doc["profiles"][0].update(
        avg_latency_s=0.130, avg_power_w=15.14, avg_energy_j=1.968
    )
    cat = catalog_from_dict(doc)
    assert cat.profile("m1", "gpu").avg_power_w == 15.14


def test_energy_mismatch_rejected():
    doc = _minimal_doc()
    doc["profiles"][0]["avg_energy_j"] = 10.0  # 0.1 s x 10 W should be ~1 J
    with pytest.raises(CatalogError, match="inconsistent"):
        catalog_from_dict(doc)


def test_energy_tolerance_overridable():
    doc = _minimal_doc()
    doc["profiles"][0]["avg_energy_j"] = 1.3
    with pytest.raises(CatalogError):
        catalog_from_dict(doc)
    doc["energy_tolerance"] = 0.5
    assert catalog_from_dict(doc).energy_tolerance == 0.5


def test_duplicate_pair_rejected():
    doc = _minimal_doc()
    doc["profiles"].append(dict(doc["profiles"][0]))
    with pytest.raises(CatalogError, match="duplicate"):
        catalog_from_dict(doc)


def test_profile_for_incompatible_pair_rejected():
    doc = _minimal_doc()
    doc["compatibility"] = {"m1": []}
    with pytest.raises(CatalogError, match="incompatible|no compatible"):
        catalog_from_dict(doc)


def test_no_compatible_pair_rejected():
    doc = _minimal_doc()
    doc["compatibility"] = {}
    doc["profiles"] = []
    with pytest.raises(CatalogError, match="no compatible"):
        catalog_from_dict(doc)


def test_unknown_model_in_compatibility_rejected():
    doc = _minimal_doc()
    doc["compatibility"]["ghost"] = ["gpu"]
    with pytest.raises(CatalogError, match="ghost"):
        catalog_from_dict(doc)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "path, message",
    [
        (("profiles", 0, "avg_latency_s"), r"\(m1, gpu\): avg_latency_s must be finite"),
        (("profiles", 0, "load_energy_j"), r"\(m1, gpu\): load_energy_j must be finite"),
        (("energy_tolerance",), "energy_tolerance must be finite"),
        (("accelerators", 0, "memory_bytes"), r"accelerators\[0\]: "),
    ],
    ids=["latency", "load_energy", "energy_tolerance", "memory_bytes"],
)
def test_non_finite_catalog_number_rejected(tmp_path, path, message, value):
    doc = _minimal_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    cat_path = tmp_path / "cat.json"
    cat_path.write_text(json.dumps(doc))  # NaN and Infinity tokens
    with pytest.raises(CatalogError, match=message) as info:
        load_catalog(cat_path)
    assert str(info.value).startswith(f"{cat_path}: ")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("compatibility", ["x"], r"^compatibility: "),
        ("accelerators", ["gpu"], r"^accelerators\[0\]: "),
        ("models", 3, r"^models: "),
        ("accelerators", [{"name": "gpu", "memory_bytes": 100, "gpu": "false"}],
         r"^accelerators\[0\]: gpu: must be true or false, got 'false'$"),
        ("accelerators", [{"name": "gpu", "memory_bytes": 400000000.7}],
         r"^accelerators\[0\]: memory_bytes: must be an integer, got 400000000.7$"),
        ("profiles", [{**_minimal_doc()["profiles"][0], "memory_bytes": 1.9}],
         r"^profiles\[0\]: memory_bytes: must be an integer, got 1.9$"),
        ("profiles", [{**_minimal_doc()["profiles"][0], "memory_bytes": True}],
         r"^profiles\[0\]: memory_bytes: must be a number, got True$"),
        ("accelerators", [{"name": "gpu", "memory_bytes": 9}],
         r"^profile \(m1, gpu\): memory_bytes 10 exceeds 'gpu' capacity \(9 B\)$"),
        # Names are JSON strings and lists of names JSON arrays: a number is
        # not converted, and neither a string's characters nor an object's
        # keys are read as names.
        ("models", [7], r"^models: must be an array of strings, got \[7\]$"),
        ("models", "m1", r"^models: must be an array of strings, got 'm1'$"),
        ("models", {"m1": 1}, r"^models: must be an array of strings, got \{'m1': 1\}$"),
        ("compatibility", {"m1": "gpu"},
         r"^compatibility\['m1'\]: must be an array of strings, got 'gpu'$"),
        ("compatibility", {"m1": [None]},
         r"^compatibility\['m1'\]: must be an array of strings, got \[None\]$"),
        ("accelerators", [{"name": 5, "memory_bytes": 100}],
         r"^accelerators\[0\]: name: must be a string, got 5$"),
        ("profiles", [{**_minimal_doc()["profiles"][0], "model": 1}],
         r"^profiles\[0\]: model: must be a string, got 1$"),
        ("profiles", [{**_minimal_doc()["profiles"][0], "accelerator": ["gpu"]}],
         r"^profiles\[0\]: accelerator: must be a string, got \['gpu'\]$"),
    ],
)
def test_catalog_wrong_json_type_names_field(key, value, message):
    doc = _minimal_doc()
    doc[key] = value
    with pytest.raises(CatalogError, match=message):
        catalog_from_dict(doc)


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(CatalogError, match="cannot read"):
        load_catalog(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    for text in ("{not json", "[" * 100_000 + "]" * 100_000):  # too deep to parse
        bad.write_text(text)
        with pytest.raises(CatalogError, match="not valid JSON"):
            load_catalog(bad)


def test_profile_keyed_under_another_pair_rejected():
    cat = make_catalog([make_profile("a", "gpu", 0.1, 10.0), make_profile("b", "gpu", 0.2, 10.0)])
    swapped = {("a", "gpu"): cat.profile("b", "gpu"), ("b", "gpu"): cat.profile("a", "gpu")}
    with pytest.raises(CatalogError, match=r"^profile keyed under wrong pair: \('a', 'gpu'\)$"):
        replace(cat, profiles=swapped)


def test_catalog_round_trip(tmp_path, builtin):
    path = tmp_path / "cat.json"
    save_catalog(builtin, path)
    assert load_catalog(path) == builtin

    small = make_catalog([make_profile("a", "gpu", 0.1, 10.0)])
    save_catalog(small, path)
    assert load_catalog(path) == small


def test_builtin_catalog_shape(builtin):
    assert len(builtin.models) == 8
    assert len(builtin.profiles) == 18
    assert set(builtin.accelerators) == {"gpu", "dla", "oakd"}
    assert builtin.gpu_accelerators() == frozenset({"gpu"})


def test_catalog_to_dict_is_json_stable(builtin):
    one = json.dumps(catalog_to_dict(builtin), sort_keys=True)
    two = json.dumps(catalog_to_dict(builtin), sort_keys=True)
    assert one == two


# ---------------------------------------------------------------------------
# traces


def _write_trace(tmp_path, records) -> str:
    path = tmp_path / "trace.ndjson"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return str(path)


def _det(conf, iou_val, box=None):
    d = {"confidence": conf, "iou": iou_val}
    if box:
        d["box"] = box
    return d


@pytest.fixture
def two_model_catalog():
    return make_catalog(
        [make_profile("a", "gpu", 0.1, 10.0), make_profile("b", "gpu", 0.2, 10.0)]
    )


def test_load_trace_well_formed(tmp_path, two_model_catalog):
    box = {"x_min": 0, "y_min": 0, "x_max": 5, "y_max": 5}
    records = [
        {"frame": 0, "detections": {"a": _det(0.5, 0.4, box), "b": _det(0.6, 0.5, box)}},
        {"frame": 1, "detections": {"a": _det(0.5, 0.0)}},
        {"frame": 2, "ground_truth": box, "detections": {"b": _det(0.9, 0.8, box)}},
    ]
    path = _write_trace(tmp_path, records)
    trace = load_trace(path, two_model_catalog)
    assert len(trace) == 3
    assert trace.models() == ("a", "b")
    assert trace.frames[2].ground_truth is not None
    # The writer leaves out what the record left out: frame 1's detection
    # box and ground truth are absent, not null.  A frame's source line is
    # neither written nor part of its value.
    assert [frame_to_dict(fr) for fr in trace.frames] == records
    assert [fr.label for fr in trace.frames] == [f"{path}:{n}" for n in (1, 2, 3)]
    assert trace.frames[1] == FrameRecord(1, {"a": DetectionOutcome(0.5, 0.0)})
    assert "source" not in frame_to_dict(trace.frames[1])


def test_load_trace_unknown_model(tmp_path, two_model_catalog):
    path = _write_trace(
        tmp_path, [{"frame": 0, "detections": {"yolov9": _det(0.5, 0.0)}}]
    )
    with pytest.raises(TraceError, match="yolov9"):
        load_trace(path, two_model_catalog)


def test_load_trace_confidence_out_of_range(tmp_path, two_model_catalog):
    path = _write_trace(tmp_path, [{"frame": 7, "detections": {"a": _det(1.3, 0.0)}}])
    with pytest.raises(TraceError, match="frame 7"):
        load_trace(path, two_model_catalog)


def test_load_trace_non_monotone_frames(tmp_path, two_model_catalog):
    path = _write_trace(
        tmp_path,
        [
            {"frame": 1, "detections": {"a": _det(0.5, 0.0)}},
            {"frame": 1, "detections": {"a": _det(0.5, 0.0)}},
        ],
    )
    with pytest.raises(
        TraceError, match=rf"^{re.escape(path)}:2: 'frame': 1 not strictly increasing$"
    ):
        load_trace(path, two_model_catalog)


def test_load_trace_reports_a_decode_error_before_a_trace_rule(tmp_path, two_model_catalog):
    # The trace rules are checked only after every line has decoded, so line
    # 3's bad JSON is reported although line 2 repeats frame 0, and so is a
    # bad box on the very line that repeats it.
    path = tmp_path / "trace.ndjson"
    path.write_text('{"frame": 0}\n{"frame": 0}\nnot json\n')
    with pytest.raises(TraceError, match="trace.ndjson:3: invalid JSON"):
        load_trace(path, two_model_catalog)
    path.write_text('{"frame": 0}\n{"frame": 0, "ground_truth": {"x_min": 0}}\n')
    with pytest.raises(
        TraceError, match=r"^.*trace.ndjson:2: 'ground_truth': missing key 'y_min'$"
    ):
        load_trace(path, two_model_catalog)


def test_frame_and_trace_indices_checked_on_construction():
    with pytest.raises(ValueError, match=r"^frame index -1 must be >= 0$"):
        FrameRecord(frame_index=-1, per_model={})
    frame = FrameRecord(frame_index=4, per_model={})
    with pytest.raises(TraceError, match=r"^frame 4: 'frame': 4 not strictly increasing$"):
        CharacterizationTrace(frames=(frame, frame))
    earlier = FrameRecord(frame_index=2, per_model={})
    with pytest.raises(TraceError, match=r"^frame 2: 'frame': 2 not strictly increasing$"):
        CharacterizationTrace(frames=(FrameRecord(0, {}), frame, earlier))


def test_load_trace_iou_without_box(tmp_path, two_model_catalog):
    path = _write_trace(tmp_path, [{"frame": 0, "detections": {"a": _det(0.5, 0.4)}}])
    with pytest.raises(TraceError, match="iou must be 0"):
        load_trace(path, two_model_catalog)


def test_load_trace_bad_json(tmp_path, two_model_catalog):
    path = tmp_path / "t.ndjson"
    deep = b'{"frame": 1, "x": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    # The second is not UTF-8, the third too deep to parse.
    for line in (b"not json", b'{"frame": 1, "x": "\xff"}', deep):
        path.write_bytes(b'{"frame": 0}\n' + line + b"\n")
        with pytest.raises(TraceError, match="t.ndjson:2: invalid JSON"):
            load_trace(path, two_model_catalog)


@pytest.mark.parametrize(
    "record, field",
    [
        ([1, 2], "JSON object"),
        ({"frame": 1, "detections": []}, "'detections'"),
        ({"frame": 1, "detections": {"a": 0.5}}, "'detections.a'"),
        ({"frame": "abc", "detections": {}}, "'frame'"),
        ({"frame": 1.5, "detections": {}}, "'frame'"),
        ({"frame": 1, "detections": {"a": {"confidence": [1], "iou": 0.0}}}, "'detections.a'"),
        ({"frame": 1, "ground_truth": [1, 2], "detections": {}}, "'ground_truth'"),
        ({"frame": 1, "frame_image": {"width": float("inf"), "height": 8, "pixels_b64": ""},
          "detections": {}}, "bad frame image"),
        ({"frame": 1, "detections": {"a": {"confidence": 0.5}}},
         "'detections.a': missing key 'iou'"),
        ({"frame": 1, "detections": {"a": _det(0.5, 0.4, {"x_min": -1, "y_min": 0,
                                                          "x_max": 3, "y_max": 3})}},
         "'detections.a.box': box coordinates must be non-negative"),
        ({"frame": 1, "frame_image": "missing.pgm", "detections": {}},
         "bad frame image: .*missing.pgm"),
    ],
)
def test_load_trace_wrong_json_type_names_line_and_field(
    tmp_path, two_model_catalog, record, field
):
    path = _write_trace(tmp_path, [{"frame": 0, "detections": {}}, record])
    with pytest.raises(TraceError, match=f"trace.ndjson:2: .*{field}"):
        load_trace(path, two_model_catalog)


@pytest.mark.parametrize(
    "image, message",
    [
        (b"P5\n", "truncated PGM header"),
        (b"P5\n6x 4\n255\n" + bytes(24), "bad PGM header"),
        (b"P5\n2 2\n65535\n" + bytes(8), "PGM maxval 65535 unsupported"),
        (b"P5\n0 4\n255\n", "image dimensions must be positive"),
        ({"width": 0, "height": 8, "pixels_b64": ""}, "image dimensions must be positive"),
    ],
    ids=["truncated-header", "bad-integer", "maxval", "zero-width-pgm", "zero-width-inline"],
)
def test_load_trace_bad_frame_image_names_line(tmp_path, two_model_catalog, image, message):
    if isinstance(image, bytes):
        (tmp_path / "f.pgm").write_bytes(image)
        image = "f.pgm"
    path = _write_trace(tmp_path, [{"frame": 0, "frame_image": image, "detections": {}}])
    with pytest.raises(TraceError, match=f"trace.ndjson:1: bad frame image: .*{message}"):
        load_trace(path, two_model_catalog)


def _framed(index, width=8, height=8, **fields):
    img = GrayscaleImage(np.zeros((height, width)))
    return {"frame": index, "frame_image": encode_inline(img), "detections": {}, **fields}


@pytest.mark.parametrize(
    "record, message",
    [
        (_framed(1, ground_truth={"x_min": 2, "y_min": 2, "x_max": 9, "y_max": 4}),
         r"'ground_truth' \(2.0, 2.0, 9.0, 4.0\) outside 8x8 frame"),
        (_framed(1, detections={"a": _det(0.5, 0.1, {"x_min": 0, "y_min": 0,
                                                     "x_max": 3, "y_max": 8.5})}),
         r"'detections.a.box' .* outside 8x8 frame"),
        (_framed(1, width=4), "frame is 4x8, but the first frame is 8x8"),
    ],
)
def test_load_trace_checks_frame_geometry(tmp_path, two_model_catalog, record, message):
    # A record without a frame has no geometry to check.
    frameless = {"frame": 2, "ground_truth": {"x_min": 0, "y_min": 0, "x_max": 90, "y_max": 90}}
    path = _write_trace(tmp_path, [_framed(0), frameless])
    assert len(load_trace(path, two_model_catalog)) == 2
    path = _write_trace(tmp_path, [_framed(0), record])
    with pytest.raises(TraceError, match=f"trace.ndjson:2: {message}"):
        load_trace(path, two_model_catalog)
    # A blank line counts: the error names the file's line, not the record's.
    (tmp_path / "trace.ndjson").write_text(f"{json.dumps(_framed(0))}\n\n{json.dumps(record)}\n")
    with pytest.raises(TraceError, match=f"trace.ndjson:3: {message}"):
        load_trace(path, two_model_catalog)


def test_load_trace_holds_one_line_of_text(tmp_path, two_model_catalog):
    # 60 inline 320x240 frames: the decoded bytes are 1 byte per pixel, so a
    # peak under 2 leaves no room for the file's text or a float64 frame.
    rng = np.random.default_rng(4)
    frames = (rng.integers(0, 256, size=(240, 320), dtype=np.uint8) for _ in range(60))
    records = [
        {"frame": i, "frame_image": encode_inline(GrayscaleImage(px)), "detections": {}}
        for i, px in enumerate(frames)
    ]
    path = _write_trace(tmp_path, records)
    tracemalloc.start()
    try:
        trace = load_trace(path, two_model_catalog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 60
    assert peak / (60 * 320 * 240) < 2.0


def test_load_trace_crlf_equals_lf(tmp_path, two_model_catalog):
    box = {"x_min": 0, "y_min": 0, "x_max": 5, "y_max": 5}
    records = [_framed(0, ground_truth=box), {"frame": 1, "detections": {"a": _det(0.5, 0.0)}},
               _framed(2, detections={"b": _det(0.6, 0.5, box)})]
    lf, crlf = tmp_path / "lf.ndjson", tmp_path / "crlf.ndjson"
    lf.write_bytes(b"".join(json.dumps(r).encode() + b"\n" for r in records))
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    a, b = load_trace(lf, two_model_catalog), load_trace(crlf, two_model_catalog)
    assert [(f.frame_index, f.per_model, f.ground_truth) for f in a.frames] == [
        (f.frame_index, f.per_model, f.ground_truth) for f in b.frames
    ]
    assert [f.frame is None or f.frame.to_bytes() for f in a.frames] == [
        f.frame is None or f.frame.to_bytes() for f in b.frames
    ]


def test_load_trace_skips_blank_lines(tmp_path, two_model_catalog):
    lines = [json.dumps({"frame": i, "detections": {"a": _det(0.5, 0.0)}}) for i in range(3)]
    plain, spaced = tmp_path / "plain.ndjson", tmp_path / "spaced.ndjson"
    plain.write_text("\n".join(lines) + "\n")
    spaced.write_text("\n" + "\n  \t\n".join(lines) + "\n\n")
    a, b = load_trace(plain, two_model_catalog), load_trace(spaced, two_model_catalog)
    assert len(a) == 3
    assert [(f.frame_index, f.per_model) for f in a.frames] == [
        (f.frame_index, f.per_model) for f in b.frames
    ]


def test_trace_pgm_frame_reference(tmp_path, two_model_catalog):
    img = GrayscaleImage(np.arange(12, dtype=float).reshape(3, 4) * 20)
    write_pgm(img, tmp_path / "f0.pgm")
    path = _write_trace(
        tmp_path,
        [{"frame": 0, "frame_image": "f0.pgm", "detections": {"a": _det(0.5, 0.0)}}],
    )
    trace = load_trace(path, two_model_catalog)
    frame = trace.frames[0].frame
    assert frame is not None and (frame.width, frame.height) == (4, 3)
    assert float(frame.pixels[2, 3]) == 220.0


def test_trace_save_load_round_trip(tmp_path, builtin, demo_trace):
    path = tmp_path / "demo.ndjson"
    save_trace(demo_trace, path)
    loaded = load_trace(path, builtin)
    assert len(loaded) == len(demo_trace)
    f0, g0 = demo_trace.frames[0], loaded.frames[0]
    assert f0.per_model == g0.per_model
    assert f0.ground_truth == g0.ground_truth
    assert (f0.frame.pixels == g0.frame.pixels).all()


def test_gen_trace_loadable_against_tiny_catalog(tmp_path):
    # scenario models must exist in the catalog used for loading
    scenario = demo_scenario()
    trace = gen_trace(scenario, 3)
    path = tmp_path / "t.ndjson"
    save_trace(trace, path)
    assert len(load_trace(path, builtin_catalog())) == len(trace)
