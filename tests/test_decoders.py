"""Every decoder either succeeds or raises a ValidationError.

Each field of a valid catalog, scenario, prediction map and trace record is
replaced in turn by a value of every JSON type; the decoders must never let
another exception escape.  Where a decode fails, the message names the entry.
"""

from __future__ import annotations

import copy
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIOS, make_catalog, make_profile
from odsched.catalog import (
    BoundingBox,
    builtin_catalog,
    catalog_from_dict,
    catalog_to_dict,
    load_catalog,
    load_trace,
    save_catalog,
    save_trace,
)
from odsched.confidence_graph import (
    build_prediction_map,
    load_prediction_map,
    prediction_map_from_dict,
    prediction_map_to_dict,
    save_prediction_map,
)
from odsched.errors import ValidationError, _json_number, json_float
from odsched.images import GrayscaleImage, encode_inline
from odsched.sim import gen_trace, scenario_from_dict

WRONG = (None, True, 1, 1.5, "x", [], {})

CATALOG = make_catalog(
    [make_profile("a", "gpu", 0.1, 10.0), make_profile("b", "gpu", 0.2, 10.0)]
)

SCENARIO = {
    "width": 16,
    "height": 16,
    "emit_frames": False,
    "segments": [
        {
            "frames": 6,
            "texture_seed": 3,
            "models": {
                "a": {"conf_mean": 0.8, "conf_sigma": 0.1, "iou_mean": 0.6, "iou_sigma": 0.1},
                "b": {"conf_mean": 0.4, "conf_sigma": 0.1, "iou_mean": 0.3, "iou_sigma": 0.1},
            },
        }
    ],
}

_BOX = {"x_min": 1.0, "y_min": 1.0, "x_max": 5.0, "y_max": 5.0}
RECORD = {
    "frame": 0,
    "ground_truth": _BOX,
    "frame_image": encode_inline(GrayscaleImage(np.arange(64.0).reshape(8, 8))),
    "detections": {"a": {"confidence": 0.5, "iou": 0.4, "box": _BOX}},
}


def _valid(kind: str):
    if kind == "catalog":
        return catalog_to_dict(CATALOG)
    if kind == "scenario":
        return SCENARIO
    if kind == "prediction map":
        trace = gen_trace(scenario_from_dict(SCENARIO), 0)
        return prediction_map_to_dict(build_prediction_map(trace))
    return RECORD


def _decode(kind: str, doc, tmp_path) -> None:
    if kind == "catalog":
        catalog_from_dict(doc)
    elif kind == "scenario":
        scenario_from_dict(doc)
    elif kind == "prediction map":
        prediction_map_from_dict(doc)
    else:
        path = tmp_path / "trace.ndjson"
        path.write_text(json.dumps(doc) + "\n")
        load_trace(path, CATALOG)


def _paths(node, prefix=()):
    """Every field of `node`, descending into each object and into the first
    entry of each list."""
    if isinstance(node, dict):
        keys = list(node)
    else:
        keys = [0] if isinstance(node, list) and node else []
    for key in keys:
        yield prefix + (key,)
        yield from _paths(node[key], prefix + (key,))


_DELETE = object()


def _replaced(doc, path, value):
    """`doc` with the field at `path` set to `value`, or removed by _DELETE."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


_MAP = _valid("prediction map")


def _key_re(node) -> str:
    """A pattern for the node key that `node`, a map node or a `[model,
    bucket]` pair, stands for."""
    model, bucket = (node["model"], node["bucket"]) if isinstance(node, dict) else node
    return rf"\('{model}', {bucket}\)"


KINDS = ("catalog", "scenario", "prediction map", "trace record")
CASES = [
    pytest.param(kind, path, id=f"{kind}:{'.'.join(map(str, path)) or '<document>'}")
    for kind in KINDS
    for path in [(), *_paths(_valid(kind))]
]


def test_valid_documents_decode(tmp_path):
    for kind in KINDS:
        _decode(kind, _valid(kind), tmp_path)


@pytest.mark.parametrize("kind, path", CASES)
def test_wrong_json_type_raises_validation_error_or_decodes(kind, path, tmp_path):
    valid = _valid(kind)
    for value in WRONG:
        try:
            _decode(kind, _replaced(valid, path, value), tmp_path)
        except ValidationError:
            pass
        except Exception as exc:
            pytest.fail(f"{kind} {path} = {value!r}: {type(exc).__name__}: {exc}")


@pytest.mark.parametrize(
    "kind, path, value, message",
    [
        ("catalog", ("profiles", 0, "avg_power_w"), _DELETE,
         r"^profiles\[0\]: missing key 'avg_power_w'$"),
        ("catalog", ("profiles", 1), dict(catalog_to_dict(CATALOG)["profiles"][0]),
         r"^profiles\[1\]: duplicate profile for pair \(a, gpu\)$"),
        ("scenario", ("segments", 0, "models", "a", "conf_mean"), _DELETE,
         r"^segments\[0\]\.models\['a'\]: missing key 'conf_mean'$"),
        ("scenario", ("segments", 0, "models", "b", "iou_sigma"), float("nan"),
         r"^segments\[0\]\.models\['b'\]: iou_sigma must be finite and >= 0$"),
        ("scenario", ("segments", 0, "frames"), 0, r"^segments\[0\]: frames must be >= 1"),
        ("scenario", ("segments", 0, "models"), {}, r"^segments\[0\]: models must be"),
        ("scenario", ("width",), 4, r"^scenario: width/height must be >= 8$"),
        ("prediction map", ("entries", 0, "node"), _DELETE,
         r"^entries\[0\]: missing key 'node'$"),
        ("prediction map", ("arcs", 0, "from"), ["a"], r"^arcs\[0\]: "),
        ("prediction map", ("nodes", 0, "samples"), "x", r"^nodes\[0\]: "),
        # Numbers must be JSON numbers: no string, boolean or truncated fraction.
        ("catalog", ("energy_tolerance",), True,
         r"^catalog: energy_tolerance: must be a number, got True$"),
        ("catalog", ("profiles", 0, "avg_latency_s"), "0.1",
         r"^profiles\[0\]: avg_latency_s: must be a number, got '0.1'$"),
        ("scenario", ("segments", 0, "frames"), 2.7,
         r"^segments\[0\]: frames: must be an integer, got 2.7$"),
        ("scenario", ("width",), 64.9, r"^scenario: width: must be an integer, got 64.9$"),
        ("scenario", ("segments", 0, "texture_seed"), "3",
         r"^segments\[0\]: texture_seed: must be a number, got '3'$"),
        ("scenario", ("segments", 0, "models", "a", "conf_mean"), "0.5",
         r"^segments\[0\]\.models\['a'\]: conf_mean: must be a number, got '0.5'$"),
        ("prediction map", ("bucket_width",), "0.1",
         r"^prediction map: bucket_width: must be a number, got '0.1'$"),
        ("prediction map", ("distance_threshold",), True,
         r"^prediction map: distance_threshold: must be a number, got True$"),
        ("prediction map", ("nodes", 0, "samples"), 1.9,
         r"^nodes\[0\]: samples: must be an integer, got 1.9$"),
        ("prediction map", ("nodes", 0, "bucket"), 1.5,
         r"^nodes\[0\]: bucket: must be an integer, got 1.5$"),
        ("prediction map", ("arcs", 0, "from", 1), 1.5,
         r"^arcs\[0\]: bucket: must be an integer, got 1.5$"),
        ("prediction map", ("arcs", 0, "cost"), "0.1",
         r"^arcs\[0\]: cost: must be a number, got '0.1'$"),
        ("prediction map", ("entries", 0, "node", 1), True,
         r"^entries\[0\]: bucket: must be a number, got True$"),
        ("prediction map", ("entries", 0, "predictions", 0, "distance"), "0",
         r"^entries\[0\]: distance: must be a number, got '0'$"),
        # Map numbers must lie in the ranges every build writes.
        ("prediction map", ("nodes", 0, "expected_accuracy"), 7.0,
         r"^nodes\[0\]: expected_accuracy: 7.0 outside \[0, 1\]$"),
        ("prediction map", ("nodes", 0, "expected_accuracy"), float("nan"),
         r"^nodes\[0\]: expected_accuracy: nan outside \[0, 1\]$"),
        ("prediction map", ("entries", 0, "predictions", 0, "accuracy"), 7.0,
         r"^entries\[0\]: accuracy: 7.0 outside \[0, 1\]$"),
        ("prediction map", ("entries", 0, "predictions", 0, "accuracy"), float("nan"),
         r"^entries\[0\]: accuracy: nan outside \[0, 1\]$"),
        ("prediction map", ("entries", 0, "predictions", 0, "accuracy"), -0.1,
         r"^entries\[0\]: accuracy: -0.1 outside \[0, 1\]$"),
        ("prediction map", ("entries", 0, "predictions", 0, "distance"), -1.0,
         r"^entries\[0\]: distance: -1.0 outside \[0, 0.5\]$"),
        ("prediction map", ("entries", 0, "predictions", 0, "distance"), 0.6,
         r"^entries\[0\]: distance: 0.6 outside \[0, 0.5\]$"),
        ("prediction map", ("arcs", 0, "cost"), 5.0, r"^arcs\[0\]: cost: 5.0 outside \[0, 1\]$"),
        ("prediction map", ("arcs", 0, "cost"), -0.5, r"^arcs\[0\]: cost: -0.5 outside \[0, 1\]$"),
        # Each node, arc and entry appears once, and arcs and entries name
        # nodes of the map.
        ("prediction map", ("nodes", 1), _MAP["nodes"][0],
         rf"^nodes\[1\]: duplicate node {_key_re(_MAP['nodes'][0])}$"),
        ("prediction map", ("arcs", 1), _MAP["arcs"][0],
         rf"^arcs\[1\]: duplicate arc \({_key_re(_MAP['arcs'][0]['from'])}, "
         rf"{_key_re(_MAP['arcs'][0]['to'])}\)$"),
        ("prediction map", ("entries", 1), _MAP["entries"][0],
         rf"^entries\[1\]: duplicate entry {_key_re(_MAP['entries'][0]['node'])}$"),
        ("prediction map", ("arcs", 0, "from"), ["ghost", 1],
         r"^arcs\[0\]: unknown node \('ghost', 1\)$"),
        ("prediction map", ("arcs", 0, "to"), ["ghost", 1],
         r"^arcs\[0\]: unknown node \('ghost', 1\)$"),
        ("prediction map", ("entries", 0, "node"), ["ghost", 1],
         r"^entries\[0\]: unknown node \('ghost', 1\)$"),
        # A model name is a JSON string; a number is not converted.
        ("prediction map", ("nodes", 0, "model"), 5, r"^nodes\[0\]: model: must be a string, got 5$"),
        ("prediction map", ("arcs", 0, "from", 0), 5, r"^arcs\[0\]: model: must be a string, got 5$"),
        ("prediction map", ("entries", 0, "node", 0), ["a"],
         r"^entries\[0\]: model: must be a string, got \['a'\]$"),
        ("prediction map", ("entries", 0, "predictions", 0, "model"), 5,
         r"^entries\[0\]: model: must be a string, got 5$"),
        # An entry predicts its own node's model, and each model once.
        ("prediction map", ("entries", 0, "predictions"),
         [p for p in _MAP["entries"][0]["predictions"] if p["model"] != "a"],
         r"^entries\[0\]: no prediction for the node's own model a$"),
        ("prediction map", ("entries", 0, "predictions"), [],
         r"^entries\[0\]: no prediction for the node's own model a$"),
        ("prediction map", ("entries", 0, "predictions"),
         _MAP["entries"][0]["predictions"] * 2,
         r"^entries\[0\]: duplicate prediction for model a$"),
        # `predict` looks a predicted model up by its nodes.
        ("prediction map", ("entries", 0, "predictions"),
         [*_MAP["entries"][0]["predictions"], {"model": "ghost", "accuracy": 1.0, "distance": 0.0}],
         r"^entries\[0\]: prediction for model ghost, which has no node$"),
        ("trace record", ("frame",), -1, r"trace.ndjson:1: 'frame': -1 must be >= 0$"),
        ("trace record", ("detections", "a", "confidence"), "0.5",
         r"trace.ndjson:1: frame 0: 'detections.a': confidence: must be a number, got '0.5'$"),
        ("trace record", ("ground_truth", "x_max"), "5",
         r"trace.ndjson:1: 'ground_truth': x_max: must be a number, got '5'$"),
        ("trace record", ("frame_image", "height"), 7.5,
         r"trace.ndjson:1: bad frame image: height: must be an integer, got 7.5$"),
        # Names are unique and non-empty, capacities positive, and a map has
        # at least one node.
        ("catalog", ("accelerators",), catalog_to_dict(CATALOG)["accelerators"] * 2,
         r"^accelerators\[1\]: duplicate accelerator 'gpu'$"),
        ("catalog", ("accelerators", 0, "name"), "",
         r"^accelerators\[0\]: accelerator name must be non-empty$"),
        ("catalog", ("accelerators", 0, "memory_bytes"), 0,
         r"^accelerators\[0\]: accelerator 'gpu': memory_bytes must be > 0$"),
        ("catalog", ("models", 1), "a", r"^duplicate model id in catalog$"),
        ("catalog", ("models", 0), "", r"^model names must be non-empty$"),
        ("scenario", ("segments", 0, "models"), {"": SCENARIO["segments"][0]["models"]["a"]},
         r"^segments\[0\]: models has an empty model name$"),
        ("prediction map", (), {**_MAP, "nodes": [], "arcs": [], "entries": []},
         r"^prediction map has no nodes$"),
    ],
)
def test_decode_error_names_the_entry(kind, path, value, message, tmp_path):
    with pytest.raises(ValidationError, match=message):
        _decode(kind, _replaced(_valid(kind), path, value), tmp_path)


def _saved_twice(save, load, value, path) -> tuple[bytes, bytes]:
    """The file `save` writes for `value`, then for what `load` reads back."""
    save(value, path)
    first = path.read_bytes()
    save(load(path), path)
    return first, path.read_bytes()


def test_builtin_catalog_save_load_save_is_byte_identical(tmp_path):
    first, second = _saved_twice(
        save_catalog, load_catalog, builtin_catalog(), tmp_path / "catalog.json"
    )
    assert first == second


@settings(max_examples=25, derandomize=True, deadline=None)
@given(SCENARIOS, st.integers(0, 2**16))
def test_trace_and_map_save_load_save_are_byte_identical(tmp_path_factory, scenario, seed):
    tmp = tmp_path_factory.mktemp("round_trip")
    trace = gen_trace(scenario, seed)
    catalog = builtin_catalog()
    first, second = _saved_twice(
        save_trace, lambda path: load_trace(path, catalog), trace, tmp / "trace.ndjson"
    )
    assert first == second
    first, second = _saved_twice(
        save_prediction_map, load_prediction_map, build_prediction_map(trace), tmp / "map.json"
    )
    assert first == second


def _outcome(call) -> tuple:
    """What `call()` returns, or the type and message of what it raises."""
    try:
        return ("value", repr(call()))
    except Exception as exc:
        return (type(exc), str(exc))


def _three_box_checks(coords: tuple) -> None:
    """The checks `BoundingBox` runs when its chained range test fails."""
    if not all(math.isfinite(c) for c in coords):
        raise ValueError(f"box coordinates must be finite, got {coords}")
    if min(coords) < 0:
        raise ValueError(f"box coordinates must be non-negative, got {coords}")
    if coords[0] > coords[2] or coords[1] > coords[3]:
        raise ValueError(f"box corners out of order: {coords}")


# NaN, both infinities, -0.0, subnormals, the largest float, ints too large
# for a float, and booleans.
NUMBERS = (
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([0.0, -0.0, 5e-324, sys.float_info.max, 2**1024 - 2**970 - 1])
    | st.integers()
    | st.integers(2**1023, 2**1025)
    | st.booleans()
)
_COORD = st.floats(0.0, 1e6, allow_subnormal=True) | st.integers(0, 10**6)
# Mostly valid boxes: corners drawn in order.
ORDERED_BOXES = st.tuples(_COORD, _COORD, _COORD, _COORD).map(
    lambda c: (min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3]))
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.tuples(NUMBERS, NUMBERS, NUMBERS, NUMBERS) | ORDERED_BOXES)
def test_box_fast_check_accepts_and_rejects_as_the_full_checks(coords):
    expected = _outcome(lambda: _three_box_checks(coords))
    got = _outcome(lambda: BoundingBox(*coords))
    assert got[0] == expected[0] and (got[0] == "value" or got == expected)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(NUMBERS | st.none() | st.text(max_size=3) | st.lists(st.integers(), max_size=1))
def test_json_float_fast_path_equals_the_full_check(value):
    doc = {"v": value}
    expected = _outcome(lambda: float(_json_number(doc, "v")))
    if expected[0] is OverflowError:  # an int too large for a float
        expected = (ValueError, "v: int too large to convert to float")
    got = _outcome(lambda: json_float(doc, "v"))
    assert got == expected
