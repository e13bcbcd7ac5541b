from __future__ import annotations

import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIOS, make_trace
from odsched.confidence_graph import (
    Bucket,
    CoGraph,
    CostGraph,
    GraphNode,
    bucket_count,
    bucket_for,
    bucket_index,
    build_cograph,
    build_prediction_map,
    consolidate,
    load_prediction_map,
    neighborhood,
    normalize_invert,
    predict,
    prediction_map_from_dict,
    prediction_map_to_dict,
    prune_sparse_nodes,
    save_prediction_map,
    EPSILON,
    _neighborhoods,
)
from odsched.errors import ValidationError
from odsched.sim import gen_trace

# ---------------------------------------------------------------------------
# buckets


def test_bucket_for_decimal_range_example():
    b = bucket_for("yolov7", 0.53, 0.1)
    assert (b.index, b.lo, b.hi) == (5, 0.5, 0.6)


def test_bucket_for_top_boundary_closed():
    b = bucket_for("m", 1.0, 0.1)
    assert (b.index, b.lo, b.hi) == (9, 0.9, 1.0)


def test_bucket_for_half_open_boundary():
    b = bucket_for("m", 0.5, 0.1)
    assert (b.lo, b.hi) == (0.5, 0.6)
    # decimal boundaries that are inexact in binary still go up
    assert bucket_for("m", 0.7, 0.1).index == 7
    assert bucket_for("m", 0.3, 0.1).index == 3


def test_bucket_partition_is_exhaustive_and_disjoint():
    for width in (0.1, 0.15, 0.25, 0.3, 1.0):
        for conf in np.linspace(0.0, 1.0, 101):
            b = bucket_for("m", float(conf), width)
            assert b.lo <= conf + 1e-9
            if b.hi < 1.0:
                assert conf < b.hi + 1e-9
    assert bucket_for("m", 0.97, 0.15).lo == 0.9


def test_bucket_width_validation():
    with pytest.raises(ValueError):
        bucket_for("m", 0.5, 0.0)
    with pytest.raises(ValueError):
        bucket_for("m", 1.5, 0.1)


def test_bucket_width_too_narrow_for_its_bucket_count():
    assert bucket_count(1e-300) > 0  # 1 / width is large but finite
    with pytest.raises(ValueError, match="^bucket width 5e-324 too narrow: 1 / width overflows$"):
        bucket_count(5e-324)


# ---------------------------------------------------------------------------
# co-occurrence graph


def test_cograph_pairing_example():
    trace = make_trace([{"yolov7": (0.53, 0.6), "mobilenet": (0.42, 0.4)}])
    g = build_cograph(trace, 0.1)
    key = (("mobilenet", 4), ("yolov7", 5))
    assert g.edges == {key: 1}


def test_cograph_weight_counts_repeats():
    row = {"a": (0.53, 0.6), "b": (0.42, 0.4)}
    g = build_cograph(make_trace([row, row, row]), 0.1)
    assert g.edges[(("a", 5), ("b", 4))] == 3


def test_cograph_single_model_has_no_edges():
    g = build_cograph(make_trace([{"a": (0.5, 0.5)}, {"a": (0.9, 0.7)}]), 0.1)
    assert len(g.nodes) == 2 and g.edges == {}


def test_cograph_node_accuracy_is_mean_iou():
    g = build_cograph(
        make_trace([{"a": (0.55, 0.4)}, {"a": (0.52, 0.8)}, {"a": (0.95, 1.0)}]), 0.1
    )
    assert g.nodes[("a", 5)].expected_accuracy == pytest.approx(0.6)
    assert g.nodes[("a", 5)].sample_count == 2
    assert g.nodes[("a", 9)].expected_accuracy == 1.0


def test_cograph_three_models_all_pairs():
    g = build_cograph(
        make_trace([{"a": (0.1, 0.1), "b": (0.2, 0.2), "c": (0.3, 0.3)}]), 0.1
    )
    assert len(g.edges) == 3


def test_cograph_weights_order_invariant():
    rows = [
        {"a": (0.53, 0.6), "b": (0.42, 0.4)},
        {"a": (0.11, 0.2), "b": (0.42, 0.5)},
        {"a": (0.53, 0.7), "b": (0.82, 0.6)},
    ]
    g1 = build_cograph(make_trace(rows), 0.1)
    g2 = build_cograph(make_trace(rows[::-1]), 0.1)
    assert g1.edges == g2.edges


def test_empty_trace_rejected():
    with pytest.raises(ValueError, match="empty trace"):
        build_cograph(make_trace([]), 0.1)


def test_prune_sparse_nodes():
    rows = [{"a": (0.55, 0.5), "b": (0.45, 0.5)}, {"a": (0.56, 0.5), "b": (0.95, 0.5)}]
    g = build_cograph(make_trace(rows), 0.1)
    pruned = prune_sparse_nodes(g, 2)
    assert set(pruned.nodes) == {("a", 5)}
    assert pruned.edges == {}


def _per_frame_cograph(trace, width: float) -> tuple[dict, list]:
    """Reference for `build_cograph`: every frame counts its own pairs.

    Returns {key: (sample_count, expected_accuracy)} and the edges as a list,
    in insertion order."""
    iou_sum: dict = {}
    samples: dict = {}
    edges: dict = {}
    for fr in trace.frames:
        active = []
        for model in sorted(fr.per_model):
            out = fr.per_model[model]
            key = (model, bucket_index(out.confidence, width))
            iou_sum[key] = iou_sum.get(key, 0.0) + out.iou
            samples[key] = samples.get(key, 0) + 1
            active.append(key)
        for i, a in enumerate(active):
            for b in active[i + 1 :]:
                edges[(a, b)] = edges.get((a, b), 0) + 1
    nodes = {k: (samples[k], iou_sum[k] / samples[k]) for k in sorted(samples)}
    return nodes, list(edges.items())


def _assert_matches_per_frame(trace, width: float) -> None:
    g = build_cograph(trace, width)
    nodes, edges = _per_frame_cograph(trace, width)
    assert list(g.nodes) == list(nodes)
    for key, (count, accuracy) in nodes.items():
        assert g.nodes[key].sample_count == count
        # Bit-equal: the IoU sums accumulate in the same order.
        assert g.nodes[key].expected_accuracy.hex() == accuracy.hex()
    assert list(g.edges.items()) == edges


_AB = {"a": (0.55, 0.5), "b": (0.45, 0.3)}
_ABC = {"a": (0.55, 0.1), "b": (0.45, 0.7), "c": (0.95, 0.9)}
_HAND_TRACES = {
    "model subsets": [_ABC, {"a": (0.15, 0.2), "c": (0.35, 0.3)}, {"b": (0.75, 0.4)}, _AB],
    "single model": [{"a": (0.55, 0.1)}, {"a": (0.55, 0.3)}, {"a": (0.05, 0.7)}],
    "repeated set": [_AB] * 5,
    "interleaved sets": [_AB, _ABC, _AB, {"c": (0.1, 0.2)}, _ABC, _AB, {"c": (0.1, 0.6)}],
    # The same set of active nodes from different confidences and IoUs.
    "one set, new values": [_AB, {"a": (0.51, 0.9), "b": (0.49, 0.1)}, _AB],
    # A pair first seen in a later set than the set that repeats.
    "late pair": [_AB, _AB, {"b": (0.45, 0.3), "c": (0.95, 0.9)}, _ABC, _AB],
    # A set seen once, then a repeated set that adds to its pair.
    "weighted after single": [{"b": (0.45, 0.3), "c": (0.95, 0.9)}, _ABC, _AB, _ABC],
}


@pytest.mark.parametrize("rows", _HAND_TRACES.values(), ids=list(_HAND_TRACES))
@pytest.mark.parametrize("width", [0.1, 0.25, 1.0])
def test_cograph_equals_per_frame_count_on_hand_traces(rows, width):
    _assert_matches_per_frame(make_trace(rows), width)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(SCENARIOS, st.integers(0, 2**16), st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.5, 1.0]))
def test_cograph_equals_per_frame_count(scenario, seed, width):
    _assert_matches_per_frame(gen_trace(replace(scenario, emit_frames=False), seed), width)


# ---------------------------------------------------------------------------
# cost normalization


def _node(model: str, idx: int, acc: float = 0.5) -> GraphNode:
    lo = round(idx * 0.1, 9)
    return GraphNode(
        bucket=Bucket(model=model, index=idx, lo=lo, hi=round(lo + 0.1, 9)),
        expected_accuracy=acc,
        sample_count=1,
    )


def test_normalize_invert_star_weights():
    # center node with incident weights 4, 2, 1
    center, n1, n2, n3 = ("c", 0), ("a", 0), ("a", 1), ("b", 0)
    nodes = {k: _node(*k) for k in (center, n1, n2, n3)}
    g = CoGraph(
        bucket_width=0.1,
        nodes=nodes,
        edges={
            tuple(sorted((center, n1))): 4,
            tuple(sorted((center, n2))): 2,
            tuple(sorted((center, n3))): 1,
        },
    )
    cg = normalize_invert(g)
    assert cg.arcs[(center, n1)] == 0.0
    assert cg.arcs[(center, n2)] == 0.5
    assert cg.arcs[(center, n3)] == 0.75
    # each leaf's only incident edge is its own max, so leaving it costs 0
    assert cg.arcs[(n1, center)] == 0.0
    assert cg.arcs[(n3, center)] == 0.0


def test_normalize_invert_isolated_node():
    g = CoGraph(bucket_width=0.1, nodes={("a", 0): _node("a", 0)}, edges={})
    cg = normalize_invert(g)
    assert cg.arcs == {}


def test_normalize_invert_rejects_zero_weight_edge():
    a, b = ("a", 0), ("b", 0)
    g = CoGraph(bucket_width=0.1, nodes={k: _node(*k) for k in (a, b)}, edges={(a, b): 0})
    with pytest.raises(ValueError, match="non-positive weight 0"):
        normalize_invert(g)


def test_cograph_never_links_same_model_buckets():
    from conftest import random_cost_graph

    rng = np.random.default_rng(30)
    for _ in range(20):
        cg = random_cost_graph(rng)
        for (a, b) in cg.arcs:
            assert a != b  # no self-arcs
            assert a[0] != b[0]  # never between two buckets of one model


def _chain_graph(costs: dict[tuple, float], node_keys: list[tuple]) -> CostGraph:
    return CostGraph(
        bucket_width=0.1,
        nodes={k: _node(*k) for k in node_keys},
        arcs=costs,
    )


# ---------------------------------------------------------------------------
# neighborhood


def test_neighborhood_chain_threshold():
    a, b, c = ("a", 0), ("b", 0), ("c", 0)
    cg = _chain_graph(
        {(a, b): 0.3, (b, a): 0.3, (b, c): 0.3, (c, b): 0.3}, [a, b, c]
    )
    assert neighborhood(cg, a, 0.5) == {a: 0.0, b: 0.3}
    assert neighborhood(cg, a, 0.6) == {a: 0.0, b: 0.3, c: 0.6}


def test_neighborhood_threshold_zero_closure():
    a, b, c = ("a", 0), ("b", 0), ("c", 0)
    cg = _chain_graph({(a, b): 0.0, (b, a): 0.4, (b, c): 0.7, (c, b): 0.0}, [a, b, c])
    assert neighborhood(cg, a, 0.0) == {a: 0.0, b: 0.0}


def test_neighborhood_requires_known_start():
    cg = _chain_graph({}, [("a", 0)])
    with pytest.raises(KeyError):
        neighborhood(cg, ("zz", 0), 0.5)


def test_neighborhood_matches_brute_force_random():
    from conftest import brute_force_neighborhood, random_cost_graph

    rng = np.random.default_rng(7)
    for _ in range(40):
        cg = random_cost_graph(rng)
        assert len(cg.nodes) <= 8
        threshold = float(rng.choice([0.0, 0.2, 0.5, 0.9]))
        for start in cg.nodes:
            assert neighborhood(cg, start, threshold) == brute_force_neighborhood(
                cg, start, threshold
            )


def test_neighborhood_monotone_in_threshold():
    from conftest import random_cost_graph

    rng = np.random.default_rng(8)
    for _ in range(20):
        cg = random_cost_graph(rng)
        for start in cg.nodes:
            small = neighborhood(cg, start, 0.2)
            large = neighborhood(cg, start, 0.6)
            assert set(small) <= set(large)


# ---------------------------------------------------------------------------
# every neighborhood in one call


def _per_node(cg: CostGraph, threshold: float) -> dict:
    return {start: neighborhood(cg, start, threshold) for start in cg.nodes}


def test_neighborhoods_match_neighborhood_random():
    from conftest import random_cost_graph

    rng = np.random.default_rng(9)
    for _ in range(60):
        cg = random_cost_graph(rng)
        for threshold in (0.0, 0.2, 0.5, 0.9, 3.0):
            assert _neighborhoods(cg, threshold) == _per_node(cg, threshold)


_A, _B, _C, _D = ("a", 0), ("b", 0), ("c", 0), ("d", 0)


@pytest.mark.parametrize(
    "arcs, keys, threshold, expected",
    [
        pytest.param(
            {(_A, _B): 0.25, (_B, _C): 0.25},
            [_A, _B, _C],
            0.5,
            {_A: {_A: 0.0, _B: 0.25, _C: 0.5}, _B: {_B: 0.0, _C: 0.25}, _C: {_C: 0.0}},
            id="node-exactly-at-threshold",
        ),
        pytest.param(
            {(_A, _B): 0.25, (_B, _C): 0.25},
            [_A, _B, _C],
            0.49,
            {_A: {_A: 0.0, _B: 0.25}, _B: {_B: 0.0, _C: 0.25}, _C: {_C: 0.0}},
            id="node-just-past-threshold",
        ),
        pytest.param(
            {(_A, _B): 0.0, (_B, _C): 0.0, (_C, _A): 0.4},
            [_A, _B, _C],
            0.0,
            {_A: {_A: 0.0, _B: 0.0, _C: 0.0}, _B: {_B: 0.0, _C: 0.0}, _C: {_C: 0.0}},
            id="zero-cost-arcs-at-threshold-zero",
        ),
        pytest.param(
            {(_A, _B): 0.2, (_B, _D): 0.3, (_A, _C): 0.3, (_C, _D): 0.2, (_A, _D): 0.7},
            [_A, _B, _C, _D],
            1.0,
            {
                _A: {_A: 0.0, _B: 0.2, _C: 0.3, _D: 0.5},
                _B: {_B: 0.0, _D: 0.3},
                _C: {_C: 0.0, _D: 0.2},
                _D: {_D: 0.0},
            },
            id="tied-paths",
        ),
        pytest.param(
            {(_A, _B): 0.1, (_B, _A): 0.1},
            [_A, _B, _C],
            1.0,
            {_A: {_A: 0.0, _B: 0.1}, _B: {_B: 0.0, _A: 0.1}, _C: {_C: 0.0}},
            id="node-without-arcs",
        ),
        pytest.param({}, [_A], 0.5, {_A: {_A: 0.0}}, id="one-node"),
    ],
)
def test_neighborhoods_hand_built(arcs, keys, threshold, expected):
    cg = _chain_graph(arcs, keys)
    assert _neighborhoods(cg, threshold) == expected
    assert _per_node(cg, threshold) == expected


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -0.1, 10**400])
def test_neighborhoods_reject_bad_threshold(threshold):
    cg = _chain_graph({}, [_A])
    message = rf"^distance threshold {re.escape(str(threshold))} must be finite and >= 0$"
    with pytest.raises(ValueError, match=message):
        _neighborhoods(cg, threshold)


def _reference_entries(cost: CostGraph, threshold: float) -> dict:
    return {
        key: consolidate((cost.nodes[k], d) for k, d in neigh.items())
        for key, neigh in _per_node(cost, threshold).items()
    }


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    SCENARIOS,
    st.integers(0, 2**16),
    st.sampled_from([0.1, 0.2, 0.25, 0.5]),
    st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 2.0),
    st.integers(1, 3),
)
def test_build_entries_equal_per_node_neighborhood(
    scenario, seed, width, threshold, min_samples
):
    trace = gen_trace(replace(scenario, emit_frames=False), seed)
    cost = normalize_invert(prune_sparse_nodes(build_cograph(trace, width), min_samples))
    pm = build_prediction_map(trace, width, threshold, min_samples)
    assert pm.entries == _reference_entries(cost, threshold)


def test_64_model_build_matches_neighborhood_on_sampled_nodes():
    from perfbench.workloads import many_models_scenario

    # One frame per segment keeps the trace short; the graph still has every
    # segment's nodes (about 600) and about 125k arcs.
    full = many_models_scenario(64)
    scenario = replace(full, segments=tuple(replace(s, frames=1) for s in full.segments))
    trace = gen_trace(scenario, 0)
    pm = build_prediction_map(trace)
    cost = normalize_invert(build_cograph(trace, pm.bucket_width))
    assert len(cost.nodes) > 500
    keys = sorted(cost.nodes)
    for key in keys[:: len(keys) // 10]:
        neigh = neighborhood(cost, key, pm.distance_threshold)
        assert pm.entries[key] == consolidate((cost.nodes[k], d) for k, d in neigh.items())


# ---------------------------------------------------------------------------
# consolidation


def test_consolidate_single_node_exact():
    node = _node("a", 3, acc=0.62)
    (pred,) = consolidate([(node, 0.0)])
    assert pred.model == "a"
    assert pred.accuracy == 0.62
    assert pred.distance == 0.0


def test_consolidate_two_nodes_hand_value():
    preds = consolidate([(_node("m", 1, acc=0.6), 0.1), (_node("m", 2, acc=0.4), 0.3)])
    w1, w2 = 1 / (0.1 + EPSILON), 1 / (0.3 + EPSILON)
    expected = (0.6 * w1 + 0.4 * w2) / (w1 + w2)
    assert preds[0].accuracy == pytest.approx(expected, abs=1e-12)
    assert preds[0].accuracy == pytest.approx(0.55, abs=0.01)
    assert preds[0].distance == 0.1


def test_consolidate_distance_zero_dominates():
    preds = consolidate([(_node("m", 1, acc=0.9), 0.0), (_node("m", 2, acc=0.1), 0.5)])
    assert preds[0].accuracy == pytest.approx(0.9, abs=1e-5)


def test_consolidate_permutation_invariant():
    items = [
        (_node("a", 1, acc=0.3), 0.2),
        (_node("a", 5, acc=0.9), 0.1),
        (_node("b", 2, acc=0.5), 0.0),
        (_node("a", 7, acc=0.6), 0.4),
    ]
    base = consolidate(items)
    assert consolidate(items[::-1]) == base
    assert consolidate([items[2], items[0], items[3], items[1]]) == base


# ---------------------------------------------------------------------------
# prediction map


def test_prediction_map_toy_two_models():
    trace = make_trace(
        [{"a": (0.55, 0.6), "b": (0.45, 0.3)}, {"a": (0.85, 0.9), "b": (0.42, 0.2)}]
    )
    pm = build_prediction_map(trace, 0.1, 0.5)
    assert len(pm.entries) <= 4
    for preds in pm.entries.values():
        assert {p.model for p in preds} == {"a", "b"}


def test_prediction_map_single_model_only_self():
    pm = build_prediction_map(make_trace([{"a": (0.55, 0.6)}, {"a": (0.55, 0.8)}]), 0.1, 0.5)
    ((key, preds),) = pm.entries.items()
    assert key == ("a", 5)
    assert len(preds) == 1 and preds[0].model == "a" and preds[0].distance == 0.0
    assert preds[0].accuracy == pytest.approx(0.7)


def test_prediction_map_empty_trace():
    with pytest.raises(ValueError, match="empty trace"):
        build_prediction_map(make_trace([]), 0.1, 0.5)


@pytest.mark.parametrize("min_samples", [0, -3])
def test_prediction_map_rejects_min_samples_below_one(min_samples):
    rows = [{"a": (0.55, 0.7)}]
    with pytest.raises(ValueError, match=f"^min_samples {min_samples} must be >= 1$"):
        build_prediction_map(make_trace(rows), 0.1, 0.5, min_samples)


@pytest.mark.parametrize("threshold", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_prediction_map_rejects_non_finite_threshold(demo_trace, threshold):
    message = f"^distance threshold {threshold} must be finite and >= 0$"
    with pytest.raises(ValueError, match=message):
        build_prediction_map(demo_trace, 0.1, threshold)


def test_predict_contains_queried_model_at_distance_zero(demo_trace):
    pm = build_prediction_map(demo_trace)
    for model in pm.models():
        for conf in (0.0, 0.33, 0.5, 0.87, 1.0):
            preds = predict(pm, model, conf)
            own = [p for p in preds if p.model == model]
            assert own and own[0].distance == 0.0


def test_predict_unpopulated_bucket_fallback():
    # populated buckets 2 and 6; querying 0.45 is equidistant from both
    # midpoints (0.25, 0.65) so the tie goes to the lower bucket
    trace = make_trace([{"a": (0.25, 0.4)}, {"a": (0.65, 0.8)}])
    pm = build_prediction_map(trace, 0.1, 0.5)
    assert pm.populated_buckets("a") == (2, 6)
    preds = predict(pm, "a", 0.45)
    assert preds[0].accuracy == 0.4  # bucket 2's accuracy
    # closer to bucket 6's midpoint
    assert predict(pm, "a", 0.58)[0].accuracy == 0.8


def test_predict_unknown_model(demo_trace):
    pm = build_prediction_map(demo_trace)
    with pytest.raises(KeyError, match="nope"):
        predict(pm, "nope", 0.5)


def _predict_full_scan(pm, model: str, confidence: float):
    """The lookup written plainly: scan every node for the model's
    populated buckets first, then take its own bucket or the populated one
    with the nearest midpoint (ties toward the lower bucket)."""
    populated = sorted(i for m, i in pm.nodes if m == model)
    if not populated:
        raise KeyError(model)
    idx = bucket_index(confidence, pm.bucket_width)
    if (model, idx) not in pm.entries:

        def midpoint(i):
            b = pm.nodes[(model, i)].bucket
            return round((b.lo + b.hi) / 2.0, 9)

        idx = min(populated, key=lambda i: (abs(midpoint(i) - confidence), i))
    return pm.entries[(model, idx)]


# Two sparse traces leave most buckets empty, so the nearest-bucket
# fallback runs; the demo trace is the common, populated case.
_SPARSE_ROWS = [
    [{"a": (0.25, 0.4)}, {"a": (0.65, 0.8)}],
    [{"a": (0.05, 0.3), "b": (0.95, 0.9)}, {"a": (0.5, 0.6)}, {"b": (0.31, 0.2)}],
]


@pytest.mark.parametrize("width", [0.1, 0.25, 0.3, 0.5])
@pytest.mark.parametrize("source", ["demo", "sparse0", "sparse1"])
def test_predict_matches_full_scan_reference(demo_trace, source, width):
    trace = demo_trace if source == "demo" else make_trace(_SPARSE_ROWS[int(source[-1])])
    pm = build_prediction_map(trace, width, 0.5)
    # A decimal grid, every bucket edge and the floats either side of it.
    edges = [min(k * width, 1.0) for k in range(int(1 / width) + 2)]
    grid = sorted(
        {float(c) for c in np.linspace(0.0, 1.0, 41)}
        | set(edges)
        | {float(np.nextafter(e, 0.0)) for e in edges if e > 0.0}
        | {float(np.nextafter(e, 1.0)) for e in edges if e < 1.0}
    )
    fallbacks = 0
    for model in pm.models():
        for conf in grid:
            assert predict(pm, model, conf) == _predict_full_scan(pm, model, conf)
            fallbacks += (model, bucket_index(conf, width)) not in pm.entries
    with pytest.raises(KeyError, match="nope"):
        predict(pm, "nope", 0.5)
    if source != "demo" and width < 0.5:  # two buckets of 0.5 are both filled
        assert fallbacks > 0


def test_prediction_map_values_in_range(demo_trace):
    pm = build_prediction_map(demo_trace)
    for cost in pm.arcs.values():
        assert 0.0 <= cost <= 1.0
    for preds in pm.entries.values():
        for p in preds:
            assert 0.0 <= p.accuracy <= 1.0
            assert 0.0 <= p.distance <= pm.distance_threshold


def test_prediction_map_deterministic_serialization(demo_trace):
    pm1 = build_prediction_map(demo_trace)
    pm2 = build_prediction_map(demo_trace)
    doc1 = json.dumps(prediction_map_to_dict(pm1), sort_keys=True)
    doc2 = json.dumps(prediction_map_to_dict(pm2), sort_keys=True)
    assert doc1 == doc2


def test_prediction_map_file_round_trip(tmp_path, demo_trace):
    pm = build_prediction_map(demo_trace)
    path = tmp_path / "pm.json"
    save_prediction_map(pm, path)
    back = load_prediction_map(path)
    assert back.entries == pm.entries
    assert back.arcs == pm.arcs
    assert predict(back, "yolov7", 0.81) == predict(pm, "yolov7", 0.81)


def test_prediction_map_file_validation(tmp_path, demo_trace):
    pm = build_prediction_map(demo_trace)
    path = tmp_path / "pm.json"
    save_prediction_map(pm, path)
    doc = json.loads(path.read_text())
    doc["entries"] = doc["entries"][1:]  # orphan the first node
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="no entry") as info:
        load_prediction_map(path)
    assert str(info.value).startswith(f"{path}: ")
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="malformed"):
        load_prediction_map(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("bucket_width", 2.0),
        ("bucket_width", 0.0),
        ("bucket_width", -0.1),
        ("bucket_width", float("nan")),
        ("bucket_width", 5e-324),
        ("distance_threshold", -0.1),
        ("distance_threshold", float("nan")),
        ("distance_threshold", float("inf")),
    ],
)
def test_prediction_map_graph_parameters_checked_at_load(demo_trace, field, value):
    doc = prediction_map_to_dict(build_prediction_map(demo_trace))
    assert prediction_map_from_dict(doc).bucket_width == 0.1
    doc[field] = value
    with pytest.raises(ValidationError, match=f"prediction map: '{field}' {value}"):
        prediction_map_from_dict(doc)


def test_raising_threshold_never_shrinks_neighborhoods(demo_trace):
    lo = build_prediction_map(demo_trace, 0.1, 0.2)
    hi = build_prediction_map(demo_trace, 0.1, 0.8)
    for key in lo.entries:
        assert {p.model for p in lo.entries[key]} <= {p.model for p in hi.entries[key]}
