"""Confidence graph: predict every model's accuracy from one confidence score.

Built offline from a characterization trace in five stages:

1. Bucket each model's confidence range into nodes carrying the mean IoU of
   the frames that landed in the bucket.
2. Weight the edge between each pair of distinct-model nodes by the number
   of frames on which both were active.  Frames are counted per distinct
   set of active nodes, and each set adds its pairs once, weighted by how
   many frames had it, so a trace that repeats its sets pays for each set
   once and a trace of distinct sets pays what a per-frame count would.
3. Normalize edge weights per node and invert them, so an arc leaving a node
   along its strongest edge costs 0 and weaker edges cost up to 1.
4. From each node, collect all nodes within a cumulative arc-cost threshold
   (cheapest-path distances).  One bounded Dijkstra over a sparse matrix of
   the arcs yields every node's neighborhood at once.
5. Collapse multiple nodes of the same model into one prediction via an
   inverse-distance weighted average of their expected accuracies.

The resulting map is queried at runtime with (model, confidence) and answers
with accuracy predictions for every model seen nearby during
characterization.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .catalog import CharacterizationTrace, ModelId
from .errors import (
    DECODE_ERRORS,
    ValidationError,
    decode_error,
    json_float,
    json_int,
    json_str,
    load_json,
    write_json,
)

# Inverse-distance weighting floor; keeps the distance-0 self node finite
# but dominant.
EPSILON = 1e-6

NodeKey = tuple[ModelId, int]


@dataclass(frozen=True)
class Bucket:
    """One model's confidence interval [lo, hi); the last bucket is closed."""

    model: ModelId
    index: int
    lo: float
    hi: float


@dataclass(frozen=True)
class GraphNode:
    bucket: Bucket
    expected_accuracy: float
    sample_count: int

    @property
    def key(self) -> NodeKey:
        return (self.bucket.model, self.bucket.index)


@dataclass(frozen=True)
class Prediction:
    model: ModelId
    accuracy: float
    distance: float


@dataclass(frozen=True)
class CoGraph:
    """Raw co-occurrence graph; edge keys are sorted (undirected)."""

    bucket_width: float
    nodes: Mapping[NodeKey, GraphNode]
    edges: Mapping[tuple[NodeKey, NodeKey], int]


@dataclass(frozen=True)
class CostGraph:
    """Directed traversal costs in [0, 1]; cheaper means more co-occurrence."""

    bucket_width: float
    nodes: Mapping[NodeKey, GraphNode]
    arcs: Mapping[tuple[NodeKey, NodeKey], float]


@dataclass(frozen=True)
class PredictionMap:
    """Runtime lookup: (model, confidence bucket) -> predictions for all models."""

    bucket_width: float
    distance_threshold: float
    nodes: Mapping[NodeKey, GraphNode]
    arcs: Mapping[tuple[NodeKey, NodeKey], float]
    entries: Mapping[NodeKey, tuple[Prediction, ...]]

    def models(self) -> tuple[ModelId, ...]:
        return tuple(sorted({model for model, _ in self.nodes}))

    def populated_buckets(self, model: ModelId) -> tuple[int, ...]:
        return tuple(sorted(idx for m, idx in self.nodes if m == model))


def bucket_count(bucket_width: float, name: str = "bucket width") -> int:
    """Number of buckets of `bucket_width` that cover [0, 1].

    The one statement of the width rule: in (0, 1], and wide enough that
    1 / width is finite.  `name` names the width in the error.
    """
    if not (0.0 < bucket_width <= 1.0):  # NaN fails too
        raise ValueError(f"{name} {bucket_width} outside (0, 1]")
    try:
        return math.ceil(round(1.0 / bucket_width, 9))
    except OverflowError:  # ceil of an infinite 1 / width
        raise ValueError(f"{name} {bucket_width} too narrow: 1 / width overflows") from None


def check_distance_threshold(threshold: float, name: str = "distance threshold") -> None:
    """The one statement of the distance-threshold rule; `name` names it."""
    if not (0.0 <= threshold <= sys.float_info.max):  # NaN and a huge int fail too
        raise ValueError(f"{name} {threshold} must be finite and >= 0")


def bucket_index(confidence: float, bucket_width: float) -> int:
    """Index of the half-open bucket containing `confidence`.

    The quotient is rounded to 9 decimals before flooring so that scores
    sitting exactly on a decimal boundary (0.7 / 0.1) land in the upper
    bucket despite binary-float division error.
    """
    return _bucket_index(confidence, bucket_width, bucket_count(bucket_width))


def _bucket_index(confidence: float, bucket_width: float, n_buckets: int) -> int:
    """`bucket_index` with the width's `bucket_count` already known."""
    if not (0.0 <= confidence <= 1.0):
        raise ValueError(f"confidence {confidence} outside [0, 1]")
    idx = math.floor(round(confidence / bucket_width, 9))
    return min(idx, n_buckets - 1)


def bucket_for(model: ModelId, confidence: float, bucket_width: float) -> Bucket:
    idx = bucket_index(confidence, bucket_width)
    return _bucket(model, idx, bucket_width)


def _bucket(model: ModelId, idx: int, bucket_width: float) -> Bucket:
    lo = round(idx * bucket_width, 9)
    hi = min(round((idx + 1) * bucket_width, 9), 1.0)
    return Bucket(model=model, index=idx, lo=lo, hi=hi)


def build_cograph(trace: CharacterizationTrace, bucket_width: float) -> CoGraph:
    """Stage 1+2: bucket statistics and pairwise co-occurrence counts."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    n_buckets = bucket_count(bucket_width)  # validates width
    iou_sum: dict[NodeKey, float] = {}
    active_sets: Counter[tuple[NodeKey, ...]] = Counter()
    for fr in trace.frames:
        active: list[NodeKey] = []
        for model in sorted(fr.per_model):
            out = fr.per_model[model]
            key = (model, _bucket_index(out.confidence, bucket_width, n_buckets))
            iou_sum[key] = iou_sum.get(key, 0.0) + out.iou
            active.append(key)
        active_sets[tuple(active)] += 1
    # Sets in order of first frame, so each edge is inserted on the frame
    # that first had it, as a per-frame count would.
    samples: Counter[NodeKey] = Counter()
    edges: Counter[tuple[NodeKey, NodeKey]] = Counter()
    for active, frames in active_sets.items():
        _add_count(samples, active, frames)
        # Keys of distinct models in model order: each pair is already sorted.
        _add_count(edges, itertools.combinations(active, 2), frames)
    nodes = {
        key: GraphNode(
            bucket=_bucket(key[0], key[1], bucket_width),
            expected_accuracy=iou_sum[key] / samples[key],
            sample_count=samples[key],
        )
        for key in sorted(samples)
    }
    return CoGraph(bucket_width=bucket_width, nodes=nodes, edges=dict(edges))


def _add_count(counts: Counter, keys: Iterable, weight: int) -> None:
    """Add `weight` to the count of each of `keys`, inserting new keys in order.

    Both branches loop in C: a per-key Python loop (as `Counter.update` runs
    over a mapping) would make a trace of distinct sets slower than counting
    its frames one by one.
    """
    if weight == 1:
        counts.update(keys)
        return
    keys = list(keys)
    old = map(counts.get, keys, itertools.repeat(0))
    dict.update(counts, zip(keys, map(operator.add, old, itertools.repeat(weight))))


def prune_sparse_nodes(g: CoGraph, min_samples: int) -> CoGraph:
    """Drop nodes observed fewer than `min_samples` times, with their edges."""
    if min_samples <= 1:
        return g
    keep = {k: n for k, n in g.nodes.items() if n.sample_count >= min_samples}
    edges = {e: w for e, w in g.edges.items() if e[0] in keep and e[1] in keep}
    return CoGraph(bucket_width=g.bucket_width, nodes=keep, edges=edges)


def normalize_invert(g: CoGraph) -> CostGraph:
    """Stage 3: per-node normalization, then inversion to traversal costs.

    For a node n with incident edge weights w_1..w_k, the arc leaving n over
    edge i costs 1 - w_i / max(w).  Normalizing within each node's own edges
    keeps a globally popular hub from flattening everyone else's costs, and
    makes the two directions of one undirected edge cost different amounts.
    """
    max_incident: dict[NodeKey, int] = {}
    for (a, b), w in g.edges.items():
        if w < 1:
            raise ValueError(f"edge {a}->{b} has non-positive weight {w}")
        max_incident[a] = max(max_incident.get(a, 0), w)
        max_incident[b] = max(max_incident.get(b, 0), w)
    arcs: dict[tuple[NodeKey, NodeKey], float] = {}
    for (a, b), w in g.edges.items():
        arcs[(a, b)] = 1.0 - w / max_incident[a]
        arcs[(b, a)] = 1.0 - w / max_incident[b]
    return CostGraph(bucket_width=g.bucket_width, nodes=dict(g.nodes), arcs=arcs)


def neighborhood(
    cg: CostGraph, start: NodeKey, distance_threshold: float
) -> dict[NodeKey, float]:
    """Stage 4: all nodes within `distance_threshold` cumulative arc cost.

    Returns minimum distances, including the start node at 0.  Implemented
    as uniform-cost search; with non-negative arc costs this equals the
    cheapest simple path per node.  This is the single-node reference for
    `_neighborhoods`, which the build uses.
    """
    if start not in cg.nodes:
        raise KeyError(f"start node {start} not in graph")
    check_distance_threshold(distance_threshold)
    adj: dict[NodeKey, list[tuple[NodeKey, float]]] = {k: [] for k in cg.nodes}
    for (src, dst), cost in cg.arcs.items():
        adj[src].append((dst, cost))
    dist: dict[NodeKey, float] = {}
    heap: list[tuple[float, NodeKey]] = [(0.0, start)]
    while heap:
        d, key = heapq.heappop(heap)
        if key in dist:
            continue
        dist[key] = d
        for nxt, cost in adj[key]:
            if nxt in dist:
                continue
            nd = d + cost
            if nd <= distance_threshold:
                heapq.heappush(heap, (nd, nxt))
    return dist


def _neighborhoods(
    cg: CostGraph, distance_threshold: float
) -> dict[NodeKey, dict[NodeKey, float]]:
    """Stage 4 for every node at once: `neighborhood(cg, k, t)` for each k.

    One bounded Dijkstra over the arcs as a sparse matrix, nodes indexed in
    sorted key order.  The matrix keeps zero-cost arcs as explicit entries,
    and `limit` keeps a node at exactly the threshold, as `neighborhood`
    does; every other distance comes back infinite.
    """
    # Imported here: the rest of the package, and every command that does
    # not build a graph, need no scipy.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    check_distance_threshold(distance_threshold)
    keys = sorted(cg.nodes)
    index = {k: i for i, k in enumerate(keys)}
    rows = [index[src] for src, _ in cg.arcs]
    cols = [index[dst] for _, dst in cg.arcs]
    costs = csr_matrix(
        (list(cg.arcs.values()), (rows, cols)), shape=(len(keys), len(keys))
    )
    dist = dijkstra(costs, directed=True, limit=distance_threshold)
    # Python floats row by row: per-element numpy access costs more.
    return {
        start: {keys[j]: d for j, d in enumerate(row) if d != math.inf}
        for start, row in zip(keys, dist.tolist())
    }


def consolidate(neigh: Iterable[tuple[GraphNode, float]]) -> tuple[Prediction, ...]:
    """Stage 5: one prediction per model via inverse-distance weighting.

    predicted = sum(acc_i / (d_i + eps)) / sum(1 / (d_i + eps)) over that
    model's nodes; the reported distance is the nearest node's.  Input order
    does not matter: terms are accumulated in a canonical ordering.
    """
    ordered = sorted(neigh, key=lambda nd: (nd[0].key, nd[1]))
    num: dict[ModelId, float] = {}
    den: dict[ModelId, float] = {}
    nearest: dict[ModelId, float] = {}
    for node, d in ordered:
        model = node.bucket.model
        w = 1.0 / (d + EPSILON)
        num[model] = num.get(model, 0.0) + w * node.expected_accuracy
        den[model] = den.get(model, 0.0) + w
        nearest[model] = min(nearest.get(model, math.inf), d)
    return tuple(
        Prediction(model=m, accuracy=num[m] / den[m], distance=nearest[m])
        for m in sorted(num)
    )


def build_prediction_map(
    trace: CharacterizationTrace,
    bucket_width: float = 0.1,
    distance_threshold: float = 0.5,
    min_samples: int = 1,
) -> PredictionMap:
    """Run all stages over a trace and compile the runtime lookup map."""
    if min_samples < 1:
        raise ValueError(f"min_samples {min_samples} must be >= 1")
    cograph = prune_sparse_nodes(build_cograph(trace, bucket_width), min_samples)
    cost = normalize_invert(cograph)
    entries = {
        key: consolidate((cost.nodes[k], d) for k, d in neigh.items())
        for key, neigh in _neighborhoods(cost, distance_threshold).items()
    }
    return PredictionMap(
        bucket_width=bucket_width,
        distance_threshold=distance_threshold,
        nodes=dict(cost.nodes),
        arcs=dict(cost.arcs),
        entries=entries,
    )


def predict(
    pm: PredictionMap, model: ModelId, confidence: float
) -> tuple[Prediction, ...]:
    """Look up the predictions keyed by `model`'s bucket for `confidence`.

    A bucket that collected no characterization samples falls back to the
    same model's populated bucket with the nearest midpoint (ties toward
    the lower bucket), so any legal confidence yields an answer.
    """
    width = pm.bucket_width
    hit = pm.entries.get((model, bucket_index(confidence, width)))
    if hit is not None:
        return hit
    populated = pm.populated_buckets(model)
    if not populated:
        raise KeyError(f"model {model!r} not present in prediction map")
    idx = min(populated, key=lambda i: (abs(_midpoint(i, width) - confidence), i))
    return pm.entries[(model, idx)]


def _midpoint(idx: int, bucket_width: float) -> float:
    b = _bucket("", idx, bucket_width)
    # Quantized like the bucket bounds, so decimal-grid queries tie exactly.
    return round((b.lo + b.hi) / 2.0, 9)


# ---------------------------------------------------------------------------
# Serialization (build-graph output, simulate input)


def prediction_map_to_dict(pm: PredictionMap) -> dict:
    return {
        "bucket_width": pm.bucket_width,
        "distance_threshold": pm.distance_threshold,
        "nodes": [
            {
                "model": n.bucket.model,
                "bucket": n.bucket.index,
                "lo": n.bucket.lo,
                "hi": n.bucket.hi,
                "expected_accuracy": n.expected_accuracy,
                "samples": n.sample_count,
            }
            for _, n in sorted(pm.nodes.items())
        ],
        "arcs": [
            {"from": list(src), "to": list(dst), "cost": cost}
            for (src, dst), cost in sorted(pm.arcs.items())
        ],
        "entries": [
            {
                "node": list(key),
                "predictions": [asdict(p) for p in preds],
            }
            for key, preds in sorted(pm.entries.items())
        ],
    }


def _json_range(doc: dict, key: str, hi: float) -> float:
    """`doc[key]`, a JSON number in [0, hi]; NaN is outside."""
    value = json_float(doc, key)
    if not 0.0 <= value <= hi:
        raise ValueError(f"{key}: {value} outside [0, {hi:g}]")
    return value


def _known_node(pair: list, nodes: Mapping[NodeKey, GraphNode]) -> NodeKey:
    """The node key `[model, bucket]`, which must name one of `nodes`."""
    model, bucket = pair
    key = (json_str({"model": model}, "model"), json_int({"bucket": bucket}, "bucket"))
    if key not in nodes:
        raise ValueError(f"unknown node {key}")
    return key


def _check_new(key: object, seen: Mapping, what: str) -> None:
    """A map file lists each node, arc and entry once."""
    if key in seen:
        raise ValueError(f"duplicate {what} {key}")


def prediction_map_from_dict(doc: dict) -> PredictionMap:
    if not isinstance(doc, dict):
        raise ValidationError("malformed prediction map document: not a JSON object")
    where = "prediction map"
    try:
        width = json_float(doc, "bucket_width")
        bucket_count(width, "'bucket_width'")  # checks the width rule
        threshold = json_float(doc, "distance_threshold")
        check_distance_threshold(threshold, "'distance_threshold'")
        nodes: dict[NodeKey, GraphNode] = {}
        for i, n in enumerate(doc["nodes"]):
            where = f"nodes[{i}]"
            key = (json_str(n, "model"), json_int(n, "bucket"))
            _check_new(key, nodes, "node")
            nodes[key] = GraphNode(
                bucket=_bucket(*key, width),
                expected_accuracy=_json_range(n, "expected_accuracy", 1.0),
                sample_count=json_int(n, "samples"),
            )
        arcs: dict[tuple[NodeKey, NodeKey], float] = {}
        for i, a in enumerate(doc["arcs"]):
            where = f"arcs[{i}]"
            arc = (_known_node(a["from"], nodes), _known_node(a["to"], nodes))
            _check_new(arc, arcs, "arc")
            arcs[arc] = _json_range(a, "cost", 1.0)
        node_models = {model for model, _ in nodes}
        entries: dict[NodeKey, tuple[Prediction, ...]] = {}
        for i, e in enumerate(doc["entries"]):
            where = f"entries[{i}]"
            key = _known_node(e["node"], nodes)
            _check_new(key, entries, "entry")
            # Each model once, the node's own among them: the scheduler's
            # bootstrap seeds a model from its own prediction.  `predict`
            # looks each predicted model up by its nodes.
            predictions: dict[ModelId, Prediction] = {}
            for p in e["predictions"]:
                model = json_str(p, "model")
                _check_new(model, predictions, "prediction for model")
                if model not in node_models:
                    raise ValueError(f"prediction for model {model}, which has no node")
                predictions[model] = Prediction(
                    model=model,
                    accuracy=_json_range(p, "accuracy", 1.0),
                    distance=_json_range(p, "distance", threshold),
                )
            if key[0] not in predictions:
                raise ValueError(f"no prediction for the node's own model {key[0]}")
            entries[key] = tuple(predictions.values())
    except DECODE_ERRORS as exc:
        raise decode_error(ValidationError, where, exc) from None
    if not nodes:
        raise ValidationError("prediction map has no nodes")
    missing = sorted(set(nodes) - set(entries))
    if missing:
        raise ValidationError(f"prediction map node {missing[0]} has no entry")
    return PredictionMap(
        bucket_width=width,
        distance_threshold=threshold,
        nodes=nodes,
        arcs=arcs,
        entries=entries,
    )


def save_prediction_map(pm: PredictionMap, path: str | Path) -> None:
    write_json(prediction_map_to_dict(pm), path)


def load_prediction_map(path: str | Path) -> PredictionMap:
    return load_json(path, "prediction map", ValidationError, prediction_map_from_dict)
