"""A plain re-implementation of the whole selector, for differential tests.

`replay` runs a policy over a trace the naive way, one layer at a time:

1. `prediction_map`: each node's `neighborhood()`, then `consolidate`.
2. `NaiveScheduler`: the full `similarity()` on every frame, with no skip,
   memo or patch reuse; plain-list momentum windows and its own min-max
   normalisation; then `valid_set`, `score_candidates` and `best_pair`.
3. `ListLRU`: a plain list of residents per accelerator, whose used bytes
   are re-summed on every use, prefilled in `catalog.models` order.
4. `oracle_pair`: a plain per-pair minimum.
5. Each frame charged as the simulator charges it.

`sim.run` and `sim.sweep` must give reports equal to it field for field.
The helpers it composes are the references the single-layer tests use.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from odsched.catalog import (
    NO_DETECTION,
    BoundingBox,
    Catalog,
    CharacterizationTrace,
    FrameRecord,
    ModelId,
    Pair,
)
from odsched.confidence_graph import (
    CostGraph,
    Prediction,
    PredictionMap,
    build_cograph,
    consolidate,
    neighborhood,
    normalize_invert,
    predict,
    prune_sparse_nodes,
)
from odsched.context import FrameStats, LastPatch, bbox_similarity, ncc_cached
from odsched.images import GrayscaleImage
from odsched.loader import LoadOutcome
from odsched.scheduler import Decision, NormalizedCosts, SchedulerConfig
from odsched.sim import (
    DEFAULT_OVERHEAD_S,
    SUCCESS_IOU,
    FrameResult,
    Policy,
    SimulationReport,
    metrics,
)

# ---------------------------------------------------------------------------
# Context


def ncc(p: GrayscaleImage, c: GrayscaleImage) -> float:
    """Normalized cross-correlation of two same-size images, in [-1, 1]."""
    return ncc_cached(FrameStats(p.pixels), FrameStats(c.pixels))


def similarity(
    prev_frame: GrayscaleImage,
    cur_frame: GrayscaleImage,
    prev_box: BoundingBox | None = None,
    cur_box: BoundingBox | None = None,
) -> float:
    """min(frame NCC, box NCC), both computed here; a missing box zeroes the
    box term."""
    frame_term = ncc(prev_frame, cur_frame)
    if prev_box is None or cur_box is None:
        box_term = 0.0
    else:
        box_term = bbox_similarity(prev_frame, prev_box, cur_frame, cur_box, LastPatch())
    return min(frame_term, box_term)


# ---------------------------------------------------------------------------
# Confidence graph


def neighborhoods(cost: CostGraph, threshold: float) -> dict:
    """Every node's neighbourhood, one `neighborhood()` call per node."""
    return {start: neighborhood(cost, start, threshold) for start in cost.nodes}


def prediction_map(
    trace: CharacterizationTrace,
    bucket_width: float,
    distance_threshold: float,
    min_samples: int = 1,
) -> PredictionMap:
    """The map `build_prediction_map` must build, one neighbourhood at a time."""
    cost = normalize_invert(prune_sparse_nodes(build_cograph(trace, bucket_width), min_samples))
    entries = {
        key: consolidate(cost.nodes, neigh)
        for key, neigh in neighborhoods(cost, distance_threshold).items()
    }
    return PredictionMap(
        bucket_width, distance_threshold, dict(cost.nodes), dict(cost.arcs), entries
    )


# ---------------------------------------------------------------------------
# Scheduling, one step at a time


def valid_set(averages: Mapping[ModelId, float], threshold: float) -> set[ModelId]:
    """Models whose averaged prediction meets the threshold; all if none do."""
    if not averages:
        raise ValueError("no averaged predictions to filter")
    valid = {m for m, r in averages.items() if r >= threshold}
    return valid if valid else set(averages)


def score_candidates(
    averages: Mapping[ModelId, float],
    valid: set[ModelId],
    costs: NormalizedCosts,
    weights: tuple[float, float, float],
) -> dict[Pair, float]:
    """Score each valid model's pairs, in the (sorted) pair order of `costs`,
    under the weights (w_accuracy, w_energy, w_latency)."""
    w_accuracy, w_energy, w_latency = weights
    scores: dict[Pair, float] = {}
    for pair, energy in costs.energy_score.items():
        model = pair[0]
        if model in valid and model in averages:
            scores[pair] = (
                averages[model] * w_accuracy
                + energy * w_energy
                + costs.latency_score[pair] * w_latency
            )
    return scores


def best_pair(scores: Mapping[Pair, float]) -> Pair:
    """Argmax with deterministic ties: lexicographic (model, accelerator)."""
    if not scores:
        raise ValueError("no candidate pairs to choose from")
    top = max(scores.values())
    return min(p for p, s in scores.items() if s == top)


class NaiveScheduler:
    """The per-frame algorithm with its own momentum windows, normalisation
    and candidate rule, deciding as `schedule()` must."""

    def __init__(self, catalog: Catalog, pm: PredictionMap, config: SchedulerConfig) -> None:
        self.pm = pm
        self.config = config
        pairs = catalog.profiled_pairs()

        def inverted(values: list[float]) -> dict[Pair, float]:
            lo, hi = min(values), max(values)
            if hi <= lo:
                return {p: 1.0 for p in pairs}
            return {p: 1.0 - (v - lo) / (hi - lo) for p, v in zip(pairs, values)}

        self.costs = NormalizedCosts(
            energy_score=inverted([catalog.profiles[p].avg_energy_j for p in pairs]),
            latency_score=inverted([catalog.profiles[p].avg_latency_s for p in pairs]),
        )
        self.profiled = {model for model, _ in pairs}
        # model -> its last `momentum` predicted accuracies, oldest first
        self.buffers: dict[ModelId, list[float]] = {}
        self.last: tuple[GrayscaleImage, BoundingBox | None] | None = None

    def select(self, predictions: tuple[Prediction, ...], s: float) -> Decision:
        """The full pass: momentum, valid set, scores and argmax."""
        cfg = self.config
        averages = {}
        for p in predictions:
            buf = self.buffers.setdefault(p.model, [])
            buf.append(p.accuracy)
            if len(buf) > cfg.momentum:
                del buf[0]
            averages[p.model] = sum(buf) / len(buf)
        # The README's candidate rule: the predicted models that have a
        # profiled pair and meet the threshold, or all of them when none does.
        profiled = {m: r for m, r in averages.items() if m in self.profiled}
        valid = valid_set(profiled, cfg.accuracy_threshold)
        scores = score_candidates(
            averages, valid, self.costs, (cfg.w_accuracy, cfg.w_energy, cfg.w_latency)
        )
        fallback = all(r < cfg.accuracy_threshold for r in profiled.values())
        return Decision(best_pair(scores), True, s, scores, predictions, fallback)

    def bootstrap(self) -> Decision:
        seeds = []
        for model in sorted({m for m, _ in self.pm.nodes}):
            top = max(i for m, i in self.pm.nodes if m == model)
            own = [p for p in self.pm.entries[(model, top)] if p.model == model][0]
            seeds.append(Prediction(model=model, accuracy=own.accuracy, distance=0.0))
        return self.select(tuple(seeds), 0.0)

    def step(
        self,
        pair: Pair,
        confidence: float,
        frame: GrayscaleImage | None = None,
        box: BoundingBox | None = None,
    ) -> Decision:
        """Both context terms on every frame against the last frame seen; a
        call without a frame scores 0 and keeps the last one."""
        s = 0.0
        if frame is not None:
            if self.last is not None:
                s = similarity(self.last[0], frame, self.last[1], box)
            self.last = (frame, box)
        if s * confidence >= self.config.accuracy_threshold:
            return Decision(pair=pair, rescheduled=False, similarity=s)
        return self.select(predict(self.pm, pair[0], confidence), s)


# ---------------------------------------------------------------------------
# Loading


class ListLRU:
    """One accelerator's residents in a plain list, least recently requested
    first; the used bytes are re-summed on every use."""

    def __init__(self, catalog: Catalog, accelerator: str) -> None:
        self.capacity = catalog.accelerators[accelerator].memory_bytes
        self.profiles = {m: p for (m, a), p in catalog.profiles.items() if a == accelerator}
        self.residents: list[ModelId] = []
        self.evictions = 0

    def used(self) -> int:
        return sum(self.profiles[m].memory_bytes for m in self.residents)

    def prefill(self, priority: Iterable[ModelId]) -> set[ModelId]:
        """Load in priority order what fits, never evicting; return the
        named models that are resident."""
        priority = list(priority)
        for model in priority:
            profile = self.profiles.get(model)
            if profile is None or model in self.residents:
                continue
            if self.used() + profile.memory_bytes <= self.capacity:
                self.residents.append(model)
        return {m for m in priority if m in self.residents}

    def request(self, model: ModelId) -> LoadOutcome:
        if model in self.residents:
            self.residents.remove(model)
            self.residents.append(model)
            return LoadOutcome(kind="hit")
        profile = self.profiles[model]
        evicted = []
        while self.used() + profile.memory_bytes > self.capacity:
            evicted.append(self.residents.pop(0))
        self.evictions += len(evicted)
        self.residents.append(model)
        return LoadOutcome(
            kind="evict_load" if evicted else "cold_load",
            evicted=tuple(evicted),
            time_cost_s=profile.load_time_s,
            energy_cost_j=profile.load_energy_j,
        )


# ---------------------------------------------------------------------------
# Oracles and the replay


def oracle_pair(frame: FrameRecord, catalog: Catalog, objective: str) -> Pair:
    """The profiled pair of an observed model with the least cost (the most
    IoU), among those whose model clears `SUCCESS_IOU` when any does; ties
    go to the smaller pair."""
    observed = [p for p in sorted(catalog.profiles) if p[0] in frame.per_model]
    if not observed:
        raise ValueError(f"{frame.label}: no profiled pair among observed models")
    good = [p for p in observed if frame.per_model[p[0]].iou >= SUCCESS_IOU]
    best = best_cost = None
    for pair in good or observed:
        profile = catalog.profiles[pair]
        if objective == "energy":
            cost = profile.avg_energy_j
        elif objective == "latency":
            cost = profile.avg_latency_s
        else:
            cost = -frame.per_model[pair[0]].iou
        if best is None or cost < best_cost:
            best, best_cost = pair, cost
    return best


def replay(
    trace: CharacterizationTrace,
    catalog: Catalog,
    policy: Policy,
    *,
    scheduler_overhead_s: float = DEFAULT_OVERHEAD_S,
    prefill: bool = False,
) -> SimulationReport:
    """The report `sim.run(trace, catalog, policy, ...)` must produce, with
    the prediction map built from the trace."""
    config = None
    if policy.kind == "shift":
        config = policy.config if policy.config is not None else SchedulerConfig()
        pm = prediction_map(trace, config.bucket_width, config.distance_threshold)
        scheduler = NaiveScheduler(catalog, pm, config)
        pair = scheduler.bootstrap().pair
        pairs = []
        for fr in trace.frames:
            out = fr.per_model.get(pair[0], NO_DETECTION)
            pair = scheduler.step(pair, out.confidence, fr.frame, out.box).pair
            pairs.append(pair)
    elif policy.kind == "single":
        pairs = [policy.pair] * len(trace)
    else:
        objective = policy.kind.removeprefix("oracle_")
        pairs = [oracle_pair(fr, catalog, objective) for fr in trace.frames]

    # Only the adaptive policy pays for deciding; oracles pay no loads.
    overhead_s = scheduler_overhead_s if policy.kind == "shift" else 0.0
    lrus = None
    if not policy.kind.startswith("oracle_"):
        lrus = {name: ListLRU(catalog, name) for name in catalog.accelerators}
        if prefill:
            for lru in lrus.values():
                lru.prefill(catalog.models)
    per_frame = []
    for fr, pair, prev in zip(trace.frames, pairs, [None, *pairs]):
        profile = catalog.profiles[pair]
        load = LoadOutcome(kind="hit") if lrus is None else lrus[pair[1]].request(pair[0])
        out = fr.per_model.get(pair[0], NO_DETECTION)
        per_frame.append(
            FrameResult(
                frame_index=fr.frame_index,
                model=pair[0],
                accelerator=pair[1],
                achieved_iou=out.iou,
                confidence=out.confidence,
                latency_s=profile.avg_latency_s + overhead_s,
                energy_j=profile.avg_energy_j,
                swap_occurred=prev is not None and pair != prev,
                load_time_s=load.time_cost_s,
                load_energy_j=load.energy_cost_j,
            )
        )
    return SimulationReport(
        policy=policy.describe(),
        per_frame=tuple(per_frame),
        config=config,
        **metrics(per_frame, catalog.gpu_accelerators()),
    )
