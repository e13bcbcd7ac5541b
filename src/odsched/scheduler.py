"""Per-frame model/accelerator selection.

Each frame, the scheduler first checks whether the context is stable: the
min of frame NCC and detection-box NCC, multiplied by the current model's
confidence, must clear the accuracy threshold.  If it does, the incumbent
pair stays and nothing else runs.  No NCC that cannot change this outcome
is computed: none when the confidence alone is below the threshold (the
similarity is at most 1), and no frame NCC when the box NCC times the
confidence is below it (the min is at most the box term).  Such a decision
records its similarity as None.  Each state keeps the last box patch it
built, so a box term builds only the current detection's patch when the
previous call built the previous one; each detection's patch is built at
most once per stream.  Otherwise the confidence graph predicts every
model's accuracy, the predictions are smoothed over a momentum window,
the predicted models that have a profiled pair and meet the threshold form
the valid set (falling back to all of them when none qualify), and every
profiled (model, accelerator) pair from the valid set is scored:

    score = R[model] * w_accuracy
          + energy_score[pair] * w_energy
          + latency_score[pair] * w_latency

Energy and latency scores are min-max normalized over the catalog's profiled
pairs and inverted, so bigger is better on every axis and a plain argmax
selects the winner.

Each state computes the weighted energy and latency terms of every profiled
pair once, so the full pass filters the valid models, scores their pairs and
takes the argmax in one loop; the tests replay it against a naive copy.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Mapping

from .catalog import BoundingBox, Catalog, ModelId, Pair
from .confidence_graph import (
    Prediction, PredictionMap, bucket_count, check_distance_threshold, predict
)
from .context import FrameStats, LastPatch, bbox_similarity, ncc_cached
from .errors import json_float, json_int
from .images import GrayscaleImage


@dataclass(frozen=True)
class SchedulerConfig:
    """The three objective weights, then the thresholds, in sweep order."""

    w_accuracy: float = 1.0
    w_energy: float = 0.5
    w_latency: float = 0.5
    accuracy_threshold: float = 0.25
    momentum: int = 30
    distance_threshold: float = 0.5
    bucket_width: float = 0.1

    def __post_init__(self) -> None:
        # A bool passes every numeric check below; the float parameters
        # reject it, and momentum does so with its integer rule.
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is float and isinstance(value, bool):
                raise ValueError(f"{f.name} {value!r} must be a number, not a bool")
        # Each range check is written so that NaN fails it.
        weights = (self.w_accuracy, self.w_energy, self.w_latency)
        for name, w in zip(("w_accuracy", "w_energy", "w_latency"), weights):
            if not (0 <= w <= sys.float_info.max):  # a huge int fails too
                raise ValueError(f"{name} must be finite and non-negative, got {w}")
        if not any(w > 0 for w in weights):
            raise ValueError("at least one knob weight must be positive")
        if not (0.0 <= self.accuracy_threshold <= 1.0):
            raise ValueError(
                f"accuracy_threshold {self.accuracy_threshold} outside [0, 1]"
            )
        if isinstance(self.momentum, (bool, float)):  # a deque needs an int
            raise ValueError(f"momentum {self.momentum!r} must be an integer")
        if self.momentum < 1:
            raise ValueError(f"momentum {self.momentum} must be >= 1")
        if self.momentum > sys.maxsize:  # a deque's maxlen is a C ssize_t
            raise ValueError(f"momentum {self.momentum} must be <= {sys.maxsize}")
        check_distance_threshold(self.distance_threshold, "distance_threshold")
        bucket_count(self.bucket_width, "bucket_width")  # checks the width rule

    def params(self) -> dict[str, float | int]:
        """The seven scheduler parameters, in sweep order."""
        return asdict(self)

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> SchedulerConfig:
        """Inverse of `params()`: momentum must be an integral number, the
        rest numbers.  Keys other than the seven parameters are ignored, and
        a boolean, a string or a fractional momentum fails naming its
        parameter."""
        return cls(**{
            name: (json_int if type(default) is int else json_float)(params, name)
            for name, default in cls().params().items()
        })


@dataclass(frozen=True)
class NormalizedCosts:
    """Inverted min-max scores per profiled pair: cheapest pair scores 1."""

    energy_score: Mapping[Pair, float]
    latency_score: Mapping[Pair, float]


@dataclass(frozen=True)
class Decision:
    pair: Pair
    rescheduled: bool
    # min(frame NCC, box NCC); 0 with no previous frame or no frame, and None
    # when a term was skipped because it could not change the decision.
    similarity: float | None
    scores: Mapping[Pair, float] = field(default_factory=dict)
    predictions: tuple[Prediction, ...] = ()
    # True when no predicted model with a profiled pair met the accuracy
    # threshold, so every one of them was a candidate.
    valid_fallback: bool = False


def normalize_costs(catalog: Catalog) -> NormalizedCosts:
    """Precompute bigger-is-better energy/latency scores for every pair.

    A degenerate axis (single pair, or all values equal) scores 1 for
    everyone rather than dividing by zero.
    """
    pairs = catalog.profiled_pairs()
    if not pairs:
        raise ValueError("catalog has no profiled pairs to normalize")

    def axis(values: dict[Pair, float]) -> dict[Pair, float]:
        lo, hi = min(values.values()), max(values.values())
        if hi <= lo:
            return {p: 1.0 for p in values}
        return {p: 1.0 - (v - lo) / (hi - lo) for p, v in values.items()}

    return NormalizedCosts(
        energy_score=axis({p: catalog.profiles[p].avg_energy_j for p in pairs}),
        latency_score=axis({p: catalog.profiles[p].avg_latency_s for p in pairs}),
    )


def update_momentum(
    buffers: dict[ModelId, deque[float]],
    predictions: tuple[Prediction, ...],
    momentum: int,
) -> dict[ModelId, float]:
    """Append predictions to per-model windows and return the window means."""
    averages: dict[ModelId, float] = {}
    for pred in predictions:
        buf = buffers.get(pred.model)
        if buf is None:
            buf = buffers[pred.model] = deque(maxlen=momentum)
        buf.append(pred.accuracy)
        averages[pred.model] = sum(buf) / len(buf)
    return averages


class SchedulerState:
    """Mutable per-stream scheduling state (single-owner, not thread-safe)."""

    def __init__(
        self,
        catalog: Catalog,
        prediction_map: PredictionMap,
        config: SchedulerConfig | None = None,
        *,
        memo: dict[tuple, float] | None = None,
    ) -> None:
        self.prediction_map = prediction_map
        self.config = config if config is not None else SchedulerConfig()
        # Each profiled model's (pair, weighted energy, weighted latency), in
        # sorted pair order.  The two products stay apart: a score adds them
        # in the order of the docstring's formula, so it rounds the same.
        costs = normalize_costs(catalog)
        cfg = self.config
        latency = costs.latency_score
        terms: dict[ModelId, list[tuple[Pair, float, float]]] = {}
        for pair, energy in costs.energy_score.items():
            terms.setdefault(pair[0], []).append(
                (pair, energy * cfg.w_energy, latency[pair] * cfg.w_latency)
            )
        self.terms = {model: tuple(pairs) for model, pairs in terms.items()}
        self.buffers: dict[ModelId, deque[float]] = {}
        # Frame and box NCC terms keyed by what they compare, shared by every
        # state replaying the same trace.  Without one nothing is kept, so a
        # long stream accumulates nothing.
        self.memo = memo
        # The last frame seen, its own detection, and its FrameStats when the
        # last call computed them (with a memo, None after a hit or a skip).
        self._last_image: GrayscaleImage | None = None
        self._last_box: BoundingBox | None = None
        self._last_stats: FrameStats | None = None
        # The last box patch this state built, which the next box term
        # reuses when it compares against that same frame and box.
        self._last_patch = LastPatch()

    def bootstrap(self) -> Decision:
        """Choose the starting pair before the first frame.

        With no previous frame the similarity is 0, so this is a full
        scheduling pass seeded with each model's own expected accuracy at
        its highest populated confidence bucket.
        """
        pm = self.prediction_map
        seeds = []
        for model in pm.models():
            top = pm.populated_buckets(model)[-1]
            own = next(p for p in pm.entries[(model, top)] if p.model == model)
            seeds.append(Prediction(model=model, accuracy=own.accuracy, distance=0.0))
        return self._select(tuple(seeds), 0.0)

    def _context(
        self, frame: GrayscaleImage, box: BoundingBox | None, confidence: float
    ) -> float | None:
        """min(frame NCC, box NCC) of `frame` against the last frame, or None
        when that min times `confidence` falls below the accuracy threshold
        whatever the skipped terms read; then make `frame` and `box` the
        last ones."""
        prev, prev_box, prev_stats = self._last_image, self._last_box, self._last_stats
        if prev is not None and prev.pixels.shape != frame.pixels.shape:
            raise ValueError(
                f"image dimensions differ: {prev.pixels.shape} vs {frame.pixels.shape}"
            )
        memo = self.memo
        # Without a memo every frame's stats are built in its own call, so no
        # call builds two frames' stats; with one, only on a miss.
        cur_stats = FrameStats(frame.pixels) if memo is None else None
        self._last_image, self._last_box, self._last_stats = frame, box, cur_stats
        if prev is None:
            return 0.0
        # The similarity is at most 1 and min(frame, box) <= box, so each
        # None below is returned only when the decision is a full pass.
        threshold = self.config.accuracy_threshold
        if confidence < threshold:
            return None
        box_term = 0.0
        if box is not None and prev_box is not None:
            patch = self._last_patch
            if memo is None:
                box_term = bbox_similarity(prev, prev_box, frame, box, patch)
            else:
                key: tuple = (prev, frame, prev_box, box)
                box_term = memo.get(key)
                if box_term is None:
                    box_term = memo[key] = bbox_similarity(
                        prev, prev_box, frame, box, patch
                    )
        if box_term * confidence < threshold:
            return None
        if memo is None:
            frame_term = ncc_cached(prev_stats, cur_stats)
        else:
            key = (prev, frame)
            frame_term = memo.get(key)
            if frame_term is None:
                self._last_stats = cur_stats = FrameStats(frame.pixels)
                if prev_stats is None:
                    prev_stats = FrameStats(prev.pixels)
                frame_term = memo[key] = ncc_cached(prev_stats, cur_stats)
        return min(frame_term, box_term)

    def _select(
        self, predictions: tuple[Prediction, ...], similarity: float | None
    ) -> Decision:
        """The full scheduling pass: momentum, then the valid set among the
        predicted models that have a profiled pair, then the argmax.  Models
        and their pairs are visited in sorted order and only a strictly
        higher score replaces the best, so the smallest of tied pairs wins."""
        cfg = self.config
        terms = self.terms
        averages = update_momentum(self.buffers, predictions, cfg.momentum)
        profiled = [m for m in averages if m in terms]
        if not profiled:
            raise ValueError("no profiled (model, accelerator) pair among predictions")
        threshold = cfg.accuracy_threshold
        valid = [m for m in profiled if averages[m] >= threshold]
        w_accuracy = cfg.w_accuracy
        scores: dict[Pair, float] = {}
        top, best = -math.inf, None
        for model in sorted(valid or profiled):
            accuracy = averages[model] * w_accuracy
            for pair, energy, latency in terms[model]:
                score = scores[pair] = accuracy + energy + latency
                if score > top:
                    top, best = score, pair
        return Decision(best, True, similarity, scores, predictions, not valid)


def schedule(
    state: SchedulerState,
    pair: Pair,
    confidence: float,
    frame: GrayscaleImage | None = None,
    box: BoundingBox | None = None,
) -> Decision:
    """Decide the pair for this frame given the incumbent pair's outcome.

    `confidence` and `box` are the incumbent model's result on `frame`; a
    frame with no detection passes confidence 0 and no box, which forces a
    full scheduling pass at any positive accuracy threshold.
    """
    if not (0.0 <= confidence <= 1.0):
        raise ValueError(f"confidence {confidence} outside [0, 1]")
    cfg = state.config
    # A call without a frame scores 0 and leaves the last frame and its own
    # box in place for the next call to compare against.
    sim_score = 0.0 if frame is None else state._context(frame, box, confidence)

    if sim_score is not None and sim_score * confidence >= cfg.accuracy_threshold:
        return Decision(pair=pair, rescheduled=False, similarity=sim_score)
    return state._select(predict(state.prediction_map, pair[0], confidence), sim_score)
