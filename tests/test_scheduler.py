from __future__ import annotations

from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_catalog, make_profile
from odsched.catalog import (
    Accelerator,
    BoundingBox,
    Catalog,
    CharacterizationTrace,
    DetectionOutcome,
    FrameRecord,
)
from odsched.confidence_graph import Bucket, GraphNode, Prediction, PredictionMap, predict
from odsched.images import GrayscaleImage
from odsched.scheduler import (
    Decision,
    Knobs,
    SchedulerConfig,
    SchedulerState,
    best_pair,
    normalize_costs,
    schedule,
    score_candidates,
    update_momentum,
    valid_set,
)


def make_pm(
    model_accs: dict[str, float],
    width: float = 0.1,
    threshold: float = 0.5,
    bucket: int = 5,
    cross_distance: float = 0.1,
) -> PredictionMap:
    """One populated bucket per model; every entry predicts all models."""
    models = sorted(model_accs)
    nodes = {
        (m, bucket): GraphNode(
            bucket=Bucket(m, bucket, round(bucket * width, 9), round((bucket + 1) * width, 9)),
            expected_accuracy=model_accs[m],
            sample_count=1,
        )
        for m in models
    }
    entries = {
        (m, bucket): tuple(
            Prediction(
                model=o,
                accuracy=model_accs[o],
                distance=0.0 if o == m else cross_distance,
            )
            for o in models
        )
        for m in models
    }
    return PredictionMap(
        bucket_width=width,
        distance_threshold=threshold,
        nodes=nodes,
        arcs={},
        entries=entries,
    )


def _image(seed: int, size: int = 32) -> GrayscaleImage:
    rng = np.random.default_rng(seed)
    return GrayscaleImage(rng.integers(0, 256, size=(size, size)).astype(float))


# ---------------------------------------------------------------------------
# knobs / config validation


def test_knobs_validation():
    with pytest.raises(ValueError, match="non-negative"):
        Knobs(-0.1, 0.5, 0.5)
    with pytest.raises(ValueError, match="positive"):
        Knobs(0.0, 0.0, 0.0)
    Knobs(0.0, 0.0, 1.0)  # one positive axis is enough
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^w_accuracy must be finite"):
            Knobs(w_accuracy=bad)
        with pytest.raises(ValueError, match="^w_energy must be finite"):
            Knobs(w_energy=bad)
        with pytest.raises(ValueError, match="^w_latency must be finite"):
            Knobs(w_latency=bad)


def test_config_validation():
    with pytest.raises(ValueError):
        SchedulerConfig(accuracy_threshold=1.5)
    with pytest.raises(ValueError):
        SchedulerConfig(momentum=0)
    with pytest.raises(ValueError):
        SchedulerConfig(distance_threshold=-0.1)
    with pytest.raises(ValueError):
        SchedulerConfig(bucket_width=0.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="^accuracy_threshold"):
            SchedulerConfig(accuracy_threshold=bad)
        with pytest.raises(ValueError, match="^distance_threshold .* must be finite"):
            SchedulerConfig(distance_threshold=bad)
        with pytest.raises(ValueError, match="^bucket_width"):
            SchedulerConfig(bucket_width=bad)
        with pytest.raises(ValueError, match="^momentum: cannot convert"):
            SchedulerConfig.from_params({**SchedulerConfig().params(), "momentum": bad})
    # JSON scalars of the wrong type fail naming the parameter, not coerced.
    for name, bad, message in [
        ("momentum", 1.5, "must be an integer, got 1.5"),
        ("momentum", True, "must be a number, got True"),
        ("momentum", "30", "must be a number, got '30'"),
        ("w_energy", "0.5", "must be a number, got '0.5'"),
        ("bucket_width", True, "must be a number, got True"),
    ]:
        with pytest.raises(ValueError, match=f"^{name}: {message}$"):
            SchedulerConfig.from_params({**SchedulerConfig().params(), name: bad})
    assert SchedulerConfig.from_params({**SchedulerConfig().params(), "momentum": 5.0}).momentum == 5
    # stock operating defaults
    cfg = SchedulerConfig()
    assert cfg.momentum == 30
    assert cfg.accuracy_threshold == 0.25
    assert cfg.distance_threshold == 0.5
    assert (cfg.knobs.w_accuracy, cfg.knobs.w_energy, cfg.knobs.w_latency) == (1.0, 0.5, 0.5)


# ---------------------------------------------------------------------------
# cost normalization


def test_normalize_two_point_energy():
    cat = make_catalog(
        [make_profile("tiny", "gpu", 0.025, 11.2), make_profile("big", "gpu", 0.130, 15.14)]
    )
    costs = normalize_costs(cat)
    assert costs.energy_score[("tiny", "gpu")] == 1.0
    assert costs.energy_score[("big", "gpu")] == 0.0


def test_normalize_equal_energies_degenerate():
    cat = make_catalog(
        [
            make_profile("a", "gpu", 0.1, 10.0),
            make_profile("b", "gpu", 0.2, 5.0),
            make_profile("c", "gpu", 0.5, 2.0),
        ]
    )
    costs = normalize_costs(cat)
    assert all(v == 1.0 for v in costs.energy_score.values())
    # latencies {0.1, 0.2, 0.5} still spread normally
    assert costs.latency_score[("a", "gpu")] == 1.0
    assert costs.latency_score[("b", "gpu")] == 0.75
    assert costs.latency_score[("c", "gpu")] == 0.0


def test_normalize_three_point_latency():
    cat = make_catalog(
        [
            make_profile("tiny", "gpu", 0.025, 11.2),
            make_profile("big", "gpu", 0.130, 15.14),
            make_profile("big", "oakd", 0.894, 1.56),
        ]
    )
    costs = normalize_costs(cat)
    assert costs.latency_score[("tiny", "gpu")] == 1.0
    assert costs.latency_score[("big", "gpu")] == pytest.approx(
        1.0 - (0.130 - 0.025) / (0.894 - 0.025)
    )
    assert costs.latency_score[("big", "oakd")] == 0.0


def test_normalize_single_pair():
    cat = make_catalog([make_profile("a", "gpu", 0.1, 10.0)])
    costs = normalize_costs(cat)
    assert costs.energy_score[("a", "gpu")] == 1.0
    assert costs.latency_score[("a", "gpu")] == 1.0


def test_normalize_catalog_without_profiles_rejected():
    cat = make_catalog([make_profile("a", "gpu", 0.1, 10.0)])
    with pytest.raises(ValueError, match="no profiled pairs"):
        normalize_costs(replace(cat, profiles={}))


# ---------------------------------------------------------------------------
# valid set and momentum


def test_valid_set_filter():
    assert valid_set({"a": 0.6, "b": 0.2}, 0.5) == {"a"}


def test_valid_set_falls_back_to_all():
    assert valid_set({"a": 0.1, "b": 0.2}, 0.5) == {"a", "b"}


def test_valid_set_boundary_inclusive():
    assert valid_set({"a": 0.5}, 0.5) == {"a"}


def test_valid_set_and_best_pair_reject_empty_input():
    with pytest.raises(ValueError, match="no averaged predictions"):
        valid_set({}, 0.5)
    with pytest.raises(ValueError, match="no candidate pairs"):
        best_pair({})


def _preds(**accs: float) -> tuple[Prediction, ...]:
    return tuple(Prediction(model=m, accuracy=a, distance=0.0) for m, a in accs.items())


def test_momentum_window_of_one():
    buffers: dict[str, deque] = {}
    update_momentum(buffers, _preds(a=0.3), 1)
    r = update_momentum(buffers, _preds(a=0.9), 1)
    assert r == {"a": 0.9}


def test_momentum_mean():
    buffers: dict[str, deque] = {}
    for v in (0.3, 0.6, 0.9):
        r = update_momentum(buffers, _preds(a=v), 3)
    assert r == {"a": pytest.approx(0.6)}


def test_momentum_window_slides():
    buffers: dict[str, deque] = {}
    for v in (0.0, 0.3, 0.6, 0.9):
        r = update_momentum(buffers, _preds(a=v), 3)
    assert list(buffers["a"]) == [0.3, 0.6, 0.9]
    assert r == {"a": pytest.approx(0.6)}


# ---------------------------------------------------------------------------
# schedule(): branch fixtures


def _two_model_setup(threshold=0.25, knobs=Knobs(1.0, 0.0, 0.0), accs=None):
    cat = make_catalog(
        [
            make_profile("a", "cpu", 0.10, 10.0),
            make_profile("a", "gpu", 0.10, 10.0),
            make_profile("b", "gpu", 0.01, 10.0),
        ]
    )
    pm = make_pm(accs or {"a": 0.7, "b": 0.5})
    cfg = SchedulerConfig(knobs=knobs, accuracy_threshold=threshold)
    return cat, pm, SchedulerState(cat, pm, cfg)


def test_early_exit_keeps_pair_and_buffers():
    _, _, state = _two_model_setup()
    img = _image(0)
    box = BoundingBox(4, 4, 20, 20)
    first = schedule(state, ("a", "gpu"), 0.9, img, box)
    assert first.rescheduled  # no previous frame, s = 0
    buffers_before = {m: list(b) for m, b in state.buffers.items()}

    second = schedule(state, first.pair, 0.9, img, box)
    assert not second.rescheduled
    assert second.pair == first.pair
    assert second.similarity == 1.0
    assert second.scores == {}
    assert second.predictions == ()
    assert {m: list(b) for m, b in state.buffers.items()} == buffers_before


def test_first_frame_always_reschedules():
    _, _, state = _two_model_setup()
    d = schedule(state, ("a", "gpu"), 1.0, _image(1), BoundingBox(0, 0, 8, 8))
    assert d.rescheduled and d.similarity == 0.0


def test_argmax_with_accuracy_knob_only():
    _, _, state = _two_model_setup()
    d = schedule(state, ("a", "gpu"), 0.1)  # no frame: s = 0, full pass
    # R = {a: 0.7, b: 0.5}; scores: a pairs 0.7, b 0.5; tie a-cpu vs a-gpu
    assert d.pair == ("a", "cpu")
    assert d.scores[("a", "cpu")] == pytest.approx(0.7)
    assert d.scores[("b", "gpu")] == pytest.approx(0.5)
    assert d.pair == best_pair(d.scores)


def test_valid_set_filter_excludes_low_models():
    # b's pair is far cheaper, but b misses the 0.6 threshold
    _, _, state = _two_model_setup(threshold=0.6, knobs=Knobs(1.0, 1.0, 1.0))
    d = schedule(state, ("a", "gpu"), 0.1)
    assert d.pair[0] == "a"
    assert all(pair[0] == "a" for pair in d.scores)


def test_empty_valid_set_falls_back_to_all():
    _, _, state = _two_model_setup(threshold=0.9, knobs=Knobs(0.0, 1.0, 1.0))
    d = schedule(state, ("a", "gpu"), 0.1)
    # nobody meets 0.9; with pure cost knobs the cheap b pair wins
    assert set(d.scores) == {("a", "cpu"), ("a", "gpu"), ("b", "gpu")}
    assert d.pair == ("b", "gpu")


def test_qualifier_without_profiled_pair_falls_back_to_every_profiled_model():
    # c alone meets the threshold but has no profiled pair, so every
    # predicted model that has one is a candidate.
    cat = make_catalog(
        [make_profile("a", "gpu", 0.10, 10.0), make_profile("b", "gpu", 0.01, 10.0)]
    )
    pm = make_pm({"a": 0.3, "b": 0.2, "c": 0.9})
    cfg = SchedulerConfig(knobs=Knobs(1.0, 0.0, 0.0), accuracy_threshold=0.5)
    d = schedule(SchedulerState(cat, pm, cfg), ("b", "gpu"), 0.1)
    assert set(d.scores) == {("a", "gpu"), ("b", "gpu")}
    assert d.pair == ("a", "gpu")


@pytest.mark.parametrize(
    ("threshold", "fallback"), [(0.6, False), (0.7, False), (0.71, True), (0.9, True)]
)
def test_decision_records_valid_set_fallback(threshold, fallback):
    # Momentum averages are a 0.7 and b 0.5: a meets any threshold up to 0.7.
    _, _, state = _two_model_setup(threshold=threshold)
    d = schedule(state, ("a", "gpu"), 0.1)
    assert d.rescheduled
    assert d.valid_fallback is fallback
    assert set(d.scores) == (
        {("a", "cpu"), ("a", "gpu"), ("b", "gpu")} if fallback else {("a", "cpu"), ("a", "gpu")}
    )


def test_early_exit_records_no_valid_set_fallback():
    _, _, state = _two_model_setup(threshold=0.9)
    img, box = _image(0), BoundingBox(4, 4, 20, 20)
    assert schedule(state, ("a", "gpu"), 1.0, img, box).valid_fallback
    d = schedule(state, ("a", "gpu"), 1.0, img, box)
    assert not d.rescheduled and not d.valid_fallback


def test_qualifier_without_profiled_pair_records_valid_set_fallback():
    cat = make_catalog([make_profile("a", "gpu", 0.10, 10.0)])
    pm = make_pm({"a": 0.3, "c": 0.9})
    cfg = SchedulerConfig(accuracy_threshold=0.5)
    assert schedule(SchedulerState(cat, pm, cfg), ("a", "gpu"), 0.1).valid_fallback


def test_schedule_unknown_model_errors():
    _, _, state = _two_model_setup()
    with pytest.raises(KeyError):
        schedule(state, ("ghost", "gpu"), 0.5)


def test_schedule_rejects_bad_confidence():
    _, _, state = _two_model_setup()
    with pytest.raises(ValueError):
        schedule(state, ("a", "gpu"), 1.3)


def test_decision_deterministic_across_fresh_states():
    def run_once() -> Decision:
        _, _, state = _two_model_setup(knobs=Knobs(1.0, 0.5, 0.5))
        schedule(state, ("a", "gpu"), 0.4, _image(2), BoundingBox(1, 1, 9, 9))
        return schedule(state, ("a", "gpu"), 0.4, _image(3), BoundingBox(1, 1, 9, 9))

    d1, d2 = run_once(), run_once()
    assert d1.pair == d2.pair
    assert d1.similarity == d2.similarity
    assert dict(d1.scores) == dict(d2.scores)


def test_frameless_call_keeps_last_frame_and_its_own_box():
    from odsched.context import similarity

    _, _, state = _two_model_setup()
    img = _image(6)
    own_box, other_box = BoundingBox(2, 2, 14, 14), BoundingBox(16, 16, 30, 30)
    schedule(state, ("a", "gpu"), 0.9, img, own_box)
    schedule(state, ("a", "gpu"), 0.9, None, other_box)
    again = GrayscaleImage(img.pixels.copy())
    d = schedule(state, ("a", "gpu"), 0.9, again, own_box)
    # The box detected on the frameless call belongs to no stored frame.
    assert d.similarity == similarity(img, again, own_box, own_box) == 1.0


def test_shared_memo_matches_fresh_state():
    frames = [_image(10 + i) for i in range(3)]
    frames.append(GrayscaleImage(np.clip(frames[2].pixels + _image(13).pixels / 16, 0, 255)))
    boxes = [BoundingBox(1, 1, 12, 12)] * 4

    def similarities(state, indices=range(4)):
        return [
            schedule(state, ("a", "gpu"), 0.9, frames[i], boxes[i]).similarity
            for i in indices
        ]

    memo: dict = {}
    cat, pm, _ = _two_model_setup()
    similarities(SchedulerState(cat, pm, memo=memo), [1, 2])
    # Frame 1 misses, frame 2 hits, and frame 3 misses again: its previous
    # frame's stats were never built, so they must not come from frame 1.
    shared = similarities(SchedulerState(cat, pm, memo=memo))
    assert shared == similarities(SchedulerState(cat, pm))
    assert shared[3] > 0.5  # frame 3 is frame 2 plus noise
    assert len(memo) == 6
    assert all(type(v) is float for v in memo.values())


def test_state_without_memo_keeps_no_per_frame_container(builtin, demo_trace):
    from odsched.confidence_graph import build_prediction_map

    state = SchedulerState(builtin, build_prediction_map(demo_trace))
    pair = state.bootstrap().pair

    def sizes():
        return {k: len(v) for k, v in vars(state).items() if hasattr(v, "__len__")}

    for i, fr in enumerate(demo_trace.frames):
        out = fr.per_model.get(pair[0])
        conf = out.confidence if out is not None else 0.0
        box = out.box if out is not None else None
        pair = schedule(state, pair, conf, fr.frame, box).pair
        if i == 1:
            early = sizes()
    assert state.memo is None
    assert sizes() == early
    assert all(len(b) <= state.config.momentum for b in state.buffers.values())


def test_frame_size_change_propagates_error():
    _, _, state = _two_model_setup()
    schedule(state, ("a", "gpu"), 0.5, _image(4, 32), None)
    with pytest.raises(ValueError, match="differ"):
        schedule(state, ("a", "gpu"), 0.5, _image(5, 16), None)


# ---------------------------------------------------------------------------
# bootstrap


def test_bootstrap_seeds_from_top_bucket_and_scores():
    cat = make_catalog(
        [make_profile("a", "gpu", 0.10, 10.0), make_profile("b", "gpu", 0.01, 10.0)]
    )
    # a populated at buckets 2 (acc .2) and 8 (acc .75); b at bucket 5 (.5)
    width = 0.1
    def node(m, i, acc):
        return GraphNode(
            bucket=Bucket(m, i, round(i * width, 9), round((i + 1) * width, 9)),
            expected_accuracy=acc,
            sample_count=1,
        )
    nodes = {("a", 2): node("a", 2, 0.2), ("a", 8): node("a", 8, 0.75), ("b", 5): node("b", 5, 0.5)}
    entries = {
        ("a", 2): (Prediction("a", 0.2, 0.0),),
        ("a", 8): (Prediction("a", 0.75, 0.0),),
        ("b", 5): (Prediction("b", 0.5, 0.0),),
    }
    pm = PredictionMap(bucket_width=width, distance_threshold=0.5, nodes=nodes, arcs={}, entries=entries)
    state = SchedulerState(cat, pm, SchedulerConfig(knobs=Knobs(1.0, 0.0, 0.0)))
    d = state.bootstrap()
    assert d.rescheduled and d.similarity == 0.0
    # seeds: a -> 0.75 (top bucket 8), b -> 0.5
    assert list(state.buffers["a"]) == [0.75]
    assert list(state.buffers["b"]) == [0.5]
    assert d.pair == ("a", "gpu")
    assert d.scores == {("a", "gpu"): 0.75, ("b", "gpu"): 0.5}


@pytest.mark.parametrize(("threshold", "fallback"), [(0.75, False), (0.76, True)])
def test_bootstrap_records_valid_set_fallback(threshold, fallback):
    _, pm, _ = _two_model_setup(accs={"a": 0.75, "b": 0.5})
    cat = make_catalog(
        [make_profile("a", "gpu", 0.10, 10.0), make_profile("b", "gpu", 0.01, 10.0)]
    )
    d = SchedulerState(cat, pm, SchedulerConfig(accuracy_threshold=threshold)).bootstrap()
    assert d.rescheduled and d.valid_fallback is fallback


# ---------------------------------------------------------------------------
# randomized score properties (small; the acceptance suite runs 1000)


def _random_problem(rng: np.random.Generator):
    n_models = int(rng.integers(2, 5))
    models = [f"m{i}" for i in range(n_models)]
    profiles = []
    for i, m in enumerate(models):
        for accel in ("gpu", "dla")[: int(rng.integers(1, 3))]:
            profiles.append(
                make_profile(m, accel, float(rng.uniform(0.01, 1.0)), float(rng.uniform(1.0, 20.0)))
            )
    cat = make_catalog(profiles)
    averages = {m: float(rng.uniform(0, 1)) for m in models}
    return cat, averages


def test_argmax_scale_invariance_randomized():
    rng = np.random.default_rng(20)
    for _ in range(200):
        cat, averages = _random_problem(rng)
        costs = normalize_costs(cat)
        knobs = Knobs(*(float(rng.uniform(0.01, 2.0)) for _ in range(3)))
        lam = float(rng.uniform(0.1, 10.0))
        scaled = Knobs(knobs.w_accuracy * lam, knobs.w_energy * lam, knobs.w_latency * lam)
        valid = set(averages)
        base = best_pair(score_candidates(averages, valid, costs, knobs))
        assert base == best_pair(score_candidates(averages, valid, costs, scaled))


def test_knob_axis_dominance_randomized():
    rng = np.random.default_rng(21)
    for _ in range(200):
        cat, averages = _random_problem(rng)
        costs = normalize_costs(cat)
        valid = set(averages)

        chosen = best_pair(score_candidates(averages, valid, costs, Knobs(0, 1, 0)))
        assert costs.energy_score[chosen] == max(costs.energy_score.values())

        chosen = best_pair(score_candidates(averages, valid, costs, Knobs(0, 0, 1)))
        assert costs.latency_score[chosen] == max(costs.latency_score.values())

        chosen = best_pair(score_candidates(averages, valid, costs, Knobs(1, 0, 0)))
        assert averages[chosen[0]] == max(averages.values())


_TIE_PAIRS = st.tuples(st.sampled_from("abc"), st.sampled_from(("dla", "gpu")))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.dictionaries(_TIE_PAIRS, st.sampled_from((0.0, -0.0, 0.5, 1.0, 1.5)), min_size=1))
@example({("b", "gpu"): 0.0, ("a", "gpu"): -0.0})
@example({("b", "gpu"): -0.0, ("a", "gpu"): 0.0})
def test_best_pair_matches_keyed_min(scores):
    # Few distinct values force exact ties, 0.0 against -0.0 among them.
    assert best_pair(scores) == min(scores, key=lambda p: (-scores[p], p))


def _score_sorted_pairs(averages, valid, costs, knobs, catalog):
    """Scoring as a loop over the catalog's sorted pairs."""
    scores = {}
    for pair in catalog.profiled_pairs():
        model = pair[0]
        if model not in valid or model not in averages:
            continue
        scores[pair] = (
            averages[model] * knobs.w_accuracy
            + costs.energy_score[pair] * knobs.w_energy
            + costs.latency_score[pair] * knobs.w_latency
        )
    return scores


def test_score_candidates_matches_sorted_pair_loop():
    rng = np.random.default_rng(23)
    for _ in range(200):
        cat, averages = _random_problem(rng)
        costs = normalize_costs(cat)
        knobs = Knobs(*(float(rng.choice([0.0, 0.3, 1.0, 2.5])) for _ in range(2)), 0.7)
        # Valid sets may name models with no average, and may be empty.
        valid = {m for m in [*averages, "zz"] if rng.uniform() < 0.6}
        got = score_candidates(averages, valid, costs, knobs)
        want = _score_sorted_pairs(averages, valid, costs, knobs, cat)
        assert list(got.items()) == list(want.items())


class NaiveScheduler:
    """Deliberately plain re-implementation of the per-frame algorithm,
    with its own buffers, normalization, and argmax, for differential
    testing against schedule()."""

    def __init__(self, catalog, pm, config):
        self.catalog = catalog
        self.pm = pm
        self.config = config
        pairs = catalog.profiled_pairs()

        def inverted(values):
            lo, hi = min(values), max(values)
            if hi <= lo:
                return [1.0 for _ in values]
            return [1.0 - (v - lo) / (hi - lo) for v in values]

        self.energy = dict(
            zip(pairs, inverted([catalog.profiles[p].avg_energy_j for p in pairs]))
        )
        self.latency = dict(
            zip(pairs, inverted([catalog.profiles[p].avg_latency_s for p in pairs]))
        )
        self.buffers: dict[str, list[float]] = {}
        self.prev_frame = None
        self.prev_box = None

    def _append(self, model, value):
        buf = self.buffers.setdefault(model, [])
        buf.append(value)
        if len(buf) > self.config.momentum:
            del buf[: len(buf) - self.config.momentum]

    def _pass(self, predictions):
        averages = {}
        for p in predictions:
            self._append(p.model, p.accuracy)
            buf = self.buffers[p.model]
            averages[p.model] = sum(buf) / len(buf)
        # The README's candidate rule: the predicted models that have a
        # profiled pair and meet the threshold, or all of them when none does.
        pairs = self.catalog.profiled_pairs()
        profiled = {m for m in averages if any(p[0] == m for p in pairs)}
        meeting = {m for m in profiled if averages[m] >= self.config.accuracy_threshold}
        if not meeting:
            meeting = profiled
        knobs = self.config.knobs
        best = None
        best_score = None
        for pair in pairs:
            if pair[0] not in meeting:
                continue
            score = (
                averages[pair[0]] * knobs.w_accuracy
                + self.energy[pair] * knobs.w_energy
                + self.latency[pair] * knobs.w_latency
            )
            if best_score is None or score > best_score:
                best, best_score = pair, score
        return best

    def bootstrap(self):
        from odsched.confidence_graph import Prediction as P

        seeds = []
        for model in sorted({m for m, _ in self.pm.nodes}):
            top = max(i for m, i in self.pm.nodes if m == model)
            own = [p for p in self.pm.entries[(model, top)] if p.model == model][0]
            seeds.append(P(model=model, accuracy=own.accuracy, distance=0.0))
        return self._pass(seeds)

    def step(self, pair, confidence, frame, box):
        from odsched.confidence_graph import predict
        from odsched.context import similarity

        if self.prev_frame is None or frame is None:
            s = 0.0
        else:
            s = similarity(self.prev_frame, frame, self.prev_box, box)
        if frame is not None:
            self.prev_frame = frame
            self.prev_box = box
        if s * confidence >= self.config.accuracy_threshold:
            return pair, False
        return self._pass(predict(self.pm, pair[0], confidence)), True


@pytest.mark.parametrize(
    "config",
    [
        SchedulerConfig(),
        SchedulerConfig(
            knobs=Knobs(0.5, 1.5, 0.25), accuracy_threshold=0.8, momentum=5
        ),
        SchedulerConfig(knobs=Knobs(2.0, 0.0, 0.0), distance_threshold=0.2),
    ],
)
def test_schedule_matches_naive_reimplementation(builtin, demo_trace, config):
    from odsched.confidence_graph import build_prediction_map

    pm = build_prediction_map(demo_trace, config.bucket_width, config.distance_threshold)

    state = SchedulerState(builtin, pm, config)
    naive = NaiveScheduler(builtin, pm, config)
    pair = state.bootstrap().pair
    naive_pair = naive.bootstrap()
    assert pair == naive_pair

    for fr in demo_trace.frames:
        out = fr.per_model.get(pair[0])
        conf = out.confidence if out is not None else 0.0
        box = out.box if out is not None else None
        decision = schedule(state, pair, conf, fr.frame, box)
        expected_pair, expected_resched = naive.step(pair, conf, fr.frame, box)
        assert decision.pair == expected_pair, fr.frame_index
        assert decision.rescheduled == expected_resched, fr.frame_index
        pair = decision.pair


_ACCELERATORS = ("dla", "gpu")
_UNIT = st.floats(0.0, 1.0)


@st.composite
def _streams(draw):
    """A small catalog in which some trace models have no profiled pair, a
    trace over those models with or without frames, and a configuration."""
    models = [f"m{i}" for i in range(draw(st.integers(2, 4)))]
    profiled = draw(st.sets(st.sampled_from(models), min_size=1))
    profiles = [
        make_profile(m, a, draw(st.floats(0.01, 1.0)), draw(st.floats(1.0, 20.0)))
        for m in sorted(profiled)
        for a in sorted(draw(st.sets(st.sampled_from(_ACCELERATORS), min_size=1)))
    ]
    catalog = Catalog(
        accelerators={a: Accelerator(a, 10**9, a == "gpu") for a in _ACCELERATORS},
        models=tuple(models),
        compatibility=frozenset((m, a) for m in models for a in _ACCELERATORS),
        profiles={p.pair: p for p in profiles},
    )

    with_frames = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    images = [GrayscaleImage(rng.integers(0, 256, (16, 16)).astype(np.uint8)) for _ in range(2)]
    outcome = st.tuples(_UNIT, _UNIT)
    # The first frame has every model, so every model has a graph node.
    rows = [draw(st.lists(outcome, min_size=len(models), max_size=len(models)))]
    rows += draw(st.lists(
        st.lists(st.one_of(st.none(), outcome), min_size=len(models), max_size=len(models)),
        min_size=1, max_size=24,
    ))
    frames = []
    for i, row in enumerate(rows):
        x = draw(st.sampled_from((0, 4)))
        per_model = {
            m: DetectionOutcome(*o, BoundingBox(x, 2, x + 10, 12) if o[1] > 0 else None)
            for m, o in zip(models, row)
            if o is not None
        }
        image = images[draw(st.integers(0, 1))] if with_frames else None
        frames.append(FrameRecord(i, per_model, frame=image))

    knobs = draw(st.tuples(*[st.sampled_from((0.0, 0.5, 1.0, 2.0))] * 3))
    config = SchedulerConfig(
        knobs=Knobs(*knobs) if any(knobs) else Knobs(),
        accuracy_threshold=draw(_UNIT),
        momentum=draw(st.integers(1, 4)),
        distance_threshold=draw(st.sampled_from((0.0, 0.3, 1.0))),
        bucket_width=draw(st.sampled_from((0.1, 0.25, 0.5))),
    )
    return catalog, CharacterizationTrace(tuple(frames)), config


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_streams())
def test_schedule_matches_naive_on_random_streams(stream):
    from odsched.confidence_graph import build_prediction_map

    catalog, trace, config = stream
    pm = build_prediction_map(trace, config.bucket_width, config.distance_threshold)
    state = SchedulerState(catalog, pm, config)
    naive = NaiveScheduler(catalog, pm, config)
    pair = state.bootstrap().pair
    assert pair == naive.bootstrap()
    for fr in trace.frames:
        out = fr.per_model.get(pair[0])
        conf = out.confidence if out is not None else 0.0
        box = out.box if out is not None else None
        decision = schedule(state, pair, conf, fr.frame, box)
        assert (decision.pair, decision.rescheduled) == naive.step(pair, conf, fr.frame, box)
        pair = decision.pair


# Few distinct values make costs, averages and scores tie; free floats make
# sums whose rounding depends on the order of their terms.
_TIE_OR_FREE = st.one_of(st.sampled_from((0.0, 0.25, 0.5, 1.0)), _UNIT)


@st.composite
def _frameless_streams(draw):
    """A catalog with tied costs, a prediction map whose entries list models
    out of order and include models with no profiled pair, a configuration,
    and the confidences of a run of frameless schedule() calls."""
    models = [f"m{i}" for i in range(draw(st.integers(2, 5)))]
    profiled = sorted(draw(st.sets(st.sampled_from(models), min_size=1)))
    profiles = [
        make_profile(
            m,
            a,
            draw(st.one_of(st.sampled_from((0.1, 0.2)), st.floats(0.01, 1.0))),
            draw(st.one_of(st.just(10.0), st.floats(1.0, 20.0))),
        )
        for m in profiled
        for a in sorted(draw(st.sets(st.sampled_from(("cpu", *_ACCELERATORS)), min_size=1)))
    ]
    width = 0.25
    nodes, entries = {}, {}
    for m in models:
        for i in draw(st.sets(st.integers(0, 3), min_size=1)):
            nodes[(m, i)] = GraphNode(Bucket(m, i, i * width, (i + 1) * width), 0.5, 1)
            # The node's own model, others, and at least one profiled model.
            named = {m, draw(st.sampled_from(profiled)), *draw(st.sets(st.sampled_from(models)))}
            entries[(m, i)] = tuple(
                Prediction(o, draw(_TIE_OR_FREE), 0.0)
                for o in draw(st.permutations(sorted(named)))
            )
    pm = PredictionMap(width, 0.5, nodes, {}, entries)
    weight = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.01, 2.0))
    knobs = draw(st.tuples(weight, weight, weight))
    config = SchedulerConfig(
        knobs=Knobs(*knobs) if any(knobs) else Knobs(),
        # 1.0 forces the fallback unless an average is exactly 1.  A positive
        # threshold makes every frameless call a full pass.
        accuracy_threshold=draw(st.one_of(st.sampled_from((0.5, 1.0)), st.floats(0.01, 1.0))),
        momentum=draw(st.integers(1, 5)),
    )
    confidences = draw(st.lists(_UNIT, min_size=1, max_size=12))
    return make_catalog(profiles), pm, config, confidences


def _helper_pass(buffers, predictions, catalog, config):
    """The full pass composed from the public helpers, one step at a time."""
    averages = update_momentum(buffers, predictions, config.momentum)
    profiled = {m: r for m, r in averages.items() if any(p[0] == m for p in catalog.profiles)}
    valid = valid_set(profiled, config.accuracy_threshold)
    scores = score_candidates(averages, valid, normalize_costs(catalog), config.knobs)
    fallback = not any(r >= config.accuracy_threshold for r in profiled.values())
    return best_pair(scores), scores, fallback


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_frameless_streams())
def test_full_pass_matches_helper_composition(stream):
    catalog, pm, config, confidences = stream
    state = SchedulerState(catalog, pm, config)
    buffers: dict[str, deque] = {}
    decision = state.bootstrap()
    for confidence in [None, *confidences]:
        if confidence is not None:
            # Frameless calls score similarity 0, so each one is a full pass.
            buffers = {m: deque(b, maxlen=b.maxlen) for m, b in state.buffers.items()}
            predictions = predict(pm, decision.pair[0], confidence)
            decision = schedule(state, decision.pair, confidence)
            assert decision.rescheduled and decision.predictions == predictions
        pair, scores, fallback = _helper_pass(buffers, decision.predictions, catalog, config)
        assert decision.pair == pair
        assert list(decision.scores.items()) == list(scores.items())
        assert decision.valid_fallback is fallback
        assert state.buffers == buffers


def test_valid_set_soundness_randomized():
    # whenever any model clears the threshold, the chosen pair's model does
    rng = np.random.default_rng(22)
    for _ in range(200):
        cat, averages = _random_problem(rng)
        costs = normalize_costs(cat)
        threshold = float(rng.uniform(0, 1))
        knobs = Knobs(*(float(rng.uniform(0.01, 2)) for _ in range(3)))
        valid = valid_set(averages, threshold)
        chosen = best_pair(score_candidates(averages, valid, costs, knobs))
        if max(averages.values()) >= threshold:
            assert averages[chosen[0]] >= threshold
