from __future__ import annotations

import sys
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_catalog, make_pm, make_profile, two_model_setup
from odsched.catalog import (
    Accelerator,
    BoundingBox,
    Catalog,
    CharacterizationTrace,
    DetectionOutcome,
    FrameRecord,
)
from odsched.confidence_graph import GraphNode, Prediction, PredictionMap
from odsched.images import GrayscaleImage
from odsched.scheduler import (
    Decision,
    SchedulerConfig,
    SchedulerState,
    normalize_costs,
    schedule,
    update_momentum,
)
from odsched.sim import PARAM_ORDER
from reference import NaiveScheduler, best_pair, score_candidates, similarity, valid_set


def _image(seed: int, size: int = 32) -> GrayscaleImage:
    rng = np.random.default_rng(seed)
    return GrayscaleImage(rng.integers(0, 256, size=(size, size)).astype(float))


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError, match="non-negative"):
        SchedulerConfig(w_accuracy=-0.1)
    with pytest.raises(ValueError, match="positive"):
        SchedulerConfig(w_accuracy=0.0, w_energy=0.0, w_latency=0.0)
    SchedulerConfig(w_accuracy=0.0, w_energy=0.0, w_latency=1.0)  # one positive axis is enough
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^w_accuracy must be finite"):
            SchedulerConfig(w_accuracy=bad)
        with pytest.raises(ValueError, match="^w_energy must be finite"):
            SchedulerConfig(w_energy=bad)
        with pytest.raises(ValueError, match="^w_latency must be finite"):
            SchedulerConfig(w_latency=bad)
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
    assert (cfg.w_accuracy, cfg.w_energy, cfg.w_latency) == (1.0, 0.5, 0.5)


def test_config_rejects_values_the_run_cannot_hold():
    # A deque's maxlen is a C ssize_t, and 1 / width must be finite.
    SchedulerConfig(momentum=sys.maxsize)
    with pytest.raises(ValueError, match=f"^momentum {2**63} must be <= {sys.maxsize}$"):
        SchedulerConfig(momentum=2**63)
    with pytest.raises(ValueError, match="^momentum 0 must be >= 1$"):
        SchedulerConfig(momentum=0)
    # A deque's maxlen must be an int: a float or a bool fails here, not at
    # the run's bootstrap, and a numpy int is an int.
    for bad in (2.5, 2.0, True):
        with pytest.raises(ValueError, match=f"^momentum {bad!r} must be an integer$"):
            SchedulerConfig(momentum=bad)
    assert SchedulerConfig(momentum=np.int64(3)).momentum == 3
    with pytest.raises(ValueError, match="^bucket_width 5e-324 too narrow: 1 / width overflows$"):
        SchedulerConfig(bucket_width=5e-324)
    # A bool passes the range checks as 0 or 1, and a report would carry it
    # as true or false; every float parameter rejects it.
    for name in ("w_accuracy", "w_energy", "w_latency", "accuracy_threshold",
                 "distance_threshold", "bucket_width"):
        for bad in (True, False):
            with pytest.raises(ValueError, match=f"^{name} {bad} must be a number, not a bool$"):
                SchedulerConfig(**{name: bad})


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.builds(
        lambda weights, **rest: SchedulerConfig(*weights, **rest),
        st.tuples(*[st.floats(0.0, sys.float_info.max)] * 3).filter(any),
        accuracy_threshold=st.floats(0.0, 1.0),
        momentum=st.integers(1, sys.maxsize),
        distance_threshold=st.floats(0.0, sys.float_info.max),
        bucket_width=st.floats(1e-300, 1.0),
    )
)
def test_params_round_trip_in_sweep_order(cfg):
    assert tuple(cfg.params()) == PARAM_ORDER
    assert SchedulerConfig.from_params(cfg.params()) == cfg


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
# schedule(): branches


def test_early_exit_keeps_pair_and_buffers():
    _, _, state = two_model_setup()
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
    _, _, state = two_model_setup()
    d = schedule(state, ("a", "gpu"), 1.0, _image(1), BoundingBox(0, 0, 8, 8))
    assert d.rescheduled and d.similarity == 0.0


def test_argmax_with_accuracy_knob_only():
    _, _, state = two_model_setup()
    d = schedule(state, ("a", "gpu"), 0.1)  # no frame: s = 0, full pass
    # R = {a: 0.7, b: 0.5}; scores: a pairs 0.7, b 0.5; tie a-cpu vs a-gpu
    assert d.pair == ("a", "cpu")
    assert d.scores[("a", "cpu")] == pytest.approx(0.7)
    assert d.scores[("b", "gpu")] == pytest.approx(0.5)
    assert d.pair == best_pair(d.scores)


def test_valid_set_filter_excludes_low_models():
    # b's pair is far cheaper, but b misses the 0.6 threshold
    _, _, state = two_model_setup(threshold=0.6, weights=(1.0, 1.0, 1.0))
    d = schedule(state, ("a", "gpu"), 0.1)
    assert d.pair[0] == "a"
    assert all(pair[0] == "a" for pair in d.scores)


def test_empty_valid_set_falls_back_to_all():
    _, _, state = two_model_setup(threshold=0.9, weights=(0.0, 1.0, 1.0))
    d = schedule(state, ("a", "gpu"), 0.1)
    # nobody meets 0.9; with pure cost weights the cheap b pair wins
    assert set(d.scores) == {("a", "cpu"), ("a", "gpu"), ("b", "gpu")}
    assert d.pair == ("b", "gpu")


def test_qualifier_without_profiled_pair_falls_back_to_every_profiled_model():
    # c alone meets the threshold but has no profiled pair, so every
    # predicted model that has one is a candidate.
    cat = make_catalog(
        [make_profile("a", "gpu", 0.10, 10.0), make_profile("b", "gpu", 0.01, 10.0)]
    )
    pm = make_pm({"a": 0.3, "b": 0.2, "c": 0.9})
    cfg = SchedulerConfig(w_accuracy=1.0, w_energy=0.0, w_latency=0.0, accuracy_threshold=0.5)
    d = schedule(SchedulerState(cat, pm, cfg), ("b", "gpu"), 0.1)
    assert set(d.scores) == {("a", "gpu"), ("b", "gpu")}
    assert d.pair == ("a", "gpu")


@pytest.mark.parametrize(
    ("threshold", "fallback"), [(0.6, False), (0.7, False), (0.71, True), (0.9, True)]
)
def test_decision_records_valid_set_fallback(threshold, fallback):
    # Momentum averages are a 0.7 and b 0.5: a meets any threshold up to 0.7.
    _, _, state = two_model_setup(threshold=threshold)
    d = schedule(state, ("a", "gpu"), 0.1)
    assert d.rescheduled
    assert d.valid_fallback is fallback
    assert set(d.scores) == (
        {("a", "cpu"), ("a", "gpu"), ("b", "gpu")} if fallback else {("a", "cpu"), ("a", "gpu")}
    )


def test_early_exit_records_no_valid_set_fallback():
    _, _, state = two_model_setup(threshold=0.9)
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
    _, _, state = two_model_setup()
    with pytest.raises(KeyError):
        schedule(state, ("ghost", "gpu"), 0.5)


def test_schedule_rejects_bad_confidence():
    _, _, state = two_model_setup()
    with pytest.raises(ValueError):
        schedule(state, ("a", "gpu"), 1.3)


def test_decision_deterministic_across_fresh_states():
    def run_once() -> Decision:
        _, _, state = two_model_setup(weights=(1.0, 0.5, 0.5))
        schedule(state, ("a", "gpu"), 0.4, _image(2), BoundingBox(1, 1, 9, 9))
        return schedule(state, ("a", "gpu"), 0.4, _image(3), BoundingBox(1, 1, 9, 9))

    d1, d2 = run_once(), run_once()
    assert d1.pair == d2.pair
    assert d1.similarity == d2.similarity
    assert dict(d1.scores) == dict(d2.scores)


def test_frameless_call_keeps_last_frame_and_its_own_box():
    _, _, state = two_model_setup()
    img = _image(6)
    own_box, other_box = BoundingBox(2, 2, 14, 14), BoundingBox(16, 16, 30, 30)
    schedule(state, ("a", "gpu"), 0.9, img, own_box)
    schedule(state, ("a", "gpu"), 0.9, None, other_box)
    again = GrayscaleImage(img.pixels.copy())
    d = schedule(state, ("a", "gpu"), 0.9, again, own_box)
    # The box detected on the frameless call belongs to no stored frame.
    assert d.similarity == similarity(img, again, own_box, own_box) == 1.0


def test_shared_memo_matches_fresh_state():
    # Each frame is the one before plus noise, so both terms are computed on
    # every frame after the first.
    frames = [_image(10)]
    for i in range(1, 4):
        frames.append(GrayscaleImage(np.clip(frames[-1].pixels + _image(10 + i).pixels / 16, 0, 255)))
    boxes = [BoundingBox(1, 1, 12, 12)] * 4

    def similarities(state, indices=range(4)):
        return [
            schedule(state, ("a", "gpu"), 0.9, frames[i], boxes[i]).similarity
            for i in indices
        ]

    memo: dict = {}
    cat, pm, _ = two_model_setup()
    similarities(SchedulerState(cat, pm, memo=memo), [1, 2])
    # Frame 1 misses, frame 2 hits, and frame 3 misses again: its previous
    # frame's stats were never built, so they must not come from frame 1.
    shared = similarities(SchedulerState(cat, pm, memo=memo))
    assert shared == similarities(SchedulerState(cat, pm))
    assert all(s > 0.5 for s in shared[1:])
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
    _, _, state = two_model_setup()
    schedule(state, ("a", "gpu"), 0.5, _image(4, 32), None)
    with pytest.raises(ValueError, match="differ"):
        schedule(state, ("a", "gpu"), 0.5, _image(5, 16), None)


@pytest.mark.parametrize("memo", [None, {}])
@pytest.mark.parametrize(("confidence", "box"), [(0.1, BoundingBox(1, 1, 9, 9)), (0.5, None)])
def test_frame_size_change_raises_on_a_skipped_frame(memo, confidence, box):
    # At threshold 0.25, confidence 0.1 skips both terms and a missing box
    # skips the frame term; the size check still runs.
    _, _, state = two_model_setup()
    state.memo = memo
    schedule(state, ("a", "gpu"), 0.5, _image(4, 32), BoundingBox(1, 1, 9, 9))
    with pytest.raises(ValueError, match="image dimensions differ"):
        schedule(state, ("a", "gpu"), confidence, _image(5, 16), box)


@pytest.mark.parametrize("memo", [None, {}])
@pytest.mark.parametrize(
    ("threshold", "confidence", "box_seed", "calls", "similarity_known"),
    [
        (0.25, 0.2, 7, (0, 0), False),  # confidence below the threshold
        (0.25, 0.9, 8, (1, 0), False),  # box term near 0 decides alone
        (0.25, 0.9, 7, (1, 1), True),  # box term 1: the frame term decides
        (0.0, 0.0, 8, (1, 1), True),  # threshold 0 computes everything
    ],
)
def test_context_skips_the_terms_that_cannot_change_the_decision(
    monkeypatch, memo, threshold, confidence, box_seed, calls, similarity_known
):
    from odsched import scheduler

    counts = {"bbox_similarity": 0, "ncc_cached": 0}
    for name in counts:
        real = getattr(scheduler, name)

        def counting(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(scheduler, name, counting)
    _, _, state = two_model_setup(threshold=threshold)
    state.memo = memo
    box = BoundingBox(2, 2, 14, 14)
    prev = _image(7)
    # The current frame's box region is the previous frame's (box term 1)
    # or another frame's noise (box term near 0).
    cur_pixels = prev.pixels.copy()
    cur_pixels[2:14, 2:14] = _image(box_seed).pixels[2:14, 2:14]
    cur = GrayscaleImage(cur_pixels)
    schedule(state, ("a", "gpu"), 0.9, prev, box)
    d = schedule(state, ("a", "gpu"), confidence, cur, box)
    assert (counts["bbox_similarity"], counts["ncc_cached"]) == calls
    assert (d.similarity is not None) is similarity_known


@pytest.mark.parametrize("memo", [None, {}])
def test_each_frame_is_centred_at_most_once(builtin, demo_trace, monkeypatch, memo):
    from odsched import scheduler
    from odsched.confidence_graph import build_prediction_map

    centred = []
    real = scheduler.FrameStats

    def counting(pixels):
        centred.append(id(pixels))
        return real(pixels)

    monkeypatch.setattr(scheduler, "FrameStats", counting)
    state = SchedulerState(builtin, build_prediction_map(demo_trace), memo=memo)
    pair = state.bootstrap().pair
    per_call, skipped = [], 0
    for fr in demo_trace.frames:
        out = fr.per_model.get(pair[0])
        conf = out.confidence if out is not None else 0.0
        box = out.box if out is not None else None
        before = len(centred)
        decision = schedule(state, pair, conf, fr.frame, box)
        per_call.append(len(centred) - before)
        skipped += decision.similarity is None
        pair = decision.pair
    assert skipped > 0
    assert len(set(centred)) == len(centred)
    if memo is None:
        # No deferral: every call centres its own frame and no other.
        assert per_call == [1] * len(demo_trace)


def _count_patch_builds(monkeypatch) -> list:
    """Patch `context._patch`, the one box-patch builder, to record the
    (frame, box) of every patch it builds into the returned list."""
    from odsched import context

    built = []
    real = context._patch

    def counting(frame, box):
        built.append((frame, box))
        return real(frame, box)

    monkeypatch.setattr(context, "_patch", counting)
    return built


@pytest.mark.parametrize("memo", [None, {}])
def test_box_term_builds_only_the_patches_it_lacks(monkeypatch, memo):
    # At threshold 0.25: confidence 0.1 skips the box term, and so does a
    # missing box on either side; a call without a frame leaves the kept
    # patch for the next call.
    built = _count_patch_builds(monkeypatch)
    _, _, state = two_model_setup()
    state.memo = memo
    box, other = BoundingBox(2, 2, 14, 14), BoundingBox(6, 4, 20, 18)
    calls = [
        (_image(30), box, 0.9, 0),  # no previous frame
        (_image(31), box, 0.9, 2),  # the previous patch was never built
        (_image(32), other, 0.9, 1),  # the previous call built it
        (None, None, 0.9, 0),
        (_image(33), box, 0.9, 1),  # still kept across the frameless call
        (_image(34), box, 0.1, 0),  # confidence below the threshold
        (_image(35), other, 0.9, 2),
        (_image(36), None, 0.9, 0),  # no box
        (_image(37), box, 0.9, 0),  # no previous box
        (_image(38), box, 0.9, 2),
    ]
    for image, detection, confidence, builds in calls:
        before = len(built)
        schedule(state, ("a", "gpu"), confidence, image, detection)
        assert len(built) - before == builds


@pytest.mark.parametrize("memo", [None, {}])
def test_each_detection_patch_is_built_at_most_once(builtin, demo_trace, monkeypatch, memo):
    from odsched.confidence_graph import build_prediction_map

    built = _count_patch_builds(monkeypatch)
    state = SchedulerState(builtin, build_prediction_map(demo_trace), memo=memo)
    pair = state.bootstrap().pair
    threshold = state.config.accuracy_threshold
    last_box, last_built = None, False
    computed = 0
    for fr in demo_trace.frames:
        out = fr.per_model.get(pair[0])
        conf = out.confidence if out is not None else 0.0
        box = out.box if out is not None else None
        before = len(built)
        pair = schedule(state, pair, conf, fr.frame, box).pair
        new = built[before:]
        if last_box is None or box is None or conf < threshold:
            assert new == []
        else:
            computed += 1
            assert len(new) == (1 if last_built else 2)
            assert new[-1][0] is fr.frame and new[-1][1] is box
        last_box, last_built = box, bool(new)
    assert computed > 0
    keys = [(id(frame), id(box)) for frame, box in built]
    assert len(set(keys)) == len(keys)


def _assert_same_decision(got, want, confidence, threshold):
    """`got`, from `schedule()`, decides as the naive `want` does; a
    similarity `schedule()` skipped is one that could not keep the pair."""
    assert (got.pair, got.rescheduled) == (want.pair, want.rescheduled)
    assert list(got.scores.items()) == list(want.scores.items())
    assert got.predictions == want.predictions
    assert got.valid_fallback == want.valid_fallback
    if got.similarity is None:
        assert want.rescheduled and want.similarity * confidence < threshold
    else:
        assert got.similarity == want.similarity


def _context_images():
    base = _image(20, 24)
    noisy = GrayscaleImage(np.clip(base.pixels + _image(21, 24).pixels / 8, 0, 255))
    negated = GrayscaleImage(255.0 - base.pixels)
    return (base, noisy, negated, _image(22, 24), GrayscaleImage(np.full((24, 24), 100.0)))


_CONTEXT_IMAGES = _context_images()
_CONTEXT_BOXES = (
    None,
    BoundingBox(3, 3, 3, 9),  # zero area
    BoundingBox(2, 2, 14, 14),
    BoundingBox(6, 4, 20, 18),
    BoundingBox(0, 0, 24, 24),
)


@st.composite
def _context_streams(draw):
    """A threshold, a memo choice and a run of (frame, box, confidence)
    calls over similar, anti-correlated, unrelated and constant frames."""
    threshold = draw(st.one_of(st.sampled_from((0.0, 0.25, 0.5, 1.0)), _UNIT))
    unit = st.one_of(st.just(threshold), st.sampled_from((0.0, 1.0)), _UNIT)
    frame = st.one_of(st.none(), st.sampled_from(_CONTEXT_IMAGES))
    calls = draw(st.lists(
        st.tuples(frame, st.sampled_from(_CONTEXT_BOXES), unit), min_size=1, max_size=12
    ))
    memo = draw(st.sampled_from(("none", "fresh", "shared")))
    warm_threshold = draw(_UNIT)
    return threshold, calls, memo, warm_threshold


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_context_streams())
def test_schedule_matches_naive_on_context_streams(stream):
    threshold, calls, memo_kind, warm_threshold = stream
    cat, pm, state = two_model_setup(threshold=threshold, weights=(1.0, 0.5, 0.5))
    cfg = state.config
    state.memo = None if memo_kind == "none" else {}
    if memo_kind == "shared":
        # Another configuration fills part of the memo first.
        warm_cfg = replace(cfg, accuracy_threshold=warm_threshold)
        warm = SchedulerState(cat, pm, warm_cfg, memo=state.memo)
        for frame, box, confidence in calls:
            schedule(warm, ("a", "gpu"), confidence, frame, box)
    naive = NaiveScheduler(cat, pm, cfg)
    pair = ("a", "gpu")
    for frame, box, confidence in calls:
        got = schedule(state, pair, confidence, frame, box)
        _assert_same_decision(got, naive.step(pair, confidence, frame, box), confidence, threshold)
        assert {m: list(b) for m, b in state.buffers.items()} == naive.buffers
        pair = got.pair


# ---------------------------------------------------------------------------
# bootstrap


def _bootstrap_pm() -> PredictionMap:
    """a populated at buckets 2 (acc .2) and 8 (acc .75); b at bucket 5 (.5)."""
    accs = {("a", 2): 0.2, ("a", 8): 0.75, ("b", 5): 0.5}
    nodes = {key: GraphNode(acc, 1) for key, acc in accs.items()}
    entries = {key: (Prediction(key[0], acc, 0.0),) for key, acc in accs.items()}
    return PredictionMap(0.1, 0.5, nodes, {}, entries)


def test_bootstrap_seeds_from_top_bucket_and_scores():
    cat = make_catalog(
        [make_profile("a", "gpu", 0.10, 10.0), make_profile("b", "gpu", 0.01, 10.0)]
    )
    state = SchedulerState(
        cat, _bootstrap_pm(), SchedulerConfig(w_accuracy=1.0, w_energy=0.0, w_latency=0.0)
    )
    d = state.bootstrap()
    assert d.rescheduled and d.similarity == 0.0
    # seeds: a -> 0.75 (top bucket 8), b -> 0.5
    assert list(state.buffers["a"]) == [0.75]
    assert list(state.buffers["b"]) == [0.5]
    assert d.pair == ("a", "gpu")
    assert d.scores == {("a", "gpu"): 0.75, ("b", "gpu"): 0.5}


@pytest.mark.parametrize(("threshold", "fallback"), [(0.75, False), (0.76, True)])
def test_bootstrap_records_valid_set_fallback(threshold, fallback):
    _, pm, _ = two_model_setup(accs={"a": 0.75, "b": 0.5})
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
        weights = tuple(float(rng.uniform(0.01, 2.0)) for _ in range(3))
        lam = float(rng.uniform(0.1, 10.0))
        scaled = tuple(w * lam for w in weights)
        valid = set(averages)
        base = best_pair(score_candidates(averages, valid, costs, weights))
        assert base == best_pair(score_candidates(averages, valid, costs, scaled))


def test_knob_axis_dominance_randomized():
    rng = np.random.default_rng(21)
    for _ in range(200):
        cat, averages = _random_problem(rng)
        costs = normalize_costs(cat)
        valid = set(averages)

        chosen = best_pair(score_candidates(averages, valid, costs, (0, 1, 0)))
        assert costs.energy_score[chosen] == max(costs.energy_score.values())

        chosen = best_pair(score_candidates(averages, valid, costs, (0, 0, 1)))
        assert costs.latency_score[chosen] == max(costs.latency_score.values())

        chosen = best_pair(score_candidates(averages, valid, costs, (1, 0, 0)))
        assert averages[chosen[0]] == max(averages.values())


_TIE_PAIRS = st.tuples(st.sampled_from("abc"), st.sampled_from(("dla", "gpu")))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.dictionaries(_TIE_PAIRS, st.sampled_from((0.0, -0.0, 0.5, 1.0, 1.5)), min_size=1))
@example({("b", "gpu"): 0.0, ("a", "gpu"): -0.0})
@example({("b", "gpu"): -0.0, ("a", "gpu"): 0.0})
def test_best_pair_matches_keyed_min(scores):
    # Few distinct values force exact ties, 0.0 against -0.0 among them.
    assert best_pair(scores) == min(scores, key=lambda p: (-scores[p], p))


def _score_sorted_pairs(averages, valid, costs, weights, catalog):
    """Scoring as a loop over the catalog's sorted pairs."""
    w_accuracy, w_energy, w_latency = weights
    scores = {}
    for pair in catalog.profiled_pairs():
        model = pair[0]
        if model not in valid or model not in averages:
            continue
        scores[pair] = (
            averages[model] * w_accuracy
            + costs.energy_score[pair] * w_energy
            + costs.latency_score[pair] * w_latency
        )
    return scores


def test_score_candidates_matches_sorted_pair_loop():
    rng = np.random.default_rng(23)
    for _ in range(200):
        cat, averages = _random_problem(rng)
        costs = normalize_costs(cat)
        weights = (*(float(rng.choice([0.0, 0.3, 1.0, 2.5])) for _ in range(2)), 0.7)
        # Valid sets may name models with no average, and may be empty.
        valid = {m for m in [*averages, "zz"] if rng.uniform() < 0.6}
        got = score_candidates(averages, valid, costs, weights)
        want = _score_sorted_pairs(averages, valid, costs, weights, cat)
        assert list(got.items()) == list(want.items())


@pytest.mark.parametrize(
    "config",
    [
        SchedulerConfig(),
        SchedulerConfig(
            w_accuracy=0.5, w_energy=1.5, w_latency=0.25, accuracy_threshold=0.8, momentum=5
        ),
        SchedulerConfig(w_accuracy=2.0, w_energy=0.0, w_latency=0.0, distance_threshold=0.2),
    ],
)
def test_schedule_matches_naive_reimplementation(builtin, demo_trace, config):
    from odsched.confidence_graph import build_prediction_map

    pm = build_prediction_map(demo_trace, config.bucket_width, config.distance_threshold)
    _assert_replays_as_naive(builtin, pm, config, demo_trace)


def _assert_replays_as_naive(catalog, pm, config, trace):
    """Replay `trace` through `schedule()` and the naive scheduler in lock
    step, each frame's confidence and box the incumbent model's."""
    state = SchedulerState(catalog, pm, config)
    naive = NaiveScheduler(catalog, pm, config)
    first = state.bootstrap()
    _assert_same_decision(first, naive.bootstrap(), 0.0, config.accuracy_threshold)
    pair = first.pair
    for fr in trace.frames:
        out = fr.per_model.get(pair[0])
        conf = out.confidence if out is not None else 0.0
        box = out.box if out is not None else None
        decision = schedule(state, pair, conf, fr.frame, box)
        want = naive.step(pair, conf, fr.frame, box)
        _assert_same_decision(decision, want, conf, config.accuracy_threshold)
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

    weights = draw(st.tuples(*[st.sampled_from((0.0, 0.5, 1.0, 2.0))] * 3))
    config = SchedulerConfig(
        *(weights if any(weights) else (1.0, 0.5, 0.5)),
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
    _assert_replays_as_naive(catalog, pm, config, trace)


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
            nodes[(m, i)] = GraphNode(0.5, 1)
            # The node's own model, others, and at least one profiled model.
            named = {m, draw(st.sampled_from(profiled)), *draw(st.sets(st.sampled_from(models)))}
            entries[(m, i)] = tuple(
                Prediction(o, draw(_TIE_OR_FREE), 0.0)
                for o in draw(st.permutations(sorted(named)))
            )
    pm = PredictionMap(width, 0.5, nodes, {}, entries)
    weight = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.01, 2.0))
    weights = draw(st.tuples(weight, weight, weight))
    config = SchedulerConfig(
        *(weights if any(weights) else (1.0, 0.5, 0.5)),
        # 1.0 forces the fallback unless an average is exactly 1.  A positive
        # threshold makes every frameless call a full pass.
        accuracy_threshold=draw(st.one_of(st.sampled_from((0.5, 1.0)), st.floats(0.01, 1.0))),
        momentum=draw(st.integers(1, 5)),
    )
    confidences = draw(st.lists(_UNIT, min_size=1, max_size=12))
    return make_catalog(profiles), pm, config, confidences


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_frameless_streams())
def test_full_pass_matches_helper_composition(stream):
    catalog, pm, config, confidences = stream
    state = SchedulerState(catalog, pm, config)
    naive = NaiveScheduler(catalog, pm, config)
    decision, want = state.bootstrap(), naive.bootstrap()
    for confidence in [None, *confidences]:
        if confidence is not None:
            # Frameless calls score similarity 0, so each one is a full pass.
            decision = schedule(state, decision.pair, confidence)
            want = naive.step(want.pair, confidence)
            assert decision.rescheduled
        _assert_same_decision(decision, want, confidence, config.accuracy_threshold)
        assert {m: list(b) for m, b in state.buffers.items()} == naive.buffers


def test_valid_set_soundness_randomized():
    # whenever any model clears the threshold, the chosen pair's model does
    rng = np.random.default_rng(22)
    for _ in range(200):
        cat, averages = _random_problem(rng)
        costs = normalize_costs(cat)
        threshold = float(rng.uniform(0, 1))
        weights = tuple(float(rng.uniform(0.01, 2)) for _ in range(3))
        valid = valid_set(averages, threshold)
        chosen = best_pair(score_candidates(averages, valid, costs, weights))
        if max(averages.values()) >= threshold:
            assert averages[chosen[0]] >= threshold

