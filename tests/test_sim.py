from __future__ import annotations

import csv
import json
from dataclasses import replace
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import evicting_case, make_catalog, make_profile, make_trace, with_ghost
from odsched import scheduler, sim
from odsched.catalog import (
    BoundingBox,
    CharacterizationTrace,
    DetectionOutcome,
    FrameRecord,
    builtin_catalog,
    frame_to_dict,
)
from odsched.errors import ScenarioError, TraceError, ValidationError
from odsched.images import GrayscaleImage
from odsched.loader import AcceleratorMemory
from odsched.scheduler import SchedulerConfig
from odsched.sim import (
    FrameResult,
    Policy,
    demo_scenario,
    expand_grid,
    gen_trace,
    metrics,
    oracle_choose,
    run,
    scenario_from_dict,
    sweep,
    sweep_correlations,
)
from reference import ListLRU, ncc

# ---------------------------------------------------------------------------
# policies


def test_policy_validation():
    with pytest.raises(ValueError):
        Policy(kind="nonsense")
    with pytest.raises(ValueError):
        Policy(kind="single")
    with pytest.raises(ValueError):
        Policy.oracle("speed")
    assert Policy.oracle("energy").describe() == "oracle-e"
    assert Policy.single("m", "gpu").describe() == "single:m:gpu"


def test_policy_parse_round_trips_describe():
    config = SchedulerConfig(momentum=7)
    policies = [Policy.shift(config), Policy.single("m", "gpu"),
                *(Policy.oracle(o) for o in ("energy", "accuracy", "latency"))]
    for policy in policies:
        assert Policy.parse(policy.describe(), config) == policy
    assert [p.describe() for p in policies] == [
        "shift", "single:m:gpu", "oracle-e", "oracle-a", "oracle-l"]
    with pytest.raises(ValidationError, match="bad single policy 'single:m'"):
        Policy.parse("single:m")
    with pytest.raises(ValidationError, match="unknown policy 'oracle-x'; use shift"):
        Policy.parse("oracle-x")


def test_policy_parse_round_trips_a_model_name_with_a_colon():
    policy = Policy.single("a:b", "gpu")
    assert policy.describe() == "single:a:b:gpu"
    assert Policy.parse(policy.describe()) == policy
    for text in ("single::gpu", "single:a:b:", "single:ab"):
        with pytest.raises(ValidationError, match="bad single policy"):
            Policy.parse(text)


# ---------------------------------------------------------------------------
# run(): single-model baseline reproduces the profiled row exactly


def test_single_model_exact_row(builtin, demo_trace):
    rep = run(demo_trace, builtin, Policy.single("yolov7", "gpu"))
    assert rep.avg_time_s == 0.130
    assert rep.avg_energy_j == 1.968
    assert rep.model_swaps == 0
    assert rep.pairs_used == 1
    # one cold load on the first frame, nothing after
    assert rep.per_frame[0].load_time_s == 0.30
    assert all(f.load_time_s == 0.0 for f in rep.per_frame[1:])
    assert rep.total_load_time_s == 0.30


def test_single_model_unprofiled_pair_rejected(builtin, demo_trace):
    with pytest.raises(ValueError, match="not profiled"):
        run(demo_trace, builtin, Policy.single("yolov7-e6e", "oakd"))


def test_empty_trace_rejected(builtin):
    with pytest.raises(ValueError, match="empty trace"):
        run(CharacterizationTrace(frames=()), builtin, Policy.shift())


def test_shift_swaps_are_pair_transitions(builtin, demo_trace):
    rep = run(demo_trace, builtin, Policy.shift())
    pairs = [(f.model, f.accelerator) for f in rep.per_frame]
    transitions = sum(1 for a, b in zip(pairs, pairs[1:]) if a != b)
    assert rep.model_swaps == transitions
    assert rep.pairs_used == len(set(pairs))


def test_shift_report_self_consistent(builtin, demo_trace):
    rep = run(demo_trace, builtin, Policy.shift())
    agg = metrics(rep.per_frame, builtin.gpu_accelerators())
    for name, value in agg.items():
        assert getattr(rep, name) == value


def test_shift_accepts_stock_default_configuration(builtin, demo_trace):
    cfg = SchedulerConfig(
        w_accuracy=1.0,
        w_energy=0.5,
        w_latency=0.5,
        accuracy_threshold=0.25,
        momentum=30,
        distance_threshold=0.5,
    )
    rep = run(demo_trace, builtin, Policy.shift(cfg))
    assert rep.frames == len(demo_trace)


def test_shift_prefill_removes_load_stalls(builtin, demo_trace):
    rep = run(demo_trace, builtin, Policy.shift(), prefill=True)
    assert rep.total_load_time_s == 0.0
    assert rep.total_load_energy_j == 0.0


def test_single_prefill_pays_no_load(builtin, demo_trace):
    # A greedy prefill of the builtin catalog leaves yolov7 resident on gpu.
    rep = run(demo_trace, builtin, Policy.single("yolov7", "gpu"), prefill=True)
    assert rep.total_load_time_s == 0.0
    assert rep.total_load_energy_j == 0.0
    assert rep.avg_time_s == 0.130


def test_shift_charges_overhead_as_time_only(builtin, demo_trace):
    base = run(demo_trace, builtin, Policy.shift(), scheduler_overhead_s=0.0)
    loaded = run(demo_trace, builtin, Policy.shift(), scheduler_overhead_s=0.002)
    assert loaded.avg_time_s == pytest.approx(base.avg_time_s + 0.002)
    assert loaded.avg_energy_j == base.avg_energy_j


def _int_latency_catalog(catalog):
    """`catalog` with int load times of 0 and one int latency of 10**308,
    whose sum over 300 frames is too large for a float."""
    profiles = {p: replace(prof, load_time_s=0) for p, prof in catalog.profiles.items()}
    pair = min(profiles)
    profiles[pair] = replace(
        profiles[pair], avg_latency_s=10**308, avg_power_w=1, avg_energy_j=10**308
    )
    return replace(catalog, profiles=profiles)


@pytest.mark.parametrize(
    ("overhead", "int_latency"),
    [
        (-0.001, False),
        (float("nan"), False),
        (float("inf"), False),
        (1e308, False),
        (10**400, False),  # an int above the largest float
        (0, True),  # all-int terms whose total exceeds a float
    ],
)
def test_negative_or_non_finite_overhead_rejected(builtin, demo_trace, overhead, int_latency):
    catalog = _int_latency_catalog(builtin) if int_latency else builtin
    with pytest.raises(ValueError, match="overhead"):
        run(demo_trace, catalog, Policy.shift(), scheduler_overhead_s=overhead)
    with pytest.raises(ValueError, match="overhead"):
        sweep(demo_trace, catalog, {"momentum": [30]}, scheduler_overhead_s=overhead)


def test_sweep_checks_the_overhead_before_any_graph_build(builtin, demo_trace, monkeypatch):
    def no_build(*args):
        raise AssertionError("a graph was built before the overhead was checked")

    monkeypatch.setattr(sim, "build_prediction_map", no_build)
    grid = {"bucket_width": [0.05, 0.1], "distance_threshold": [0.5, 1.0]}
    with pytest.raises(ValueError, match=r"^scheduler overhead -1.0 must be finite"):
        sweep(demo_trace, builtin, grid, scheduler_overhead_s=-1.0)
    with pytest.raises(ValueError, match="^empty trace$"):
        sweep(CharacterizationTrace(frames=()), builtin, grid)


def test_run_and_sweep_check_the_overhead_once(builtin, demo_trace, monkeypatch):
    checks = []
    real_check = sim._check_overhead
    monkeypatch.setattr(sim, "_check_overhead", lambda *a: checks.append(1) or real_check(*a))
    sweep(demo_trace, builtin, {"momentum": [1, 30], "w_latency": [0.0, 1.0]})
    assert len(checks) == 1
    run(demo_trace, builtin, Policy.oracle("energy"))
    assert len(checks) == 2


def test_oracle_checks_every_frame_before_frame_zero(builtin, demo_trace, monkeypatch):
    catalog, trace = with_ghost(builtin, demo_trace, 150)
    silent = CharacterizationTrace(frames=(demo_trace.frames[0], FrameRecord(7, {})))
    started = []
    real_replay = sim._replay
    monkeypatch.setattr(sim, "_replay", lambda *args: started.append(1) or real_replay(*args))
    for objective in ("energy", "accuracy", "latency"):
        with pytest.raises(
            ValidationError, match=r"^frame 150: no profiled pair among observed models \(ghost\)$"
        ):
            run(trace, catalog, Policy.oracle(objective))
        with pytest.raises(ValidationError, match=r"^frame 7: .* models \(none\)$"):
            run(silent, catalog, Policy.oracle(objective))
    assert not started
    # The adaptive and fixed policies replay the same input to the end,
    # scoring 0 where their model was not observed.
    for policy in (Policy.shift(), Policy.single("yolov7", "gpu")):
        assert run(trace, catalog, policy).frames == len(trace)


def test_shift_decides_every_frame_before_charging_any(builtin, demo_trace, monkeypatch):
    calls = []
    real_schedule, real_request = sim.schedule, AcceleratorMemory.request
    monkeypatch.setattr(sim, "schedule", lambda *a: calls.append("schedule") or real_schedule(*a))
    monkeypatch.setattr(
        AcceleratorMemory, "request", lambda *a: calls.append("request") or real_request(*a)
    )
    run(demo_trace, builtin, Policy.shift())
    n = len(demo_trace)
    assert calls == ["schedule"] * n + ["request"] * n


def _with_frame_200(trace, **changes) -> tuple[FrameRecord, ...]:
    frames = list(trace.frames)
    frames[200] = replace(frames[200], **changes)
    return tuple(frames)


def test_trace_geometry_is_checked_when_the_trace_is_built(builtin, demo_trace, monkeypatch):
    started = []
    real_replay = sim._replay
    monkeypatch.setattr(sim, "_replay", lambda *args: started.append(1) or real_replay(*args))
    small = _with_frame_200(demo_trace, frame=GrayscaleImage(np.zeros((32, 32), np.uint8)))
    with pytest.raises(
        TraceError, match=r"^frame 200: frame is 32x32, but the first frame is 64x64$"
    ):
        run(CharacterizationTrace(small), builtin, Policy.shift())
    fr = demo_trace.frames[200]
    model = min(fr.per_model)
    moved = replace(fr.per_model[model], box=BoundingBox(50, 50, 90, 90))
    outside = _with_frame_200(demo_trace, per_model={**fr.per_model, model: moved})
    with pytest.raises(
        TraceError,
        match=rf"^frame 200: 'detections.{model}.box' \(50, 50, 90, 90\) outside 64x64 frame$",
    ):
        run(CharacterizationTrace(outside), builtin, Policy.shift())
    assert not started


# The builtin catalog with and without a model, ghost, that is compatible
# with gpu but has no profile.
_CATALOGS = st.sampled_from(
    [builtin_catalog(), with_ghost(builtin_catalog(), CharacterizationTrace(()), 0)[0]]
)
# Frames observing any subset of two profiled models and ghost: empty and
# ghost-only frames among them.
_TRACES = st.lists(
    st.dictionaries(
        st.sampled_from(["yolov7", "yolov7-tiny", "ghost"]),
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        max_size=3,
    ),
    max_size=6,
).map(make_trace)
# Profiled pairs, then an unprofiled compatible and an incompatible one.
_PAIRS = st.sampled_from(
    [("yolov7", "gpu"), ("yolov7-tiny", "oakd"), ("ghost", "gpu"), ("yolov7-e6e", "oakd")]
)
_OVERHEADS = st.sampled_from([0.0, 0.002, -1.0, 1e308])
_GRID_LIST = [
    {"momentum": [1, 30]},
    {"w_latency": [0.0, 1.0], "distance_threshold": [0.0, 0.5]},
    {"w_latency": 0.5},
    {"w_latency": [10**400]},
    {"warp_factor": [1]},
    {},
    [0.5],
    {"momentum": [0]},
    {"momentum": [1.5]},
    {"bucket_width": [2.0]},
    {"w_energy": [float("nan")]},
]
_GRIDS = st.sampled_from(_GRID_LIST)


def _with_every_grid(test):
    """One explicit example per grid, on a trace whose replay starts for a
    valid grid: under `derandomize=True`, `sampled_from` draws the first
    entries of a list most of the time and may never draw the last ones."""
    trace = make_trace([{"yolov7": (0.9, 0.8), "yolov7-tiny": (0.6, 0.5)}] * 3)
    for grid in _GRID_LIST:
        test = example(
            catalog=builtin_catalog(), trace=trace, pair=("yolov7", "gpu"), overhead=0.0, grid=grid
        )(test)
    return test


@settings(max_examples=150, derandomize=True, deadline=None)
@given(catalog=_CATALOGS, trace=_TRACES, pair=_PAIRS, overhead=_OVERHEADS, grid=_GRIDS)
@_with_every_grid
def test_no_input_is_rejected_after_the_replay_starts(catalog, trace, pair, overhead, grid):
    """Every policy's run and a sweep either complete or raise before the
    first `_replay` starts, and a shift run or sweep that raises has made no
    `schedule` call.

    The shift policy's `no profiled (model, accelerator) pair among
    predictions` is raised by `_select`, which every `schedule` call may
    also run, but it can fire only in `bootstrap()`:
    - the incumbent is always a profiled pair, since `_select` picks only
      among profiled pairs;
    - the incumbent's model has nodes in the map: `bootstrap()` seeds only
      the map's models, and a later pass picks among predicted models,
      each predicted from a node of its own;
    - every entry predicts its own node's model, at distance 0, so each
      prediction tuple a replay passes to `_select` holds the incumbent's
      profiled model.
    """
    started, scheduled = [], []
    real_replay, real_schedule = sim._replay, sim.schedule

    def spy(*args):
        started.append(1)
        return real_replay(*args)

    def schedule_spy(*args):
        scheduled.append(1)
        return real_schedule(*args)

    policies = [Policy.shift(), Policy.single(*pair),
                *(Policy.oracle(o) for o in ("energy", "accuracy", "latency"))]
    calls = [
        *(lambda p=p: run(trace, catalog, p, scheduler_overhead_s=overhead) for p in policies),
        lambda: sweep(trace, catalog, grid, scheduler_overhead_s=overhead),
    ]
    with mock.patch.object(sim, "_replay", spy), mock.patch.object(sim, "schedule", schedule_spy):
        for call in calls:
            started.clear()
            scheduled.clear()
            try:
                call()
            except (ValidationError, ValueError, KeyError):
                assert not started
                assert not scheduled


def test_shift_uncharacterized_choice_scores_zero():
    # model b is characterized only at the start; when the scheduler keeps
    # choosing it later (no context to trigger otherwise), missing frames
    # score 0 rather than erroring
    rows = [{"a": (0.9, 0.6), "b": (0.9, 0.7)}] * 5 + [{"a": (0.9, 0.6)}] * 5
    trace = make_trace(rows)
    cat = make_catalog(
        [make_profile("a", "gpu", 0.1, 10.0), make_profile("b", "gpu", 0.2, 10.0)]
    )
    rep = run(trace, cat, Policy.shift(SchedulerConfig(w_accuracy=1, w_energy=0, w_latency=0)))
    assert rep.frames == 10  # completed despite partial coverage


def test_shift_load_charges_match_plain_list_lru_when_evicting():
    # Five contexts, each favouring one model; the accelerator holds two of
    # the three models, so the shift run evicts, choosing among residents.
    scenario, cat, config = evicting_case()
    rep = run(gen_trace(scenario, 1), cat, Policy.shift(config))
    lru = ListLRU(cat, "gpu")
    for f in rep.per_frame:
        load = lru.request(f.model)
        assert (f.load_time_s, f.load_energy_j) == (load.time_cost_s, load.energy_cost_j)
    assert lru.evictions >= 2


# ---------------------------------------------------------------------------
# oracle


def _frame(per_model: dict[str, tuple[float, float]], index: int = 0) -> FrameRecord:
    return FrameRecord(
        frame_index=index,
        per_model={
            m: DetectionOutcome(
                confidence=c, iou=v, box=BoundingBox(0, 0, 1, 1) if v > 0 else None
            )
            for m, (c, v) in per_model.items()
        },
    )


def test_oracle_energy_picks_cheapest_qualifying(builtin):
    frame = _frame({"yolov7-tiny": (0.9, 0.6), "yolov7": (0.9, 0.7)})
    # qualifying pair energies include tiny-dla 0.134 and tiny-gpu 0.280
    assert oracle_choose(frame, builtin, "energy") == ("yolov7-tiny", "dla")


def test_oracle_fallback_when_none_qualify(builtin):
    frame = _frame({"yolov7-tiny": (0.9, 0.3), "yolov7": (0.9, 0.4)})
    pair = oracle_choose(frame, builtin, "energy")
    assert pair == ("yolov7-tiny", "dla")  # objective still optimized


def test_oracle_qualifiers_without_profiled_pair_fall_back_to_observed(builtin):
    # Only "ghost" clears 0.5, and it has no profiled pair, so every observed
    # model that has one is a candidate.
    frame = _frame({"ghost": (0.9, 0.9), "yolov7-tiny": (0.9, 0.3), "yolov7": (0.9, 0.4)})
    assert oracle_choose(frame, builtin, "accuracy") == ("yolov7", "dla")
    assert oracle_choose(frame, builtin, "energy") == ("yolov7-tiny", "dla")


def test_oracle_accuracy_unique_max(builtin):
    frame = _frame({"yolov7-tiny": (0.9, 0.55), "yolov7": (0.9, 0.8)})
    pair = oracle_choose(frame, builtin, "accuracy")
    assert pair == ("yolov7", "dla")  # max IoU model, lexicographic accelerator


def test_oracle_latency(builtin):
    frame = _frame({"yolov7-tiny": (0.9, 0.6), "yolov7": (0.9, 0.7)})
    assert oracle_choose(frame, builtin, "latency") == ("yolov7-tiny", "dla")


def test_oracle_empty_frame_rejected(builtin):
    with pytest.raises(
        ValidationError, match=r"^frame 3: no profiled pair among observed models \(none\)$"
    ):
        oracle_choose(FrameRecord(frame_index=3, per_model={}), builtin, "energy")


def test_oracle_unknown_objective_rejected(builtin):
    with pytest.raises(ValueError, match="unknown oracle objective 'speed'"):
        oracle_choose(_frame({"yolov7": (0.9, 0.7)}), builtin, "speed")


@pytest.mark.parametrize(
    "policy, message",
    [
        (Policy.shift(), r"^no profiled \(model, accelerator\) pair among predictions$"),
        (Policy.oracle("energy"), r"^frame 0: no profiled pair among observed models \(ghost\)$"),
    ],
    ids=["shift", "oracle"],
)
def test_trace_without_profiled_model_fails(builtin, policy, message):
    trace = make_trace([{"ghost": (0.9, 0.6)}] * 3)
    with pytest.raises(ValueError, match=message):
        run(trace, builtin, policy)


def test_oracle_charges_no_loads(builtin, demo_trace):
    rep = run(demo_trace, builtin, Policy.oracle("accuracy"))
    assert rep.total_load_time_s == 0.0
    assert all(f.load_time_s == 0.0 for f in rep.per_frame)


def test_oracle_energy_dominates_per_frame(builtin, demo_trace):
    # the three oracles face the same qualifying set on every frame, so
    # Oracle-E's charged energy is a per-frame lower bound for the others
    e = run(demo_trace, builtin, Policy.oracle("energy")).per_frame
    a = run(demo_trace, builtin, Policy.oracle("accuracy")).per_frame
    l = run(demo_trace, builtin, Policy.oracle("latency")).per_frame
    for fe, fa, fl in zip(e, a, l):
        assert fe.energy_j <= fa.energy_j
        assert fe.energy_j <= fl.energy_j


def test_oracle_success_rates_agree_and_dominate(builtin, demo_trace):
    # every oracle restricts itself to qualifying models when any exist, so
    # all three share the same success rate, which bounds the adaptive one
    rates = {
        obj: run(demo_trace, builtin, Policy.oracle(obj)).success_rate
        for obj in ("energy", "accuracy", "latency")
    }
    assert len(set(rates.values())) == 1
    shift = run(demo_trace, builtin, Policy.shift())
    assert rates["accuracy"] >= shift.success_rate


# ---------------------------------------------------------------------------
# metrics


def _fr(i, model="m", accel="gpu", iou=0.6, lat=0.1, energy=1.0, swap=False):
    return FrameResult(
        frame_index=i,
        model=model,
        accelerator=accel,
        achieved_iou=iou,
        confidence=0.5,
        latency_s=lat,
        energy_j=energy,
        swap_occurred=swap,
        load_time_s=0.0,
        load_energy_j=0.0,
    )


def test_metrics_success_rate_all_pass():
    agg = metrics([_fr(i, iou=0.6) for i in range(4)], frozenset({"gpu"}))
    assert agg["success_rate"] == 1.0


def test_metrics_two_point_mean():
    agg = metrics([_fr(0, iou=0.6), _fr(1, iou=0.4)], frozenset({"gpu"}))
    assert agg["success_rate"] == 0.5
    assert agg["avg_iou"] == pytest.approx(0.5)


def test_metrics_swaps_and_pairs():
    frames = [
        _fr(0, model="A"),
        _fr(1, model="A"),
        _fr(2, model="B", swap=True),
        _fr(3, model="A", swap=True),
    ]
    agg = metrics(frames, frozenset({"gpu"}))
    assert agg["model_swaps"] == 2
    assert agg["pairs_used"] == 2


def test_metrics_non_gpu_fraction():
    frames = [_fr(0, accel="gpu"), _fr(1, accel="dla"), _fr(2, accel="dla")]
    agg = metrics(frames, frozenset({"gpu"}))
    assert agg["non_gpu_fraction"] == pytest.approx(2 / 3)


def test_metrics_empty_rejected():
    with pytest.raises(ValueError):
        metrics([], frozenset())


# ---------------------------------------------------------------------------
# CSV writers


def test_csv_names_holding_a_comma_quote_or_newline_read_back(tmp_path):
    name = 'yolo,"v7"\nx'
    catalog = make_catalog([make_profile(name, "gpu", 0.1, 10.0)])
    trace = make_trace([{name: (0.9, 0.7)}, {name: (0.4, 0.2)}])
    report = run(trace, catalog, Policy.single(name, "gpu"))
    for write in (sim.write_frames_csv, sim.write_timeline_csv):
        path = tmp_path / "out.csv"
        write(report, path)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert len(rows) == 2
        assert all(len(row) == len(header) for row in rows)
        assert [row[header.index("model")] for row in rows] == [name, name]


# ---------------------------------------------------------------------------
# sweep


def test_sweep_single_config_matches_run(builtin, demo_trace):
    results = sweep(demo_trace, builtin, {"momentum": [30]})
    assert len(results) == 1
    cfg, rep = results[0]
    direct = run(demo_trace, builtin, Policy.shift(cfg))
    assert rep.to_dict() == direct.to_dict()


def test_sweep_row_count_is_grid_product(builtin, demo_trace):
    results = sweep(
        demo_trace, builtin, {"w_accuracy": [0.5, 1.0], "w_energy": [0.0, 0.5]}
    )
    assert len(results) == 4


def test_sweep_configs_match_standalone_run(builtin, demo_trace):
    grid = {
        "w_energy": [0.5, 1.0],
        "momentum": [10, 30],
        "distance_threshold": [0.5, 1.0],
        "bucket_width": [0.1, 0.2],
    }
    results = sweep(demo_trace, builtin, grid)
    assert len(results) == 16
    for cfg, rep in results:
        direct = run(demo_trace, builtin, Policy.shift(cfg))
        assert rep.to_dict() == direct.to_dict()
        assert rep.per_frame == direct.per_frame


# Nine configurations that decide five distinct pair sequences on the demo
# trace: some configurations share a sequence, and some decide their own.
_MIXED_GRID = {"w_latency": [0.0, 0.5, 5.0], "accuracy_threshold": [0.1, 0.25, 0.9]}


def _pair_sequence(report):
    return tuple((f.model, f.accelerator) for f in report.per_frame)


def test_sweep_charges_each_distinct_pair_sequence_once(builtin, demo_trace, monkeypatch):
    replays, aggregates = [], []
    for name, calls in (("_replay", replays), ("metrics", aggregates)):
        real = getattr(sim, name)
        monkeypatch.setattr(sim, name, lambda *a, c=calls, r=real: c.append(1) or r(*a))
    # A second call on the same inputs charges everything again: the charges
    # live only as long as one sweep.
    for sweeps in (1, 2):
        results = sweep(demo_trace, builtin, _MIXED_GRID)
        distinct = {_pair_sequence(rep) for _, rep in results}
        assert 1 < len(distinct) < len(results)
        assert len(replays) == len(aggregates) == sweeps * len(distinct)


def test_sweep_reports_sharing_charges_equal_standalone_runs(builtin, demo_trace):
    results = sweep(demo_trace, builtin, _MIXED_GRID)
    for cfg, rep in results:
        direct = run(demo_trace, builtin, Policy.shift(cfg))
        assert rep.config == cfg
        assert rep.to_dict() == direct.to_dict()
        assert rep.per_frame == direct.per_frame
    # Reports that decided the same sequence share one charged result.
    per_frame = {_pair_sequence(rep): rep.per_frame for _, rep in results}
    assert all(rep.per_frame is per_frame[_pair_sequence(rep)] for _, rep in results)


def test_sweep_computes_context_once_and_memoizes_floats(
    builtin, demo_trace, monkeypatch
):
    frame_ncc_calls = 0
    real_ncc_cached = scheduler.ncc_cached

    def counting_ncc_cached(prev, cur):
        nonlocal frame_ncc_calls
        frame_ncc_calls += 1
        return real_ncc_cached(prev, cur)

    memos = []

    class RecordingState(scheduler.SchedulerState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            memos.append(self.memo)

    monkeypatch.setattr(scheduler, "ncc_cached", counting_ncc_cached)
    monkeypatch.setattr(sim, "SchedulerState", RecordingState)
    sweep(demo_trace, builtin, {"w_energy": [0.0, 0.5, 1.0], "momentum": [10, 30]})

    # Six configs share one memo and compare no consecutive frame pair twice.
    assert len(memos) == 6 and all(m is memos[0] for m in memos)
    memo = memos[0]
    assert frame_ncc_calls == sum(len(key) == 2 for key in memo) > 0
    assert len(memo) > len(demo_trace) - 1  # box terms too
    assert all(type(v) is float for v in memo.values())
    for key in memo:
        assert all(isinstance(part, (GrayscaleImage, BoundingBox)) for part in key)


def test_sweep_empty_grid_rejected(builtin, demo_trace):
    with pytest.raises(ValueError, match="empty"):
        sweep(demo_trace, builtin, {})
    with pytest.raises(ValueError, match="no values"):
        sweep(demo_trace, builtin, {"momentum": []})


def test_sweep_unknown_parameter_rejected():
    with pytest.raises(ValueError, match="unknown sweep parameters"):
        expand_grid({"warp_factor": [1]})
    with pytest.raises(ValueError, match="must be a mapping"):
        expand_grid([1, 2])


@pytest.mark.parametrize("value", [0.5, "0.5", None], ids=["float", "str", "null"])
def test_sweep_grid_value_must_be_a_list(value):
    with pytest.raises(ValueError, match=f"'w_latency' must be a list, got {value!r}"):
        expand_grid({"w_latency": value})


def test_sweep_correlations_shape(builtin, demo_trace):
    results = sweep(demo_trace, builtin, {"w_energy": [0.0, 0.5, 1.0]})
    summary = sweep_correlations(results)
    assert set(summary) == {"w_energy"}
    assert set(summary["w_energy"]) == {"iou", "energy", "latency"}
    with pytest.raises(ValueError, match="no sweep results"):
        sweep_correlations([])


def test_sweep_higher_accuracy_knob_does_not_lose_iou(builtin, demo_trace):
    (_, low), (_, high) = sweep(demo_trace, builtin, {"w_accuracy": [0.5, 2.0]})
    assert high.avg_iou >= low.avg_iou


# ---------------------------------------------------------------------------
# gen_trace


def test_gen_trace_sigma_zero_constant_outcomes():
    scenario = scenario_from_dict(
        {
            "emit_frames": False,
            "segments": [
                {
                    "frames": 5,
                    "models": {
                        "a": {"conf_mean": 0.8, "conf_sigma": 0.0, "iou_mean": 0.6, "iou_sigma": 0.0}
                    },
                }
            ],
        }
    )
    trace = gen_trace(scenario, 1)
    outcomes = [f.per_model["a"] for f in trace.frames]
    assert all(o.confidence == 0.8 and o.iou == 0.6 for o in outcomes)


def test_gen_trace_deterministic_bytes():
    t1 = gen_trace(demo_scenario(), 5)
    t2 = gen_trace(demo_scenario(), 5)
    b1 = "\n".join(json.dumps(frame_to_dict(f), sort_keys=True) for f in t1.frames)
    b2 = "\n".join(json.dumps(frame_to_dict(f), sort_keys=True) for f in t2.frames)
    assert b1 == b2
    assert b1 != "\n".join(
        json.dumps(frame_to_dict(f), sort_keys=True) for f in gen_trace(demo_scenario(), 6).frames
    )


def test_gen_trace_frames_are_uint8(demo_trace):
    assert {fr.frame.pixels.dtype for fr in demo_trace.frames} == {np.dtype(np.uint8)}


def test_gen_trace_context_shift_at_boundary(demo_trace):
    boundary = 150  # demo scenario: two 150-frame segments
    frames = demo_trace.frames
    within = ncc(frames[boundary - 2].frame, frames[boundary - 1].frame)
    across = ncc(frames[boundary - 1].frame, frames[boundary].frame)
    assert across < within


def test_gen_trace_boxes_stay_inside_frame(demo_trace):
    for fr in demo_trace.frames:
        for out in fr.per_model.values():
            if out.box is not None:
                assert out.box.x_max <= fr.frame.width
                assert out.box.y_max <= fr.frame.height


def test_gen_trace_seed_validation():
    with pytest.raises(ValueError):
        gen_trace(demo_scenario(), -1)


def test_scenario_validation_names_offending_field():
    with pytest.raises(ScenarioError, match="segments"):
        scenario_from_dict({})
    demo = json.loads((resources.files("odsched.data") / "demo_scenario.json").read_text())
    with pytest.raises(
        ScenarioError, match="^scenario: emit_frames: must be true or false, got 'false'$"
    ):
        scenario_from_dict({**demo, "emit_frames": "false"})
    with pytest.raises(ScenarioError, match="frames"):
        scenario_from_dict({"segments": [{"models": {"a": {}}}]})
    seeded = {**demo, "segments": [{**demo["segments"][0], "texture_seed": -1}]}
    with pytest.raises(
        ScenarioError, match=r"^segments\[0\]: texture_seed must be >= 0, got -1$"
    ):
        scenario_from_dict(seeded)
    with pytest.raises(ScenarioError, match="conf_mean"):
        scenario_from_dict({"segments": [{"frames": 3, "models": {"a": {}}}]})
    with pytest.raises(ScenarioError, match="iou_mean"):
        scenario_from_dict(
            {
                "segments": [
                    {
                        "frames": 3,
                        "models": {
                            "a": {
                                "conf_mean": 0.5,
                                "conf_sigma": 0.0,
                                "iou_mean": 1.4,
                                "iou_sigma": 0.0,
                            }
                        },
                    }
                ]
            }
        )


# ---------------------------------------------------------------------------
# qualitative behavior on the demo scenario


def test_shift_beats_cheap_on_success_and_expensive_on_energy(builtin, demo_trace):
    shift = run(demo_trace, builtin, Policy.shift())
    cheap = run(demo_trace, builtin, Policy.single("yolov7-tiny", "gpu"))
    expensive = run(demo_trace, builtin, Policy.single("yolov7", "gpu"))
    assert shift.avg_energy_with_loads_j * shift.frames < (
        expensive.avg_energy_with_loads_j * expensive.frames
    )
    assert shift.success_rate > cheap.success_rate
