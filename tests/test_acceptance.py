"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime bound is pinned here.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np
import pytest

from conftest import (
    brute_force_neighborhood,
    make_catalog,
    make_pm,
    make_profile,
    random_cost_graph,
    two_model_setup,
)
from odsched.catalog import BoundingBox, builtin_catalog
from odsched.cli import main as cli_main
from odsched.confidence_graph import (
    EPSILON,
    _neighborhoods,
    build_prediction_map,
    neighborhood,
)
from odsched.images import GrayscaleImage
from odsched.loader import AcceleratorMemory
from odsched.scheduler import (
    SchedulerConfig,
    SchedulerState,
    normalize_costs,
    schedule,
)
from odsched.sim import (
    Policy,
    demo_scenario,
    gen_trace,
    run,
    scenario_from_dict,
    sweep,
    sweep_correlations,
)
from reference import ListLRU, best_pair, ncc, score_candidates, valid_set


def _passed(n: int, detail: str) -> None:
    print(f"ACCEPTANCE {n}: PASS  ({detail})")


def criterion(n: int):
    """Print the FAIL line before letting the assertion propagate."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                print(f"ACCEPTANCE {n}: FAIL  ({exc})")
                raise

        return wrapper

    return deco


# ---------------------------------------------------------------------------


@criterion(1)
def test_criterion_01_catalog_fidelity():
    start = time.perf_counter()
    cat = builtin_catalog()
    assert len(cat.profiles) == 18
    for prof in cat.profiles.values():
        product = prof.avg_latency_s * prof.avg_power_w
        assert abs(prof.avg_energy_j - product) <= 0.05 * prof.avg_energy_j, prof.pair
    yolo_gpu = cat.profile("yolov7", "gpu")
    assert yolo_gpu.avg_latency_s == 0.130
    assert yolo_gpu.avg_power_w == 15.14
    assert yolo_gpu.avg_energy_j == pytest.approx(1.968, abs=0.01)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, f"18 rows consistent within 5%, {elapsed:.3f} s")


@criterion(2)
def test_criterion_02_graph_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    n_traces = 200
    checked_nodes = 0
    for _ in range(n_traces):
        cg = random_cost_graph(rng)
        assert len(cg.nodes) <= 8
        threshold = float(rng.choice([0.0, 0.25, 0.5, 0.75]))
        built = _neighborhoods(cg, threshold)  # what build_prediction_map runs
        for start_key in cg.nodes:
            fast = neighborhood(cg, start_key, threshold)
            brute = brute_force_neighborhood(cg, start_key, threshold)
            assert fast == brute  # distances match exactly
            assert built[start_key] == brute
            checked_nodes += 1

            # consolidation against direct evaluation of the formula
            groups: dict[str, list[tuple[float, float]]] = {}
            for key, dist in fast.items():
                groups.setdefault(key[0], []).append(
                    (cg.nodes[key].expected_accuracy, dist)
                )
            from odsched.confidence_graph import consolidate

            preds = {p.model: p for p in consolidate(cg.nodes, fast)}
            for model, pairs in groups.items():
                num = sum(acc / (d + EPSILON) for acc, d in pairs)
                den = sum(1.0 / (d + EPSILON) for acc, d in pairs)
                assert abs(preds[model].accuracy - num / den) <= 1e-9
                assert preds[model].distance == min(d for _, d in pairs)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(2, f"{n_traces} traces, {checked_nodes} start nodes, {elapsed:.1f} s")


@criterion(3)
def test_criterion_03_scheduling_conformance():
    # early-exit branch: s*c over threshold keeps the pair untouched
    _, _, state = two_model_setup()
    img = GrayscaleImage(np.random.default_rng(0).integers(0, 256, (32, 32)).astype(float))
    box = BoundingBox(4, 4, 20, 20)
    first = schedule(state, ("a", "gpu"), 0.9, img, box)
    d = schedule(state, first.pair, 0.9, img, box)
    assert not d.rescheduled and d.pair == first.pair and d.scores == {}

    # valid-set filter: threshold 0.6 admits only a (R = .7 vs .5)
    _, _, state = two_model_setup(threshold=0.6, weights=(1, 1, 1))
    d = schedule(state, ("a", "gpu"), 0.1)
    assert d.pair[0] == "a" and all(p[0] == "a" for p in d.scores)

    # empty-valid-set fallback: nobody meets 0.9, all models scored
    _, _, state = two_model_setup(threshold=0.9, weights=(0, 1, 1))
    d = schedule(state, ("a", "gpu"), 0.1)
    assert set(d.scores) == {("a", "cpu"), ("a", "gpu"), ("b", "gpu")}
    assert d.pair == ("b", "gpu")

    # argmax selection with hand-computed scores
    _, _, state = two_model_setup(weights=(1, 0, 0))
    d = schedule(state, ("a", "gpu"), 0.1)
    assert d.scores[("a", "cpu")] == pytest.approx(0.7)
    assert d.scores[("b", "gpu")] == pytest.approx(0.5)
    assert d.pair == ("a", "cpu")  # lexicographic tie-break among a's pairs

    # randomized: knob-axis dominance and argmax scale-invariance, through
    # the reference functions and through schedule()'s full pass, whose map
    # predicts the random averages.  Momentum 1 keeps them as they are, and
    # no average reaches threshold 1, so every model is valid (the fallback)
    # and a frame-less call cannot keep its pair.
    def full_pass(cat, averages, weights):
        config = SchedulerConfig(*weights, accuracy_threshold=1.0, momentum=1)
        state = SchedulerState(cat, make_pm(averages), config)
        return schedule(state, (min(averages), "gpu"), 0.0).pair

    rng = np.random.default_rng(99)
    for _ in range(1000):
        n_models = int(rng.integers(2, 5))
        models = [f"m{i}" for i in range(n_models)]
        profiles = []
        for m in models:
            for accel in ("gpu", "dla")[: int(rng.integers(1, 3))]:
                profiles.append(
                    make_profile(
                        m, accel,
                        float(rng.uniform(0.01, 1.0)),
                        float(rng.uniform(1.0, 20.0)),
                    )
                )
        cat = make_catalog(profiles)
        costs = normalize_costs(cat)
        averages = {m: float(rng.uniform(0, 1)) for m in models}
        valid = valid_set(averages, 1.0)  # every model, as in the full pass

        weights = tuple(float(rng.uniform(0.01, 2.0)) for _ in range(3))
        lam = float(rng.uniform(0.1, 10.0))
        scaled = tuple(w * lam for w in weights)
        assert best_pair(score_candidates(averages, valid, costs, weights)) == best_pair(
            score_candidates(averages, valid, costs, scaled)
        )

        chosen = best_pair(score_candidates(averages, valid, costs, (0, 1, 0)))
        assert costs.energy_score[chosen] == max(costs.energy_score.values())
        chosen = best_pair(score_candidates(averages, valid, costs, (0, 0, 1)))
        assert costs.latency_score[chosen] == max(costs.latency_score.values())
        chosen = best_pair(score_candidates(averages, valid, costs, (1, 0, 0)))
        assert averages[chosen[0]] == max(averages.values())

        reference = best_pair(score_candidates(averages, valid, costs, weights))
        assert full_pass(cat, averages, weights) == reference
        assert full_pass(cat, averages, scaled) == reference
        chosen = full_pass(cat, averages, (0, 1, 0))
        assert costs.energy_score[chosen] == max(costs.energy_score.values())
        chosen = full_pass(cat, averages, (0, 0, 1))
        assert costs.latency_score[chosen] == max(costs.latency_score.values())
        chosen = full_pass(cat, averages, (1, 0, 0))
        assert averages[chosen[0]] == max(averages.values())
    _passed(3, "4 branch fixtures + 1000 randomized states, reference and full pass")


@criterion(4)
def test_criterion_04_lru_laws():
    start = time.perf_counter()
    rng = np.random.default_rng(4321)
    sizes = {f"m{i}": int(rng.integers(40, 500)) for i in range(8)}
    capacity = 1000
    cat = make_catalog(
        [
            make_profile(m, "gpu", 0.1, 10.0, memory=s, load_time=0.05, load_energy=0.1)
            for m, s in sizes.items()
        ],
        capacities={"gpu": capacity},
    )
    mem, ref = AcceleratorMemory("gpu", cat), ListLRU(cat, "gpu")
    for _ in range(10_000):
        model = f"m{rng.integers(0, 8)}"
        assert mem.request(model) == ref.request(model)
        assert mem.used_bytes <= capacity
        assert mem.resident == tuple(ref.residents)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(4, f"10000 requests, capacity never exceeded, {elapsed:.2f} s")


@criterion(5)
def test_criterion_05_ncc_math():
    rng = np.random.default_rng(55)
    shapes = [(5, 7), (32, 32), (64, 48), (311, 17), (640, 640)]
    for shape in shapes:
        x = GrayscaleImage(rng.integers(0, 256, size=shape).astype(float))
        y = GrayscaleImage(rng.integers(0, 256, size=shape).astype(float))

        assert ncc(x, x) == 1.0
        neg = GrayscaleImage(255.0 - x.pixels)
        assert ncc(x, neg) == pytest.approx(-1.0, abs=1e-12)
        assert abs(ncc(x, y) - ncc(y, x)) <= 1e-12
        assert abs(ncc(x, y)) <= 1.0

        p = GrayscaleImage(rng.integers(0, 100, size=shape).astype(float))
        for a, b in ((0.5, 3.0), (2.0, 11.0)):
            transformed = GrayscaleImage(a * p.pixels + b)
            assert ncc(transformed, y) == pytest.approx(ncc(p, y), abs=1e-9)
    _passed(5, f"{len(shapes)} sizes up to 640x640, tolerances 1e-12 / 1e-9")


@criterion(6)
def test_criterion_06_scheduler_overhead():
    cat = builtin_catalog()
    scenario = scenario_from_dict(
        {
            "emit_frames": False,
            "segments": [
                {
                    "frames": 60,
                    "models": {
                        "yolov7": {"conf_mean": 0.8, "conf_sigma": 0.05, "iou_mean": 0.7, "iou_sigma": 0.05},
                        "yolov7-tiny": {"conf_mean": 0.6, "conf_sigma": 0.1, "iou_mean": 0.5, "iou_sigma": 0.1},
                        "ssd-mobilenet-v1": {"conf_mean": 0.5, "conf_sigma": 0.1, "iou_mean": 0.45, "iou_sigma": 0.1},
                        "ssd-resnet50": {"conf_mean": 0.55, "conf_sigma": 0.1, "iou_mean": 0.48, "iou_sigma": 0.1},
                    },
                }
            ],
        }
    )
    pm = build_prediction_map(gen_trace(scenario, 0))
    state = SchedulerState(cat, pm, SchedulerConfig())
    rng = np.random.default_rng(6)
    base = rng.integers(0, 200, size=(640, 640)).astype(float)
    frames = [
        GrayscaleImage(np.clip(base + rng.normal(0, 5, size=(640, 640)), 0, 255))
        for _ in range(12)
    ]
    box = BoundingBox(100, 100, 300, 300)
    confidences = [0.85, 0.8, 0.75, 0.3, 0.9]
    pair = state.bootstrap().pair
    calls = 10_000
    start = time.perf_counter()
    for i in range(calls):
        decision = schedule(
            state, pair, confidences[i % len(confidences)], frames[i % len(frames)], box
        )
        pair = decision.pair
    mean_latency = (time.perf_counter() - start) / calls
    assert mean_latency < 0.002, f"mean {mean_latency * 1000:.3f} ms"
    _passed(6, f"mean {mean_latency * 1000:.3f} ms over {calls} calls, 18-pair catalog")


@criterion(7)
def test_criterion_07_end_to_end_qualitative():
    cat = builtin_catalog()
    scenario = demo_scenario()
    # two-context structure: easy segment where the cheap model is good
    # enough, hard segment where only the expensive model clears 0.5
    easy, hard = scenario.segments
    assert easy.models["yolov7-tiny"].iou_mean >= 0.5
    assert easy.models["yolov7"].iou_mean >= 0.5
    assert hard.models["yolov7-tiny"].iou_mean < 0.5
    assert hard.models["yolov7"].iou_mean > 0.5
    boundary = easy.frames

    trace = gen_trace(scenario, 0)
    shift = run(trace, cat, Policy.shift())  # stock default configuration
    expensive = run(trace, cat, Policy.single("yolov7", "gpu"))
    cheap = run(trace, cat, Policy.single("yolov7-tiny", "gpu"))

    shift_energy = shift.avg_energy_with_loads_j * shift.frames
    expensive_energy = expensive.avg_energy_with_loads_j * expensive.frames
    assert shift_energy < expensive_energy  # (a)
    assert shift.success_rate > cheap.success_rate  # (b)
    swap_frames = [f.frame_index for f in shift.per_frame if f.swap_occurred]
    near_boundary = [f for f in swap_frames if abs(f - boundary) <= 50]
    assert len(near_boundary) >= 1  # (c)
    _passed(
        7,
        f"energy {shift_energy:.0f} J < {expensive_energy:.0f} J, success "
        f"{shift.success_rate:.1%} > {cheap.success_rate:.1%}, swap at "
        f"frame {near_boundary[0]} (boundary {boundary})",
    )


@criterion(8)
def test_criterion_08_sensitivity_directions():
    start = time.perf_counter()
    cat = builtin_catalog()
    trace = gen_trace(demo_scenario(), 0)
    grid = {
        "w_accuracy": [0.25, 0.5, 1.0, 2.0],
        "w_energy": [0.0, 0.5, 1.0, 2.0],
        "w_latency": [0.0, 0.5, 1.0, 2.0],
    }
    results = sweep(trace, cat, grid)
    assert len(results) == 64
    summary = sweep_correlations(results)
    assert summary["w_energy"]["energy"] < 0
    assert summary["w_latency"]["latency"] < 0
    assert summary["w_accuracy"]["iou"] > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _passed(
        8,
        f"64 configs in {elapsed:.1f} s; rho(w_energy, energy) = "
        f"{summary['w_energy']['energy']:+.2f}, rho(w_latency, latency) = "
        f"{summary['w_latency']['latency']:+.2f}, rho(w_accuracy, iou) = "
        f"{summary['w_accuracy']['iou']:+.2f}",
    )


@criterion(9)
def test_criterion_09_oracle_sanity():
    cat = builtin_catalog()
    scenarios = [demo_scenario()]
    scenarios.append(
        scenario_from_dict(
            {
                "segments": [
                    {
                        "frames": 80,
                        "models": {
                            "yolov7": {"conf_mean": 0.7, "conf_sigma": 0.1, "iou_mean": 0.6, "iou_sigma": 0.1},
                            "yolov7-tiny": {"conf_mean": 0.6, "conf_sigma": 0.15, "iou_mean": 0.45, "iou_sigma": 0.15},
                            "ssd-mobilenet-v1": {"conf_mean": 0.5, "conf_sigma": 0.2, "iou_mean": 0.4, "iou_sigma": 0.2},
                        },
                        "texture_seed": 3,
                    },
                    {
                        "frames": 80,
                        "models": {
                            "yolov7": {"conf_mean": 0.85, "conf_sigma": 0.05, "iou_mean": 0.75, "iou_sigma": 0.05},
                            "yolov7-tiny": {"conf_mean": 0.8, "conf_sigma": 0.06, "iou_mean": 0.65, "iou_sigma": 0.06},
                            "ssd-mobilenet-v1": {"conf_mean": 0.75, "conf_sigma": 0.08, "iou_mean": 0.6, "iou_sigma": 0.08},
                        },
                        "texture_seed": 4,
                    },
                ]
            }
        )
    )
    for seed, scenario in enumerate(scenarios):
        trace = gen_trace(scenario, seed)
        oracle_a = run(trace, cat, Policy.oracle("accuracy"))
        oracle_e = run(trace, cat, Policy.oracle("energy"))
        oracle_l = run(trace, cat, Policy.oracle("latency"))
        shift = run(trace, cat, Policy.shift())
        assert oracle_a.avg_iou >= shift.avg_iou
        for model, accel in cat.profiled_pairs():
            if model in trace.models():
                single = run(trace, cat, Policy.single(model, accel))
                assert oracle_a.avg_iou >= single.avg_iou
        assert oracle_e.avg_energy_j <= oracle_a.avg_energy_j
        assert oracle_e.avg_energy_j <= oracle_l.avg_energy_j
    _passed(9, f"{len(scenarios)} traces, oracle orderings hold")


@criterion(10)
def test_criterion_10_determinism(tmp_path):
    trace_a = tmp_path / "a.ndjson"
    trace_b = tmp_path / "b.ndjson"
    assert cli_main(["gen-trace", "--seed", "11", "--out", str(trace_a)]) == 0
    assert cli_main(["gen-trace", "--seed", "11", "--out", str(trace_b)]) == 0
    assert trace_a.read_bytes() == trace_b.read_bytes()

    rep1 = tmp_path / "r1.json"
    rep2 = tmp_path / "r2.json"
    csv1 = tmp_path / "f1.csv"
    csv2 = tmp_path / "f2.csv"
    for rep, csv in ((rep1, csv1), (rep2, csv2)):
        assert (
            cli_main(
                [
                    "simulate",
                    "--trace", str(trace_a),
                    "--policy", "shift",
                    "--out", str(rep),
                    "--frames-csv", str(csv),
                ]
            )
            == 0
        )
    assert rep1.read_bytes() == rep2.read_bytes()
    assert csv1.read_bytes() == csv2.read_bytes()
    json.loads(rep1.read_text())  # well-formed JSON
    _passed(10, "gen-trace and simulate byte-identical across invocations")
