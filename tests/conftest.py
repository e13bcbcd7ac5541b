from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from odsched.catalog import (
    Accelerator,
    BoundingBox,
    Catalog,
    CharacterizationTrace,
    DetectionOutcome,
    FrameRecord,
    ModelProfile,
    builtin_catalog,
)
from odsched.confidence_graph import (
    CostGraph,
    GraphNode,
    Prediction,
    PredictionMap,
    build_cograph,
    normalize_invert,
)
from odsched.scheduler import SchedulerConfig, SchedulerState
from odsched.sim import ModelBehavior, Scenario, Segment, demo_scenario, gen_trace


def make_profile(
    model: str,
    accel: str,
    latency: float,
    power: float,
    memory: int = 10,
    load_time: float = 0.0,
    load_energy: float = 0.0,
) -> ModelProfile:
    return ModelProfile(
        model=model,
        accelerator=accel,
        avg_latency_s=latency,
        avg_power_w=power,
        avg_energy_j=latency * power,
        memory_bytes=memory,
        load_time_s=load_time,
        load_energy_j=load_energy,
    )


def make_catalog(
    profiles: list[ModelProfile],
    capacities: dict[str, int] | None = None,
    gpu_name: str = "gpu",
) -> Catalog:
    models = sorted({p.model for p in profiles})
    accels = sorted({p.accelerator for p in profiles})
    capacities = capacities or {}
    return Catalog(
        accelerators={
            a: Accelerator(
                name=a,
                memory_bytes=capacities.get(a, 10**9),
                is_gpu=(a == gpu_name),
            )
            for a in accels
        },
        models=tuple(models),
        compatibility=frozenset(p.pair for p in profiles),
        profiles={p.pair: p for p in profiles},
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
    nodes = {(m, bucket): GraphNode(model_accs[m], 1) for m in models}
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


def two_model_setup(threshold=0.25, weights=(1.0, 0.0, 0.0), accs=None):
    """Model a on cpu and gpu, b on gpu only; a predicted at .7, b at .5."""
    cat = make_catalog(
        [
            make_profile("a", "cpu", 0.10, 10.0),
            make_profile("a", "gpu", 0.10, 10.0),
            make_profile("b", "gpu", 0.01, 10.0),
        ]
    )
    pm = make_pm(accs or {"a": 0.7, "b": 0.5})
    cfg = SchedulerConfig(*weights, accuracy_threshold=threshold)
    return cat, pm, SchedulerState(cat, pm, cfg)


def evicting_case() -> tuple[Scenario, Catalog, SchedulerConfig]:
    """Five contexts, each favouring one of models a, b and c, and a gpu
    that holds two of them; a shift replay under the config evicts."""
    good, poor = ModelBehavior(0.9, 0.02, 0.8, 0.02), ModelBehavior(0.1, 0.02, 0.1, 0.02)
    segments = tuple(
        Segment(20, {m: good if m == best else poor for m in "abc"}, texture_seed=i)
        for i, best in enumerate("abcab")
    )
    loads = {"a": (0.25, 1.0), "b": (0.5, 2.0), "c": (0.75, 3.0)}
    catalog = make_catalog(
        [make_profile(m, "gpu", 0.1, 1.0, memory=10, load_time=t, load_energy=e)
         for m, (t, e) in loads.items()],
        capacities={"gpu": 20},
    )
    config = SchedulerConfig(w_accuracy=1, w_energy=0, w_latency=0, momentum=3)
    return Scenario(segments, width=16, height=16), catalog, config


def make_trace(rows: list[dict[str, tuple[float, float]]]) -> CharacterizationTrace:
    """Frames from [{model: (confidence, iou)}, ...]; boxes omitted."""
    frames = []
    for i, row in enumerate(rows):
        per_model = {
            m: DetectionOutcome(
                confidence=c,
                iou=v,
                box=BoundingBox(0, 0, 10, 10) if v > 0 else None,
            )
            for m, (c, v) in row.items()
        }
        frames.append(FrameRecord(frame_index=i, per_model=per_model))
    return CharacterizationTrace(frames=tuple(frames))


def with_ghost(
    catalog: Catalog, trace: CharacterizationTrace, first: int
) -> tuple[Catalog, CharacterizationTrace]:
    """`catalog` plus a model `ghost` that is compatible with gpu but has no
    profile, and `trace` with frames from `first` on observing only ghost."""
    ghost = {"ghost": DetectionOutcome(confidence=0.9, iou=0.8, box=BoundingBox(0, 0, 10, 10))}
    frames = tuple(
        fr if i < first else replace(fr, per_model=ghost) for i, fr in enumerate(trace.frames)
    )
    return (
        replace(
            catalog,
            models=(*catalog.models, "ghost"),
            compatibility=catalog.compatibility | {("ghost", "gpu")},
        ),
        CharacterizationTrace(frames=frames),
    )


def brute_force_neighborhood(
    cg: CostGraph, start, threshold: float
) -> dict[tuple, float]:
    """Independent oracle: enumerate all simple paths with cumulative cost
    <= threshold and keep the per-node minimum."""
    adj: dict[tuple, list[tuple[tuple, float]]] = {k: [] for k in cg.nodes}
    for (src, dst), cost in sorted(cg.arcs.items()):
        adj[src].append((dst, cost))
    best = {start: 0.0}

    def dfs(node, cost_so_far, visited):
        for nxt, cost in adj[node]:
            if nxt in visited:
                continue
            total = cost_so_far + cost
            if total > threshold:
                continue
            if nxt not in best or total < best[nxt]:
                best[nxt] = total
            dfs(nxt, total, visited | {nxt})

    dfs(start, 0.0, {start})
    return best


def random_cost_graph(rng: np.random.Generator) -> CostGraph:
    """Random small graph (<= 8 nodes) built through the real pipeline."""
    n_models = int(rng.integers(2, 5))
    width = 0.5 if n_models > 2 else 0.25
    models = [f"m{i}" for i in range(n_models)]
    rows = []
    for _ in range(int(rng.integers(3, 11))):
        rows.append(
            {
                m: (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
                for m in models
                if rng.uniform() < 0.8
            }
        )
    rows = [r for r in rows if r] or [{models[0]: (0.5, 0.5)}]
    return normalize_invert(build_cograph(make_trace(rows), width))


_UNIT, _SIGMA = st.floats(0.0, 1.0), st.floats(0.0, 0.5)
# Small scenarios over the builtin models, with and without frames.
SCENARIOS = st.builds(
    Scenario,
    segments=st.lists(
        st.builds(
            Segment,
            frames=st.integers(1, 8),
            models=st.dictionaries(
                st.sampled_from(builtin_catalog().models),
                st.builds(ModelBehavior, _UNIT, _SIGMA, _UNIT, _SIGMA),
                min_size=1,
                max_size=3,
            ),
            texture_seed=st.none() | st.integers(0, 9),
        ),
        min_size=1,
        max_size=3,
    ).map(tuple),
    width=st.integers(8, 24),
    height=st.integers(8, 24),
    emit_frames=st.booleans(),
)


@pytest.fixture(scope="session")
def builtin():
    return builtin_catalog()


@pytest.fixture(scope="session")
def demo_trace():
    return gen_trace(demo_scenario(), 0)
