"""The simulator against the naive replay of `reference`, end to end, and
the public names that the reference took over."""

from __future__ import annotations

import importlib
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import odsched
from conftest import SCENARIOS, evicting_case
from odsched.catalog import Catalog, builtin_catalog
from odsched.scheduler import SchedulerConfig
from odsched.sim import (
    DEFAULT_OVERHEAD_S,
    PARAM_ORDER,
    ModelBehavior,
    Policy,
    Scenario,
    Segment,
    gen_trace,
    run,
    sweep,
)
from reference import replay

_UNIT = st.floats(0.0, 1.0)
_WEIGHT = st.one_of(st.sampled_from((0.0, 0.5, 1.0, 2.0)), st.floats(0.01, 2.0))
_CONFIGS = st.builds(
    lambda weights, **rest: SchedulerConfig(*weights, **rest),
    st.tuples(_WEIGHT, _WEIGHT, _WEIGHT).filter(any),
    accuracy_threshold=st.one_of(st.sampled_from((0.0, 0.25, 0.5, 1.0)), _UNIT),
    momentum=st.integers(1, 5) | st.just(30),
    distance_threshold=st.sampled_from((0.0, 0.25, 0.5, 1.0)) | st.floats(0.0, 2.0),
    bucket_width=st.sampled_from((0.1, 0.2, 0.25, 0.5, 1.0)) | st.floats(0.05, 1.0),
)


def _cut_first_pairs(models) -> Catalog:
    """The builtin catalog without the given models' pairs on the
    first-sorting accelerator.

    In the builtin catalog every model has a profile there, so the oracles'
    (model, accelerator) tie order would look the same as (accelerator,
    model)."""
    base = builtin_catalog()
    cut = {(m, min(base.accelerators)) for m in models}
    return replace(
        base,
        compatibility=base.compatibility - cut,
        profiles={pair: p for pair, p in base.profiles.items() if pair not in cut},
    )


@st.composite
def _evicting_catalogs(draw) -> Catalog:
    """`_cut_first_pairs` of some models, with each accelerator's memory cut
    to between its largest profile and one byte less than all of them."""
    base = _cut_first_pairs(draw(st.sets(st.sampled_from(builtin_catalog().models))))
    accelerators = {}
    for name, acc in base.accelerators.items():
        sizes = [p.memory_bytes for p in base.profiles.values() if p.accelerator == name]
        if sizes:
            capacity = draw(st.integers(max(sizes), max(max(sizes), sum(sizes) - 1)))
            acc = replace(acc, memory_bytes=capacity)
        accelerators[name] = acc
    return replace(base, accelerators=accelerators)


@st.composite
def _grids(draw) -> dict:
    """One or two parameters, each swept over the values of two configs."""
    a, b = draw(_CONFIGS).params(), draw(_CONFIGS).params()
    names = draw(st.sets(st.sampled_from(PARAM_ORDER), min_size=1, max_size=2))
    # At most two: with two weights swept to 0, the third keeps its positive
    # default, so every combination is a valid config.
    return {name: sorted({a[name], b[name]}) for name in sorted(names)}


_SCENARIO, _CATALOG, _CONFIG = evicting_case()
# Two models with the same IoU on every frame; only the second keeps its
# pair on the first-sorting accelerator.
_PERFECT = ModelBehavior(0.9, 0.0, 1.0, 0.0)
_TIED = Scenario((Segment(3, {"yolov7": _PERFECT, "yolov7-tiny": _PERFECT}),), emit_frames=False)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    scenario=SCENARIOS,
    seed=st.integers(0, 2**16),
    catalog=_evicting_catalogs(),
    config=_CONFIGS,
    pick=st.integers(0, 17),
    overhead=st.sampled_from((0.0, DEFAULT_OVERHEAD_S, 0.25)),
    grid=_grids(),
)
@example(
    scenario=_SCENARIO, seed=1, catalog=_CATALOG, config=_CONFIG, pick=2,
    overhead=DEFAULT_OVERHEAD_S, grid={"momentum": [1, 3], "w_energy": [0.0, 0.5]},
)
@example(
    scenario=_TIED, seed=0, catalog=_cut_first_pairs({"yolov7"}), config=SchedulerConfig(),
    pick=0, overhead=0.0, grid={"momentum": [1, 2]},
)
def test_run_and_sweep_equal_the_naive_replay(
    scenario, seed, catalog, config, pick, overhead, grid
):
    trace = gen_trace(scenario, seed)
    pairs = catalog.profiled_pairs()
    policies = [
        Policy.shift(config),
        Policy.single(*pairs[pick % len(pairs)]),
        *(Policy.oracle(o) for o in ("energy", "accuracy", "latency")),
    ]
    for policy in policies:
        for prefill in (False, True):
            got = run(trace, catalog, policy, scheduler_overhead_s=overhead, prefill=prefill)
            want = replay(trace, catalog, policy, scheduler_overhead_s=overhead, prefill=prefill)
            assert got == want, (policy.describe(), prefill)
    for cfg, report in sweep(trace, catalog, grid, scheduler_overhead_s=overhead):
        assert report == replay(trace, catalog, Policy.shift(cfg), scheduler_overhead_s=overhead)


def _removed_names() -> set[str]:
    """The names the README's sentences "... gone from the public API" list."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    text = " ".join(readme.split())
    subjects = re.findall(r"([^.:]*) (?:is|are) gone from the public API", text)
    return {name for subject in subjects for name in re.findall(r"`(\w+)`", subject)}


# Each removed name, by the module that defined it.
_REMOVED = {
    "Bucket": "confidence_graph",
    "bucket_for": "confidence_graph",
    "ncc": "context",
    "similarity": "context",
    "valid_set": "scheduler",
    "score_candidates": "scheduler",
    "best_pair": "scheduler",
    "Knobs": "scheduler",
}


def test_the_readme_lists_every_removed_name():
    assert _removed_names() == set(_REMOVED)


@pytest.mark.parametrize(("name", "module"), sorted(_REMOVED.items()))
def test_removed_name_is_gone(name, module):
    with pytest.raises(AttributeError):
        getattr(odsched, name)
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(f"odsched.{module}"), name)
