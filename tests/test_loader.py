from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_catalog, make_profile
from odsched.loader import AcceleratorMemory

GB = 10**9


def _catalog():
    return make_catalog(
        [
            make_profile("a", "gpu", 0.1, 10.0, memory=1 * GB, load_time=0.5, load_energy=2.0),
            make_profile("b", "gpu", 0.1, 10.0, memory=1 * GB, load_time=0.3, load_energy=1.5),
            make_profile("c", "gpu", 0.1, 10.0, memory=int(1.5 * GB), load_time=0.8, load_energy=4.0),
            make_profile("d", "dla", 0.1, 10.0, memory=1 * GB, load_time=0.2, load_energy=1.0),
        ],
        capacities={"gpu": 2 * GB, "dla": 2 * GB},
    )


def test_cold_load_without_eviction():
    cat = _catalog()
    mem = AcceleratorMemory("gpu", 2 * GB)
    mem.request("a", cat)
    out = mem.request("b", cat)
    assert out.kind == "cold_load"
    assert out.evicted == ()
    assert out.time_cost_s == 0.3 and out.energy_cost_j == 1.5
    assert mem.used_bytes == 2 * GB


def test_multi_eviction_in_lru_order():
    cat = _catalog()
    mem = AcceleratorMemory("gpu", 2 * GB)
    mem.request("a", cat)
    mem.request("b", cat)  # a is now older
    out = mem.request("c", cat)  # 1.5 GB does not fit next to either
    assert out.kind == "evict_load"
    assert out.evicted == ("a", "b")
    assert mem.resident == ("c",)


def test_hit_is_free_and_refreshes_recency():
    cat = _catalog()
    mem = AcceleratorMemory("gpu", 2 * GB)
    mem.request("a", cat)
    mem.request("b", cat)
    hit = mem.request("a", cat)
    assert hit.kind == "hit" and hit.time_cost_s == 0.0 and hit.energy_cost_j == 0.0
    # b is now the least recently requested, so c evicts b first
    out = mem.request("c", cat)
    assert out.evicted == ("b", "a")  # c needs both slots; b goes first


def test_request_incompatible_pair():
    cat = _catalog()
    mem = AcceleratorMemory("dla", 2 * GB)
    with pytest.raises(ValueError, match="not compatible"):
        mem.request("a", cat)


def test_request_larger_than_capacity():
    cat = _catalog()
    mem = AcceleratorMemory("gpu", 1 * GB)
    with pytest.raises(ValueError, match="exceeds"):
        mem.request("c", cat)


@pytest.mark.parametrize("capacity", [0, -1])
def test_capacity_must_be_positive(capacity):
    with pytest.raises(ValueError, match=f"capacity must be > 0, got {capacity}"):
        AcceleratorMemory("gpu", capacity)


def test_is_resident_does_not_touch_recency():
    cat = _catalog()
    mem = AcceleratorMemory("gpu", 2 * GB)
    mem.request("a", cat)
    mem.request("b", cat)
    assert "a" in mem.resident
    assert "zzz" not in mem.resident
    out = mem.request("c", cat)
    assert out.evicted[0] == "a"  # the membership query did not refresh a


def test_prefill_empty_priority():
    mem = AcceleratorMemory("gpu", 2 * GB)
    assert mem.prefill(_catalog(), []) == set()
    assert mem.resident == ()


def test_prefill_greedy_skips_what_does_not_fit():
    cat = _catalog()
    mem = AcceleratorMemory("gpu", 2 * GB)
    # c = 1.5 GB loads; a and b (1 GB each) no longer fit and are skipped
    assert mem.prefill(cat, ["c", "a", "b"]) == {"c"}
    assert mem.resident == ("c",)
    # with half a GB more, the 1 GB follow-ups still don't fit but a smaller
    # capacity split shows the iff: 2.5 GB fits exactly one of them
    mem2 = AcceleratorMemory("gpu", int(2.5 * GB))
    assert mem2.prefill(cat, ["c", "a", "b"]) == {"c", "a"}
    assert mem2.resident == ("c", "a")


def test_prefill_loads_everything_when_capacity_allows():
    cat = _catalog()
    mem = AcceleratorMemory("gpu", 4 * GB)
    assert mem.prefill(cat, ["a", "b", "c"]) == {"a", "b", "c"}


def test_prefill_ignores_incompatible_models():
    cat = _catalog()
    mem = AcceleratorMemory("gpu", 4 * GB)
    assert mem.prefill(cat, ["d", "a"]) == {"a"}


def test_prefill_skips_unprofiled_compatible_models():
    from odsched.catalog import Catalog

    base = _catalog()
    cat = Catalog(
        accelerators=base.accelerators,
        models=base.models,
        compatibility=base.compatibility | {("d", "gpu")},  # compatible, no profile
        profiles=base.profiles,
    )
    mem = AcceleratorMemory("gpu", 4 * GB)
    assert mem.prefill(cat, ["d", "a"]) == {"a"}


def test_accelerator_isolation():
    cat = _catalog()
    gpu = AcceleratorMemory("gpu", 2 * GB)
    dla = AcceleratorMemory("dla", 2 * GB)
    gpu.request("a", cat)
    dla.request("d", cat)
    assert gpu.resident == ("a",) and dla.resident == ("d",)


@pytest.mark.parametrize("capacity", [400, 800, 1500])
def test_randomized_lru_laws_against_reference_model(capacity):
    rng = np.random.default_rng(42)
    sizes = {f"m{i}": int(rng.integers(50, 400)) for i in range(6)}
    profiles = [
        make_profile(m, "gpu", 0.1, 10.0, memory=s, load_time=0.1, load_energy=0.2)
        for m, s in sizes.items()
    ]
    cat = make_catalog(profiles, capacities={"gpu": capacity})
    mem = AcceleratorMemory("gpu", capacity)

    recency: list[str] = []  # oldest first, reference implementation
    # A prefill loads in priority order what fits, never evicting; the first
    # model always fits, so naming it again takes the already-resident path.
    priority = [f"m{i}" for i in rng.integers(0, 6, size=5)]
    priority.append(priority[0])
    for model in priority:
        if model not in recency and sum(sizes[m] for m in recency) + sizes[model] <= capacity:
            recency.append(model)
    assert mem.prefill(cat, priority) == set(recency)
    assert mem.resident == tuple(recency)
    total_time = 0.0
    loads = 0
    for _ in range(3000):
        model = f"m{rng.integers(0, 6)}"
        expected_hit = model in recency
        out = mem.request(model, cat)
        if expected_hit:
            assert out.kind == "hit" and out.time_cost_s == 0.0
            recency.remove(model)
            recency.append(model)
        else:
            loads += 1
            total_time += out.time_cost_s
            expected_evictions = []
            used = sum(sizes[m] for m in recency)
            while used + sizes[model] > capacity:
                victim = recency.pop(0)
                expected_evictions.append(victim)
                used -= sizes[victim]
            assert list(out.evicted) == expected_evictions
            recency.append(model)
        assert mem.used_bytes <= capacity
        assert mem.resident == tuple(recency)
    assert total_time == pytest.approx(loads * 0.1)


@st.composite
def _request_streams(draw):
    """Model sizes, a capacity that fits the largest, a prefill priority
    list and a stream of requests over the same models."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    models = [f"m{i}" for i in range(len(sizes))]
    capacity = draw(st.integers(max(sizes), 2 * sum(sizes)))
    priority = draw(st.lists(st.sampled_from(models), max_size=6))
    stream = draw(st.lists(st.sampled_from(models), max_size=40))
    return dict(zip(models, sizes)), capacity, priority, stream


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_request_streams())
def test_memory_matches_plain_list_lru(case):
    sizes, capacity, priority, stream = case
    cat = make_catalog(
        [make_profile(m, "gpu", 0.1, 1.0, memory=size, load_time=0.5, load_energy=size)
         for m, size in sizes.items()],
        capacities={"gpu": capacity},
    )
    mem = AcceleratorMemory("gpu", capacity)
    # The reference: a list of residents, least recently requested first,
    # whose used bytes are always re-summed.
    recency: list[str] = []

    def used() -> int:
        return sum(sizes[m] for m in recency)

    for model in priority:
        if model not in recency and used() + sizes[model] <= capacity:
            recency.append(model)
    assert mem.prefill(cat, priority) == set(recency)
    assert mem.resident == tuple(recency) and mem.used_bytes == used()

    for model in stream:
        out = mem.request(model, cat)
        if model in recency:
            recency.remove(model)
            expected = ("hit", (), 0.0, 0.0)
        else:
            evicted = []
            while used() + sizes[model] > capacity:
                evicted.append(recency.pop(0))
            kind = "evict_load" if evicted else "cold_load"
            expected = (kind, tuple(evicted), 0.5, float(sizes[model]))
        recency.append(model)
        assert (out.kind, out.evicted, out.time_cost_s, out.energy_cost_j) == expected
        assert mem.resident == tuple(recency)
        assert mem.used_bytes == used() <= capacity
