"""Dynamic model loader: per-accelerator memory with least-recently-requested
eviction.

Each accelerator manages its own memory independently.  Requesting a
resident model is free and refreshes its recency; a miss evicts the least
recently requested residents (oldest first) until the new model fits, then
charges the profile's load time and energy.  Eviction itself is free.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

from .catalog import AcceleratorId, Catalog, ModelId


@dataclass(frozen=True)
class LoadOutcome:
    kind: str  # "hit" | "cold_load" | "evict_load"
    evicted: tuple[ModelId, ...] = ()
    time_cost_s: float = 0.0
    energy_cost_j: float = 0.0


class AcceleratorMemory:
    """Residency tracker for one accelerator."""

    def __init__(self, accelerator: AcceleratorId, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity_bytes}")
        self.accelerator = accelerator
        self.capacity_bytes = capacity_bytes
        # model -> memory_bytes; insertion order is recency (oldest first)
        self._resident: OrderedDict[ModelId, int] = OrderedDict()
        self.used_bytes = 0  # their sum, kept by every load and eviction

    @property
    def resident(self) -> tuple[ModelId, ...]:
        """Resident models, least recently requested first."""
        return tuple(self._resident)

    def request(self, model: ModelId, catalog: Catalog) -> LoadOutcome:
        """Make `model` resident, evicting least-recently-requested models
        as needed, and report what it cost."""
        if not catalog.is_compatible(model, self.accelerator):
            raise ValueError(
                f"model {model!r} is not compatible with accelerator "
                f"{self.accelerator!r}"
            )
        if model in self._resident:
            self._resident.move_to_end(model)
            return LoadOutcome(kind="hit")

        profile = catalog.profile(model, self.accelerator)
        size = profile.memory_bytes
        if size > self.capacity_bytes:
            raise ValueError(
                f"model {model!r} ({size} B) exceeds {self.accelerator!r} "
                f"capacity ({self.capacity_bytes} B)"
            )
        evicted: list[ModelId] = []
        while self.used_bytes + size > self.capacity_bytes:
            victim, victim_size = self._resident.popitem(last=False)
            self.used_bytes -= victim_size
            evicted.append(victim)
        self._resident[model] = size
        self.used_bytes += size
        return LoadOutcome(
            kind="evict_load" if evicted else "cold_load",
            evicted=tuple(evicted),
            time_cost_s=profile.load_time_s,
            energy_cost_j=profile.load_energy_j,
        )

    def prefill(self, catalog: Catalog, priority: Iterable[ModelId]) -> set[ModelId]:
        """Greedily load models in priority order while they fit; never evict.

        Models without a profile on this accelerator are skipped: the
        profile is what carries the memory footprint.
        """
        loaded: set[ModelId] = set()
        for model in priority:
            if (model, self.accelerator) not in catalog.profiles:
                continue
            if model in self._resident:
                loaded.add(model)
                continue
            size = catalog.profile(model, self.accelerator).memory_bytes
            if self.used_bytes + size <= self.capacity_bytes:
                self._resident[model] = size
                self.used_bytes += size
                loaded.add(model)
        return loaded
