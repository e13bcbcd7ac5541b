"""Dynamic model loader: per-accelerator memory with least-recently-requested
eviction.

Each accelerator manages its own memory independently, built once from the
catalog, which has already checked that each of its profiles fits.
Requesting a resident model is free and refreshes its recency; a miss evicts
the least recently requested residents (oldest first) until the new model
fits, then charges the profile's load time and energy.  Eviction itself is
free.
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
    """Residency tracker for one accelerator of a catalog."""

    def __init__(self, accelerator: AcceleratorId, catalog: Catalog) -> None:
        self.accelerator = accelerator
        self.capacity_bytes = catalog.accelerators[accelerator].memory_bytes
        # model -> its profile here; the models this accelerator can load
        self._profiles = {
            p.model: p for p in catalog.profiles.values() if p.accelerator == accelerator
        }
        # model -> memory_bytes; insertion order is recency (oldest first)
        self._resident: OrderedDict[ModelId, int] = OrderedDict()
        self.used_bytes = 0  # their sum, kept by every load and eviction

    @property
    def resident(self) -> tuple[ModelId, ...]:
        """Resident models, least recently requested first."""
        return tuple(self._resident)

    def request(self, model: ModelId) -> LoadOutcome:
        """Make `model` resident, evicting least-recently-requested models
        as needed, and report what it cost."""
        if model in self._resident:
            self._resident.move_to_end(model)
            return LoadOutcome(kind="hit")
        profile = self._profiles.get(model)
        if profile is None:
            raise ValueError(
                f"model {model!r} is not compatible with accelerator "
                f"{self.accelerator!r}"
            )
        size = profile.memory_bytes
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

    def prefill(self, priority: Iterable[ModelId]) -> set[ModelId]:
        """Greedily load models in priority order while they fit; never evict.

        Models without a profile on this accelerator are skipped: the
        profile is what carries the memory footprint.
        """
        loaded: set[ModelId] = set()
        for model in priority:
            profile = self._profiles.get(model)
            if profile is None:
                continue
            if model in self._resident:
                loaded.add(model)
                continue
            size = profile.memory_bytes
            if self.used_bytes + size <= self.capacity_bytes:
                self._resident[model] = size
                self.used_bytes += size
                loaded.add(model)
        return loaded
