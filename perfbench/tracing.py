"""In-process spans around odsched's public functions.

The benchmark patches module attributes from its own files; the library
itself is not instrumented.  Each target is patched under the name its
callers look it up by (``odsched.sim.schedule`` is what the replay loop
calls, ``odsched.scheduler.predict`` is what ``schedule`` calls), so the
spans nest exactly as the calls do.  A target that no longer exists is
recorded as a missing span instead of failing the run.

Spans are kept in memory as ``Span`` records; a span's self time is its
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Any, Callable

from odsched import catalog, confidence_graph, loader, scheduler, sim


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    child_s: float = 0.0
    tag: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _label(owner: Any) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}"
    return owner.__name__


def _predict_fallback(args: tuple, _out: Any) -> bool:
    pm, model, confidence = args[:3]
    idx = confidence_graph.bucket_index(confidence, pm.bucket_width)
    return (model, idx) not in pm.entries


def _load_outcome(_args: tuple, out: Any) -> tuple[str, int]:
    return out.kind, len(out.evicted)


def _rescheduled(_args: tuple, out: Any) -> bool:
    return out.rescheduled


# (owner, attribute, span name, tag extractor or None)
TARGETS: tuple[tuple[Any, str, str, Callable | None], ...] = (
    (catalog, "load_catalog", "catalog.load_catalog", None),
    (catalog, "load_trace", "catalog.load_trace", None),
    (confidence_graph, "build_prediction_map", "confidence_graph.build", None),
    (sim, "build_prediction_map", "confidence_graph.build", None),
    (confidence_graph, "build_cograph", "confidence_graph.build_cograph", None),
    (confidence_graph, "normalize_invert", "confidence_graph.normalize_invert", None),
    (confidence_graph, "neighborhood", "confidence_graph.neighborhood", None),
    (confidence_graph, "consolidate", "confidence_graph.consolidate", None),
    (scheduler, "predict", "confidence_graph.predict", _predict_fallback),
    (scheduler, "FrameStats", "context.framestats", None),
    (scheduler, "ncc_cached", "context.frame_ncc", None),
    (scheduler, "bbox_similarity", "context.box_ncc", None),
    (sim, "schedule", "scheduler.schedule", _rescheduled),
    (loader.AcceleratorMemory, "request", "loader.request", _load_outcome),
    (sim, "metrics", "sim.metrics", None),
    (sim, "run", "sim.run", None),
    (sim, "sweep", "sim.sweep", None),
)


class Tracer:
    """Patches every target on `install()` and restores it on `restore()`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def install(self) -> None:
        self.missing = []
        for owner, attr, name, tag in TARGETS:
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{_label(owner)}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name, tag))
            self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and clear the record.

        Call only between top-level calls: open spans index into the list.
        """
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def _wrap(self, fn: Callable, name: str, tag: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else -1
            rec = Span(name, 0.0, 0.0, parent)
            stack.append(len(spans))
            spans.append(rec)
            rec.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_s += rec.end - rec.start
            if tag is not None:
                try:
                    rec.tag = tag(args, out)
                except (AttributeError, IndexError, TypeError, ValueError):
                    # A changed signature loses the tag, not the run.
                    rec.tag = None
            return out

        return traced
