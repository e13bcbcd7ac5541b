"""Correctness gate: every measured operation is checked, and failures are
counted against operations attempted."""

from __future__ import annotations

import collections
import hashlib
import sys
import traceback
from pathlib import Path
from typing import Any, Callable, Sequence

from odsched import sim
from odsched.catalog import Catalog, CharacterizationTrace

# Bound at import, before any tracer patches odsched.sim.metrics, so the
# reconciliation never runs through a span.
_REFERENCE_METRICS = sim.metrics


def _size(value: Any) -> int | None:
    if isinstance(value, (dict, list, set, bytearray, collections.deque)):
        return len(value)
    info = getattr(value, "cache_info", None)
    return info().currsize if callable(info) else None


def module_state() -> dict[tuple[str, str], int]:
    """Size of every container and functools cache that an odsched module,
    or a class defined in one, holds under a name that is not a dunder."""
    state = {}
    for name, module in list(sys.modules.items()):
        if name != "odsched" and not name.startswith("odsched."):
            continue
        owners = [(name, vars(module))] + [
            (f"{name}.{key}", vars(value))
            for key, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == name
        ]
        for owner, attrs in owners:
            for key, value in attrs.items():
                if key.startswith("__"):
                    continue
                size = _size(value)
                if size is not None:
                    state[(owner, key)] = size
    return state


def object_state(objects: Sequence[Any]) -> list[tuple[str, str, int | None]]:
    """Every attribute of `objects`, with the size of those that are
    containers."""
    return [
        (type(obj).__name__, key, _size(value))
        for obj in objects
        for key, value in sorted(getattr(obj, "__dict__", {}).items())
    ]


# Taken at import, before the benchmark calls into odsched.
_MODULE_STATE = module_state()


def input_objects(
    trace: CharacterizationTrace, catalog: Catalog, pm: Any
) -> list[Any]:
    """The inputs every timed call shares: trace, frames, catalog, map."""
    frames = [fr.frame for fr in trace.frames if fr.frame is not None]
    return [trace, catalog, pm, *trace.frames, *frames]


def check_no_carryover(objects: Sequence[Any], before: list) -> None:
    """No call may leave work behind for the next one: odsched's modules
    and classes hold what they held at import, and the shared inputs gain
    no attribute and no entry.  A memo must live and die inside one
    `sim.run`, `sim.sweep` or `schedule` pass, or repeated calls would time
    a warm cache."""
    grown = sorted(
        f"{owner}.{key}"
        for (owner, key), size in module_state().items()
        if size != _MODULE_STATE.get((owner, key), 0)
    )
    expect(not grown, f"module state outlived the call: {grown}")
    expect(object_state(objects) == before, "the inputs carry state from the call")


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Gate:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def run(self, what: str, fn: Callable[[], Any]) -> Any:
        """Run one operation; return its result, or None when it failed."""
        self.attempted += 1
        try:
            return fn()
        except CheckFailed as exc:
            self.failures.append(f"{what}: {exc}")
        except Exception:  # noqa: BLE001 -- a program error is a failed operation
            self.failures.append(f"{what}: {traceback.format_exc(limit=3)}")
        return None


def check_report(
    report: sim.SimulationReport, trace: CharacterizationTrace, catalog: Catalog
) -> None:
    """Frames cover the trace, aggregates reconcile, pairs are profiled."""
    expect(report.frames == len(trace), f"frames {report.frames} != {len(trace)}")
    expect(
        [f.frame_index for f in report.per_frame]
        == [fr.frame_index for fr in trace.frames],
        "per-frame indices do not match the trace",
    )
    recomputed = _REFERENCE_METRICS(report.per_frame, catalog.gpu_accelerators())
    for key, value in recomputed.items():
        expect(getattr(report, key) == value, f"{key} does not reconcile")
    unprofiled = {
        (f.model, f.accelerator)
        for f in report.per_frame
        if (f.model, f.accelerator) not in catalog.profiles
    }
    expect(not unprofiled, f"unprofiled pairs chosen: {sorted(unprofiled)}")


def pairs_of(report: sim.SimulationReport) -> list[tuple[str, str]]:
    return [(f.model, f.accelerator) for f in report.per_frame]


def report_digest(report: sim.SimulationReport, workdir: Path) -> str:
    path = workdir / "report.json"
    sim.write_report(report, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sweep_digest(results: Sequence, workdir: Path) -> str:
    path = workdir / "sweep.csv"
    sim.write_sweep_csv(results, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()
