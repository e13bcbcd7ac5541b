"""Model/accelerator catalog and characterization traces.

The catalog describes which detection models exist, which accelerators can
run them, and the measured per-pair performance traits (latency, power,
energy, memory footprint, load cost).  A characterization trace records, per
video frame, each model's confidence score and achieved IoU, optionally with
the ground-truth box and the grayscale frame itself.

File formats
------------
Catalog: a single JSON document::

    {
      "energy_tolerance": 0.05,            # optional, default 0.05
      "accelerators": [{"name": "gpu", "memory_bytes": 600000000,
                        "gpu": true}, ...],
      "models": ["yolov7", ...],
      "compatibility": {"yolov7": ["gpu", "dla"], ...},
      "profiles": [{"model": "yolov7", "accelerator": "gpu",
                    "avg_latency_s": 0.130, "avg_power_w": 15.14,
                    "avg_energy_j": 1.968, "memory_bytes": 75000000,
                    "load_time_s": 0.35, "load_energy_j": 2.1}, ...]
    }

Trace: newline-delimited JSON, one record per frame::

    {"frame": 0,
     "ground_truth": {"x_min": ..., "y_min": ..., "x_max": ..., "y_max": ...},
     "frame_image": "frames/000.pgm" | {"width": ..., "height": ...,
                                        "pixels_b64": "..."},
     "detections": {"yolov7": {"confidence": 0.83, "iou": 0.61,
                               "box": {...}}}}

`ground_truth`, `frame_image`, and a detection's `box` are all optional.
A `frame_image` string is a PGM (P5) path resolved relative to the trace
file's directory.  Frame indices strictly increase, every frame has the first
frame's size and a framed record's boxes lie inside it, checked when the trace
is built (after all lines decode if loaded), naming `<path>:<line>` or `frame <i>`.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping

from .errors import (
    DECODE_ERRORS,
    CatalogError,
    TraceError,
    decode_error,
    json_bool,
    json_float,
    json_int,
    json_names,
    json_str,
    load_json,
    write_json,
)
from .images import GrayscaleImage, decode_inline, encode_inline, read_pgm

ModelId = str
AcceleratorId = str
Pair = tuple[ModelId, AcceleratorId]

DEFAULT_ENERGY_TOLERANCE = 0.05

_FLOAT_MAX = sys.float_info.max


# ---------------------------------------------------------------------------
# Geometry


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in pixel coordinates, corner-form."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        # The valid case in one chained test; NaN, infinity and a number too
        # large for a float fail it and get the checks below, which explain.
        if (
            0 <= self.x_min <= self.x_max <= _FLOAT_MAX
            and 0 <= self.y_min <= self.y_max <= _FLOAT_MAX
        ):
            return
        coords = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"box coordinates must be finite, got {coords}")
        if min(coords) < 0:
            raise ValueError(f"box coordinates must be non-negative, got {coords}")
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError(f"box corners out of order: {coords}")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union of two boxes, in [0, 1].

    Identical boxes score 1 even when degenerate (zero area); any other
    union-free configuration scores 0, so the ratio never divides 0/0.
    """
    if a == b:
        return 1.0
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return inter / union


def energy_of(latency_s: float, power_w: float) -> float:
    """Energy in joules spent running for `latency_s` at `power_w`."""
    if latency_s < 0 or power_w < 0:
        raise ValueError("latency and power must be non-negative")
    return latency_s * power_w


# ---------------------------------------------------------------------------
# Catalog


@dataclass(frozen=True)
class Accelerator:
    name: AcceleratorId
    memory_bytes: int
    is_gpu: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("accelerator name must be non-empty")
        if self.memory_bytes <= 0:
            raise CatalogError(f"accelerator {self.name!r}: memory_bytes must be > 0")


@dataclass(frozen=True)
class ModelProfile:
    """Measured traits of one model on one accelerator."""

    model: ModelId
    accelerator: AcceleratorId
    avg_latency_s: float
    avg_power_w: float
    avg_energy_j: float
    memory_bytes: int
    load_time_s: float
    load_energy_j: float

    def __post_init__(self) -> None:
        pair = f"({self.model}, {self.accelerator})"
        for name in ("avg_latency_s", "avg_power_w", "avg_energy_j", "memory_bytes"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise CatalogError(f"profile {pair}: {name} must be finite and > 0")
        for name in ("load_time_s", "load_energy_j"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise CatalogError(f"profile {pair}: {name} must be finite and >= 0")

    @property
    def pair(self) -> Pair:
        return (self.model, self.accelerator)


@dataclass(frozen=True)
class Catalog:
    """Immutable model/accelerator inventory with per-pair traits."""

    accelerators: Mapping[AcceleratorId, Accelerator]
    models: tuple[ModelId, ...]
    compatibility: frozenset[Pair]
    profiles: Mapping[Pair, ModelProfile]
    energy_tolerance: float = DEFAULT_ENERGY_TOLERANCE

    def __post_init__(self) -> None:
        # Canonical model order makes save -> load an identity.
        object.__setattr__(self, "models", tuple(sorted(self.models)))
        if not (math.isfinite(self.energy_tolerance) and self.energy_tolerance > 0):
            raise CatalogError("energy_tolerance must be finite and > 0")
        _validate_catalog(self)

    def profiled_pairs(self) -> tuple[Pair, ...]:
        return tuple(sorted(self.profiles))

    def profile(self, model: ModelId, accelerator: AcceleratorId) -> ModelProfile:
        try:
            return self.profiles[(model, accelerator)]
        except KeyError:
            raise KeyError(f"no profile for pair ({model}, {accelerator})") from None

    def gpu_accelerators(self) -> frozenset[AcceleratorId]:
        return frozenset(a.name for a in self.accelerators.values() if a.is_gpu)


def _validate_catalog(cat: Catalog) -> None:
    for name in cat.models:
        if not name:
            raise CatalogError("model names must be non-empty")
    if len(set(cat.models)) != len(cat.models):
        raise CatalogError("duplicate model id in catalog")
    known_models = set(cat.models)
    known_accels = set(cat.accelerators)
    for model, accel in cat.compatibility:
        if model not in known_models:
            raise CatalogError(f"compatibility references unknown model {model!r}")
        if accel not in known_accels:
            raise CatalogError(f"compatibility references unknown accelerator {accel!r}")
    if not cat.compatibility:
        raise CatalogError("catalog has no compatible (model, accelerator) pair")
    for pair, prof in cat.profiles.items():
        if pair != prof.pair:
            raise CatalogError(f"profile keyed under wrong pair: {pair}")
        if pair not in cat.compatibility:
            raise CatalogError(
                f"profile for incompatible pair ({prof.model}, {prof.accelerator})"
            )
        expected = energy_of(prof.avg_latency_s, prof.avg_power_w)
        if abs(prof.avg_energy_j - expected) > cat.energy_tolerance * prof.avg_energy_j:
            raise CatalogError(
                f"profile ({prof.model}, {prof.accelerator}): avg_energy_j "
                f"{prof.avg_energy_j} inconsistent with latency x power "
                f"= {expected:.6g} J (tolerance {cat.energy_tolerance:.0%})"
            )
        capacity = cat.accelerators[prof.accelerator].memory_bytes
        if prof.memory_bytes > capacity:
            raise CatalogError(
                f"profile ({prof.model}, {prof.accelerator}): memory_bytes "
                f"{prof.memory_bytes} exceeds {prof.accelerator!r} capacity "
                f"({capacity} B)"
            )


def catalog_from_dict(doc: dict) -> Catalog:
    if not isinstance(doc, dict):
        raise CatalogError("catalog document must be a JSON object")
    where = "catalog"
    try:
        tolerance = DEFAULT_ENERGY_TOLERANCE
        if "energy_tolerance" in doc:
            tolerance = json_float(doc, "energy_tolerance")
        accelerators: dict[str, Accelerator] = {}
        where = "accelerators"
        for i, entry in enumerate(doc["accelerators"]):
            where = f"accelerators[{i}]"
            name = json_str(entry, "name")
            acc = Accelerator(
                name=name,
                memory_bytes=json_int(entry, "memory_bytes"),
                is_gpu=json_bool(entry, "gpu", name.lower() == "gpu"),
            )
            if acc.name in accelerators:
                raise CatalogError(f"duplicate accelerator {acc.name!r}")
            accelerators[acc.name] = acc
        where = "models"
        models = json_names(doc["models"])
        compatibility: set[Pair] = set()
        where = "compatibility"
        for model, accels in doc["compatibility"].items():
            where = f"compatibility[{model!r}]"
            compatibility.update((model, accel) for accel in json_names(accels))
        profiles: dict[Pair, ModelProfile] = {}
        where = "profiles"
        for i, entry in enumerate(doc["profiles"]):
            where = f"profiles[{i}]"
            prof = ModelProfile(
                model=json_str(entry, "model"),
                accelerator=json_str(entry, "accelerator"),
                avg_latency_s=json_float(entry, "avg_latency_s"),
                avg_power_w=json_float(entry, "avg_power_w"),
                avg_energy_j=json_float(entry, "avg_energy_j"),
                memory_bytes=json_int(entry, "memory_bytes"),
                load_time_s=json_float(entry, "load_time_s"),
                load_energy_j=json_float(entry, "load_energy_j"),
            )
            if prof.pair in profiles:
                raise CatalogError(
                    f"duplicate profile for pair ({prof.model}, {prof.accelerator})"
                )
            profiles[prof.pair] = prof
    except DECODE_ERRORS as exc:
        raise decode_error(CatalogError, where, exc) from None
    return Catalog(
        accelerators=accelerators,
        models=models,
        compatibility=frozenset(compatibility),
        profiles=profiles,
        energy_tolerance=tolerance,
    )


def catalog_to_dict(cat: Catalog) -> dict:
    compat: dict[str, list[str]] = {}
    for model, accel in sorted(cat.compatibility):
        compat.setdefault(model, []).append(accel)
    return {
        "energy_tolerance": cat.energy_tolerance,
        "accelerators": [
            {"name": a.name, "memory_bytes": a.memory_bytes, "gpu": a.is_gpu}
            for _, a in sorted(cat.accelerators.items())
        ],
        "models": sorted(cat.models),
        "compatibility": compat,
        "profiles": [asdict(p) for _, p in sorted(cat.profiles.items())],
    }


def load_catalog(path: str | Path) -> Catalog:
    """Load and validate a catalog JSON file."""
    return load_json(path, "catalog", CatalogError, catalog_from_dict)


def save_catalog(cat: Catalog, path: str | Path) -> None:
    write_json(catalog_to_dict(cat), path)


def builtin_catalog() -> Catalog:
    """The bundled demo catalog of eight detection models on gpu/dla/oakd."""
    return load_catalog(resources.files("odsched.data") / "builtin_catalog.json")


# ---------------------------------------------------------------------------
# Traces


@dataclass(frozen=True)
class DetectionOutcome:
    """One model's result on one frame."""

    confidence: float
    iou: float
    box: BoundingBox | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        if not (0.0 <= self.iou <= 1.0):
            raise ValueError(f"iou {self.iou} outside [0, 1]")
        if self.box is None and self.iou != 0.0:
            raise ValueError("iou must be 0 when no box was detected")


# The outcome of a model that has none on a frame.
NO_DETECTION = DetectionOutcome(0.0, 0.0)


@dataclass(frozen=True)
class FrameRecord:
    frame_index: int
    per_model: Mapping[ModelId, DetectionOutcome]
    ground_truth: BoundingBox | None = None
    frame: GrayscaleImage | None = None
    # Where the record was read, `<path>:<line>`; not part of its value.
    source: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.frame_index < 0:
            raise ValueError(f"frame index {self.frame_index} must be >= 0")

    @property
    def label(self) -> str:
        """How an error names the frame: its source, else `frame <i>`."""
        return self.source or f"frame {self.frame_index}"


def _check_geometry(
    size: tuple[int, int] | None, fr: FrameRecord
) -> tuple[int, int] | None:
    """The trace's frame size after `fr`: `size`, the first frame's, or
    `fr.frame`'s when this is the first frame.  A record with a frame must
    have that size, and its ground-truth and detection boxes must lie inside
    it; otherwise ValueError explains which."""
    if fr.frame is None:
        return size
    height, width = fr.frame.pixels.shape
    if size is None:
        size = (width, height)
    elif (width, height) != size:
        raise ValueError(
            f"frame is {width}x{height}, but the first frame is {size[0]}x{size[1]}"
        )
    box = fr.ground_truth
    if box is not None and (box.x_max > width or box.y_max > height):
        raise _outside("ground_truth", box, size)
    for model, outcome in fr.per_model.items():
        box = outcome.box
        if box is not None and (box.x_max > width or box.y_max > height):
            raise _outside(f"detections.{model}.box", box, size)
    return size


def _outside(name: str, box: BoundingBox, size: tuple[int, int]) -> ValueError:
    return ValueError(
        f"'{name}' ({box.x_min}, {box.y_min}, {box.x_max}, {box.y_max}) "
        f"outside {size[0]}x{size[1]} frame"
    )


@dataclass(frozen=True)
class CharacterizationTrace:
    frames: tuple[FrameRecord, ...]

    def __post_init__(self) -> None:
        last_index, size = -1, None
        for fr in self.frames:
            if fr.frame_index <= last_index:
                raise TraceError(f"{fr.label}: 'frame': {fr.frame_index} not strictly increasing")
            last_index = fr.frame_index
            try:
                size = _check_geometry(size, fr)
            except ValueError as exc:
                raise TraceError(f"{fr.label}: {exc}") from None

    def __len__(self) -> int:
        return len(self.frames)

    def models(self) -> tuple[ModelId, ...]:
        seen: set[ModelId] = set()
        for fr in self.frames:
            seen.update(fr.per_model)
        return tuple(sorted(seen))


def _box_from_dict(obj: dict) -> BoundingBox:
    return BoundingBox(
        json_float(obj, "x_min"),
        json_float(obj, "y_min"),
        json_float(obj, "x_max"),
        json_float(obj, "y_max"),
    )


def load_trace(path: str | Path, catalog: Catalog) -> CharacterizationTrace:
    """Load a newline-delimited trace, validating against the catalog.

    The file is read one line at a time, so only one record's text is held
    in memory beside the decoded frames.  The trace rules are checked once
    all lines decode, so a decode error on any line is reported before them.
    """
    path = Path(path)
    try:
        fh = path.open("rb")
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc

    known = set(catalog.models)
    frames: list[FrameRecord] = []
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting
                raise TraceError(f"{where}: invalid JSON: {exc}") from exc
            where_field = "record"
            try:
                if not isinstance(rec, dict):
                    raise ValueError("must be a JSON object")
                where_field = "'frame'"
                index = rec["frame"]
                if type(index) is not int:
                    raise ValueError(f"must be an integer, got {index!r}")
                if index < 0:
                    raise ValueError(f"{index} must be >= 0")
                where_field = "'ground_truth'"
                gt = rec.get("ground_truth")
                gt = None if gt is None else _box_from_dict(gt)
                where_field = "bad frame image"
                image = rec.get("frame_image")
                if isinstance(image, str):
                    image = read_pgm(path.parent / image)
                elif image is not None:
                    image = decode_inline(image)
                where_field = "'detections'"
                detections: dict[str, DetectionOutcome] = {}
                for model, det in rec.get("detections", {}).items():
                    entry = where_field = f"frame {index}: 'detections.{model}'"
                    if model not in known:
                        raise ValueError("model not in the catalog")
                    box = det.get("box")
                    if box is not None:
                        where_field = f"'detections.{model}.box'"
                        box = _box_from_dict(box)
                        where_field = entry
                    detections[model] = DetectionOutcome(
                        json_float(det, "confidence"), json_float(det, "iou"), box
                    )
            except (*DECODE_ERRORS, OSError) as exc:  # OSError: an unreadable PGM
                raise decode_error(TraceError, f"{where}: {where_field}", exc) from None
            frames.append(FrameRecord(index, detections, gt, image, where))
    return CharacterizationTrace(frames=tuple(frames))


def frame_to_dict(fr: FrameRecord) -> dict:
    """JSON form of one frame record (frames always inlined)."""
    rec: dict = {"frame": fr.frame_index}
    if fr.ground_truth is not None:
        rec["ground_truth"] = asdict(fr.ground_truth)
    if fr.frame is not None:
        rec["frame_image"] = encode_inline(fr.frame)
    # A detection without a box is written without the key, not as null.
    rec["detections"] = {
        model: {k: v for k, v in asdict(fr.per_model[model]).items() if v is not None}
        for model in sorted(fr.per_model)
    }
    return rec


def save_trace(trace: CharacterizationTrace, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for fr in trace.frames:
            fh.write(json.dumps(frame_to_dict(fr), sort_keys=True) + "\n")
