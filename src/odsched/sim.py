"""Trace-driven simulation of continuous object detection.

Replays a characterization trace under a policy, charging each frame the
chosen pair's profiled inference latency/energy plus (for the adaptive
policy) model-load costs and a fixed scheduling overhead, then aggregates
the standard report metrics.

Policies:

* ``shift`` -- the adaptive scheduler (confidence graph + context NCC +
  knob scoring), with LRU model loading per accelerator.
* ``single`` -- one fixed (model, accelerator) pair; pays one cold load on
  the first frame, nothing after, and none at all when a prefill left the
  pair's model resident.
* ``oracle_energy`` / ``oracle_accuracy`` / ``oracle_latency`` --
  clairvoyant per-frame baselines choosing among the profiled pairs of
  models whose recorded IoU clears 0.5 (of all observed models when none
  do).  Oracles assume everything is preloaded and pay no load or
  scheduling cost, and pick every frame's pair before frame 0 replays.

No input is rejected once the first frame has replayed.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .catalog import (
    NO_DETECTION,
    BoundingBox,
    Catalog,
    CharacterizationTrace,
    DetectionOutcome,
    FrameRecord,
    ModelId,
    Pair,
)
from .confidence_graph import PredictionMap, build_prediction_map
from .errors import (
    DECODE_ERRORS,
    ScenarioError,
    ValidationError,
    decode_error,
    json_bool,
    json_float,
    json_int,
    load_json,
    write_json,
)
from .images import GrayscaleImage
from .loader import AcceleratorMemory
from .scheduler import SchedulerConfig, SchedulerState, schedule

SUCCESS_IOU = 0.5
DEFAULT_OVERHEAD_S = 0.002

# Policy kind -> the policy string that names it; a single policy's string
# goes on with <model>:<accelerator>.
_POLICY_NAMES = {
    "shift": "shift",
    "single": "single:",
    "oracle_energy": "oracle-e",
    "oracle_accuracy": "oracle-a",
    "oracle_latency": "oracle-l",
}


@dataclass(frozen=True)
class Policy:
    kind: str
    pair: Pair | None = None
    config: SchedulerConfig | None = None

    def __post_init__(self) -> None:
        if self.kind not in _POLICY_NAMES:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "single" and self.pair is None:
            raise ValueError("single-model policy requires a (model, accelerator) pair")

    @classmethod
    def shift(cls, config: SchedulerConfig | None = None) -> Policy:
        return cls(kind="shift", config=config)

    @classmethod
    def single(cls, model: ModelId, accelerator: str) -> Policy:
        return cls(kind="single", pair=(model, accelerator))

    @classmethod
    def oracle(cls, objective: str) -> Policy:
        kind = f"oracle_{objective}"
        if kind not in _POLICY_NAMES:
            raise ValueError(f"unknown oracle objective {objective!r}")
        return cls(kind=kind)

    def describe(self) -> str:
        """The policy string: shift, single:<model>:<accelerator>, oracle-e,
        oracle-a or oracle-l."""
        name = _POLICY_NAMES[self.kind]
        if self.kind == "single":
            assert self.pair is not None
            return f"{name}{self.pair[0]}:{self.pair[1]}"
        return name

    @classmethod
    def parse(cls, text: str, config: SchedulerConfig | None = None) -> Policy:
        """Inverse of `describe()`; a shift policy is given `config`."""
        if text.startswith("single:"):
            # The accelerator follows the last colon, so a model name may
            # hold one, as `describe()` writes it.
            model, _, accelerator = text.removeprefix("single:").rpartition(":")
            if not model or not accelerator:
                raise ValidationError(
                    f"bad single policy {text!r}, expected single:<model>:<accelerator>"
                )
            return cls.single(model, accelerator)
        for kind, name in _POLICY_NAMES.items():
            if text == name:
                return cls(kind, config=config if kind == "shift" else None)
        raise ValidationError(
            f"unknown policy {text!r}; use shift, single:<model>:<accel>, "
            "oracle-e, oracle-a, or oracle-l"
        )


@dataclass(frozen=True)
class FrameResult:
    frame_index: int
    model: ModelId
    accelerator: str
    achieved_iou: float
    confidence: float
    latency_s: float
    energy_j: float
    swap_occurred: bool
    load_time_s: float
    load_energy_j: float


@dataclass(frozen=True)
class SimulationReport:
    policy: str
    frames: int
    avg_iou: float
    avg_time_s: float
    avg_energy_j: float
    avg_time_with_loads_s: float
    avg_energy_with_loads_j: float
    success_rate: float
    non_gpu_fraction: float
    model_swaps: int
    pairs_used: int
    total_load_time_s: float
    total_load_energy_j: float
    per_frame: tuple[FrameResult, ...]
    config: SchedulerConfig | None = None

    def to_dict(self) -> dict:
        doc = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("per_frame", "config")
        }
        if self.config is not None:
            doc["config"] = self.config.params()
        return doc

    def summary_row(self) -> str:
        """Aggregate row in the conventional column order:
        IoU, Time, Energy, Success Rate, Non-GPU, Model Swaps, Pairs Used."""
        return (
            f"{self.policy}: IoU {self.avg_iou:.3f}  Time {self.avg_time_s:.3f} s  "
            f"Energy {self.avg_energy_j:.3f} J  Success {self.success_rate:.1%}  "
            f"Non-GPU {self.non_gpu_fraction:.1%}  Swaps {self.model_swaps}  "
            f"Pairs {self.pairs_used}"
        )


def metrics(
    per_frame: Sequence[FrameResult], gpu_accelerators: frozenset[str]
) -> dict:
    """Aggregate fields recomputable from the per-frame log."""
    if not per_frame:
        raise ValueError("no frame results to aggregate")
    n = len(per_frame)
    return {
        "frames": n,
        "avg_iou": math.fsum(f.achieved_iou for f in per_frame) / n,
        "avg_time_s": math.fsum(f.latency_s for f in per_frame) / n,
        "avg_energy_j": math.fsum(f.energy_j for f in per_frame) / n,
        "avg_time_with_loads_s": math.fsum(
            f.latency_s + f.load_time_s for f in per_frame
        )
        / n,
        "avg_energy_with_loads_j": math.fsum(
            f.energy_j + f.load_energy_j for f in per_frame
        )
        / n,
        "success_rate": sum(f.achieved_iou >= SUCCESS_IOU for f in per_frame) / n,
        "non_gpu_fraction": sum(
            f.accelerator not in gpu_accelerators for f in per_frame
        )
        / n,
        "model_swaps": sum(f.swap_occurred for f in per_frame),
        "pairs_used": len({(f.model, f.accelerator) for f in per_frame}),
        "total_load_time_s": math.fsum(f.load_time_s for f in per_frame),
        "total_load_energy_j": math.fsum(f.load_energy_j for f in per_frame),
    }


def oracle_choose(frame: FrameRecord, catalog: Catalog, objective: str) -> Pair:
    """Clairvoyant per-frame choice among the profiled pairs of the models
    with an outcome, preferring those whose recorded IoU is >= 0.5.

    When no such pair qualifies, every one is a candidate and the objective
    alone decides.  A frame with no profiled pair among its observed models,
    an empty frame included, offers no choice and fails naming them.
    """
    if f"oracle_{objective}" not in _POLICY_NAMES:
        raise ValueError(f"unknown oracle objective {objective!r}")
    pairs = [p for p in catalog.profiles if p[0] in frame.per_model]
    if not pairs:
        observed = ", ".join(sorted(frame.per_model)) or "none"
        raise ValidationError(
            f"{frame.label}: no profiled pair among observed models ({observed})"
        )
    pairs = [p for p in pairs if frame.per_model[p[0]].iou >= SUCCESS_IOU] or pairs
    if objective == "energy":
        key = lambda p: (catalog.profiles[p].avg_energy_j, p)
    elif objective == "latency":
        key = lambda p: (catalog.profiles[p].avg_latency_s, p)
    else:
        key = lambda p: (-frame.per_model[p[0]].iou, p)
    return min(pairs, key=key)


def run(
    trace: CharacterizationTrace,
    catalog: Catalog,
    policy: Policy,
    *,
    scheduler_overhead_s: float = DEFAULT_OVERHEAD_S,
    prediction_map: PredictionMap | None = None,
    prefill: bool = False,
) -> SimulationReport:
    """Replay the trace under `policy` and aggregate the report."""
    _check_overhead(trace, catalog, scheduler_overhead_s)
    return _run(
        trace, catalog, policy, scheduler_overhead_s, prediction_map, prefill, None
    )


def _check_overhead(
    trace: CharacterizationTrace, catalog: Catalog, overhead_s: float
) -> None:
    """Reject an empty trace, and an overhead for which the report's sums
    over the trace could not stay finite; `run` and `sweep` call this before
    they build any graph."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    # Bound every frame's latency and load time; NaN and infinity fail too.
    profiles = catalog.profiles.values()
    frame_bound_s = (
        overhead_s
        + max((p.avg_latency_s for p in profiles), default=0.0)
        + max((p.load_time_s for p in profiles), default=0.0)
    )
    if not (overhead_s >= 0.0 and math.isfinite(len(trace) * frame_bound_s)):
        raise ValueError(
            f"scheduler overhead {overhead_s} must be finite and >= 0, and "
            f"{len(trace)} frames of it plus the catalog's largest avg_latency_s "
            "and load_time_s must sum to a finite total"
        )


def _run(
    trace: CharacterizationTrace,
    catalog: Catalog,
    policy: Policy,
    overhead_s: float,
    prediction_map: PredictionMap | None,
    prefill: bool,
    memo: dict[tuple, float] | None,
) -> SimulationReport:
    config = None
    charged_overhead_s = 0.0  # only the adaptive policy pays for deciding
    memories: dict[str, AcceleratorMemory] | None = None  # oracles preload all
    if policy.kind in ("shift", "single"):
        memories = {
            name: AcceleratorMemory(name, catalog) for name in catalog.accelerators
        }
        if prefill:
            for mem in memories.values():
                mem.prefill(catalog.models)
    if policy.kind == "shift":
        config = policy.config if policy.config is not None else SchedulerConfig()
        charged_overhead_s = overhead_s
        pm = prediction_map
        if pm is None:
            pm = build_prediction_map(
                trace, config.bucket_width, config.distance_threshold
            )
        else:  # report the graph parameters the given map was built with
            config = replace(
                config,
                bucket_width=pm.bucket_width,
                distance_threshold=pm.distance_threshold,
            )
        state = SchedulerState(catalog, pm, config, memo=memo)
        pair = state.bootstrap().pair

        def choose(fr: FrameRecord) -> Pair:
            nonlocal pair
            incumbent = fr.per_model.get(pair[0], NO_DETECTION)
            pair = schedule(state, pair, incumbent.confidence, fr.frame, incumbent.box).pair
            return pair

    elif policy.kind == "single":
        fixed = policy.pair
        assert fixed is not None
        if fixed not in catalog.profiles:
            raise ValueError(
                f"single-model pair ({fixed[0]}, {fixed[1]}) is not profiled in the catalog"
            )
        choose = lambda fr: fixed
    else:
        objective = policy.kind.removeprefix("oracle_")
        # Every frame's pair is chosen before frame 0 replays, so a frame
        # that offers no choice fails first.
        chosen = {fr.frame_index: oracle_choose(fr, catalog, objective) for fr in trace.frames}
        choose = lambda fr: chosen[fr.frame_index]
    per_frame = _replay(trace, catalog, choose, charged_overhead_s, memories)
    agg = metrics(per_frame, catalog.gpu_accelerators())
    return SimulationReport(
        policy=policy.describe(),
        per_frame=tuple(per_frame),
        config=config,
        **agg,
    )


def _replay(
    trace: CharacterizationTrace,
    catalog: Catalog,
    choose: Callable[[FrameRecord], Pair],
    overhead_s: float,
    memories: Mapping[str, AcceleratorMemory] | None,
) -> list[FrameResult]:
    """Charge each frame the pair `choose` picks: its profiled cost plus
    `overhead_s`, and its load cost when `memories` is given (oracles pay no
    loads)."""
    results: list[FrameResult] = []
    prev_pair: Pair | None = None
    for fr in trace.frames:
        pair = choose(fr)
        profile = catalog.profile(*pair)
        load_time_s = load_energy_j = 0.0
        if memories is not None:
            load = memories[pair[1]].request(pair[0])
            load_time_s, load_energy_j = load.time_cost_s, load.energy_cost_j
        # A chosen model without trace coverage on this frame scores 0; it
        # penalizes scheduling uncharacterized models instead of erroring.
        out = fr.per_model.get(pair[0], NO_DETECTION)
        results.append(
            FrameResult(
                frame_index=fr.frame_index,
                model=pair[0],
                accelerator=pair[1],
                achieved_iou=out.iou,
                confidence=out.confidence,
                latency_s=profile.avg_latency_s + overhead_s,
                energy_j=profile.avg_energy_j,
                swap_occurred=prev_pair is not None and pair != prev_pair,
                load_time_s=load_time_s,
                load_energy_j=load_energy_j,
            )
        )
        prev_pair = pair
    return results


# ---------------------------------------------------------------------------
# Parameter sweeps

PARAM_ORDER = tuple(SchedulerConfig().params())


def expand_grid(grid: Mapping[str, Sequence]) -> list[SchedulerConfig]:
    """Cartesian product of parameter ranges, in canonical parameter order."""
    if not isinstance(grid, Mapping):
        raise ValueError("sweep grid must be a mapping of parameter -> values")
    if not grid:
        raise ValueError("empty sweep grid")
    unknown = sorted(str(k) for k in set(grid) - set(PARAM_ORDER))
    if unknown:
        raise ValueError(f"unknown sweep parameters: {', '.join(unknown)}")
    axes = []
    for name, default in SchedulerConfig().params().items():
        values = grid.get(name, [default])
        if isinstance(values, str) or not isinstance(values, Sequence):
            raise ValueError(f"sweep parameter {name!r} must be a list, got {values!r}")
        if not values:
            raise ValueError(f"sweep parameter {name!r} has no values")
        axes.append(values)
    return [
        SchedulerConfig.from_params(dict(zip(PARAM_ORDER, combo)))
        for combo in itertools.product(*axes)
    ]


def sweep(
    trace: CharacterizationTrace,
    catalog: Catalog,
    grid: Mapping[str, Sequence],
    *,
    scheduler_overhead_s: float = DEFAULT_OVERHEAD_S,
) -> list[tuple[SchedulerConfig, SimulationReport]]:
    """One shift run per grid configuration, in deterministic order.

    Context similarity depends only on the frames and boxes compared, not on
    the configuration, so every run shares one memo of it; the memo lives
    only as long as this call.
    """
    configs = expand_grid(grid)
    _check_overhead(trace, catalog, scheduler_overhead_s)
    # Prediction maps depend only on (bucket_width, distance_threshold);
    # build each needed combination once, up front.
    maps: dict[tuple[float, float], PredictionMap] = {}
    for cfg in configs:
        key = (cfg.bucket_width, cfg.distance_threshold)
        if key not in maps:
            maps[key] = build_prediction_map(trace, *key)

    memo: dict[tuple, float] = {}
    results = []
    for cfg in configs:
        pm = maps[(cfg.bucket_width, cfg.distance_threshold)]
        report = _run(
            trace, catalog, Policy.shift(cfg), scheduler_overhead_s, pm, False, memo
        )
        results.append((cfg, report))
    return results


def sweep_correlations(
    results: Sequence[tuple[SchedulerConfig, SimulationReport]],
) -> dict[str, dict[str, float | None]]:
    """Spearman rank correlation of each varied parameter against the
    achieved IoU, consumed energy, and latency (load costs included).

    A response that is the same for every configuration has no rank
    correlation; it is recorded as None.
    """
    # Imported here: importing scipy.stats costs more than a demo replay.
    from scipy import stats

    if not results:
        raise ValueError("no sweep results to correlate")
    responses = {
        "iou": [rep.avg_iou for _, rep in results],
        "energy": [rep.avg_energy_with_loads_j for _, rep in results],
        "latency": [rep.avg_time_with_loads_s for _, rep in results],
    }
    summary: dict[str, dict[str, float | None]] = {}
    for name in PARAM_ORDER:
        xs = [cfg.params()[name] for cfg, _ in results]
        if len(set(xs)) < 2:
            continue
        summary[name] = {
            metric: float(stats.spearmanr(xs, ys).statistic)
            if len(set(ys)) > 1
            else None
            for metric, ys in responses.items()
        }
    return summary


# ---------------------------------------------------------------------------
# Synthetic trace generation


@dataclass(frozen=True)
class ModelBehavior:
    conf_mean: float
    conf_sigma: float
    iou_mean: float
    iou_sigma: float

    def __post_init__(self) -> None:
        for name in ("conf_mean", "iou_mean"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ScenarioError(f"{name} {getattr(self, name)} outside [0, 1]")
        for name in ("conf_sigma", "iou_sigma"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ScenarioError(f"{name} must be finite and >= 0")


@dataclass(frozen=True)
class Segment:
    frames: int
    models: Mapping[ModelId, ModelBehavior]
    texture_seed: int | None = None

    def __post_init__(self) -> None:
        if self.frames < 1:
            raise ScenarioError(f"frames must be >= 1, got {self.frames}")
        if not self.models:
            raise ScenarioError("models must be a non-empty mapping")
        if not all(self.models):
            raise ScenarioError("models has an empty model name")
        if self.texture_seed is not None and self.texture_seed < 0:
            raise ScenarioError(f"texture_seed must be >= 0, got {self.texture_seed}")


@dataclass(frozen=True)
class Scenario:
    segments: tuple[Segment, ...]
    width: int = 64
    height: int = 64
    emit_frames: bool = True

    def __post_init__(self) -> None:
        if self.width < 8 or self.height < 8:
            raise ScenarioError("width/height must be >= 8")
        if not self.segments:
            raise ScenarioError("segments must be a non-empty list")


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    where = "scenario"
    try:
        segments = []
        for i, raw in enumerate(doc["segments"]):
            where = f"segments[{i}]"
            frames, seed = json_int(raw, "frames"), raw.get("texture_seed")
            seed = None if seed is None else json_int(raw, "texture_seed")
            models = {}
            for name, params in raw["models"].items():
                where = f"segments[{i}].models[{name!r}]"
                models[name] = ModelBehavior(
                    *(json_float(params, f.name) for f in fields(ModelBehavior))
                )
            where = f"segments[{i}]"
            segments.append(Segment(frames, models, seed))
        where = "scenario"
        return Scenario(
            segments=tuple(segments),
            emit_frames=json_bool(doc, "emit_frames", True),
            **{key: json_int(doc, key) for key in ("width", "height") if key in doc},
        )
    except DECODE_ERRORS as exc:
        raise decode_error(ScenarioError, where, exc) from None


def load_scenario(path: str | Path) -> Scenario:
    return load_json(path, "scenario", ScenarioError, scenario_from_dict)


def demo_scenario() -> Scenario:
    """The bundled two-context scenario used by the demos and tests."""
    return load_scenario(resources.files("odsched.data") / "demo_scenario.json")


def _texture(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """Smooth, segment-specific background: two random sinusoidal gratings."""
    y, x = np.mgrid[0:height, 0:width].astype(np.float64)
    fx1, fy1, fx2, fy2 = rng.uniform(0.02, 0.12, size=4)
    p1, p2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return (
        127.5
        + 55.0 * np.sin(2.0 * np.pi * (fx1 * x + fy1 * y) + p1)
        + 45.0 * np.sin(2.0 * np.pi * (fx2 * x - fy2 * y) + p2)
    )


def _offset_for_iou(target_iou: float, box_w: float) -> float:
    """Horizontal shift of a same-size box achieving `target_iou` overlap."""
    u = 2.0 * target_iou / (1.0 + target_iou)
    return box_w * (1.0 - u)


def gen_trace(scenario: Scenario, seed: int) -> CharacterizationTrace:
    """Deterministic synthetic trace with per-segment context shifts.

    Segment boundaries change the frame texture (so frame NCC drops) and the
    per-model confidence/IoU levels.  Detection boxes are placed relative to
    the ground truth so their geometric overlap roughly tracks the sampled
    IoU; the recorded IoU value is authoritative for scoring either way.
    """
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    width, height = scenario.width, scenario.height
    box_w = max(4.0, width / 3.0)
    box_h = max(4.0, height / 3.0)

    frames: list[FrameRecord] = []
    index = 0
    for seg_no, seg in enumerate(scenario.segments):
        texture_seed = seg.texture_seed if seg.texture_seed is not None else seg_no
        base = _texture(np.random.default_rng([seed, texture_seed]), height, width)
        # Slowly wandering ground-truth box, kept inside the frame.
        cx = rng.uniform(box_w / 2.0 + 1.0, width - box_w / 2.0 - 1.0)
        cy = rng.uniform(box_h / 2.0 + 1.0, height - box_h / 2.0 - 1.0)
        drift = rng.uniform(-0.05, 0.05, size=2)
        for _ in range(seg.frames):
            image = None
            if scenario.emit_frames:
                noise = rng.normal(0.0, 2.0, size=(height, width))
                pixels = np.clip(np.rint(base + noise), 0.0, 255.0)
                image = GrayscaleImage(pixels.astype(np.uint8))
            cx = min(max(cx + drift[0], box_w / 2.0), width - box_w / 2.0)
            cy = min(max(cy + drift[1], box_h / 2.0), height - box_h / 2.0)
            gt = BoundingBox(
                x_min=round(cx - box_w / 2.0, 3),
                y_min=round(cy - box_h / 2.0, 3),
                x_max=round(cx + box_w / 2.0, 3),
                y_max=round(cy + box_h / 2.0, 3),
            )
            detections: dict[ModelId, DetectionOutcome] = {}
            for m_idx, model in enumerate(sorted(seg.models)):
                behavior = seg.models[model]
                conf = round(
                    float(np.clip(rng.normal(behavior.conf_mean, behavior.conf_sigma), 0.0, 1.0)),
                    6,
                )
                iou_val = round(
                    float(np.clip(rng.normal(behavior.iou_mean, behavior.iou_sigma), 0.0, 1.0)),
                    6,
                )
                box = None
                if iou_val > 0.0:
                    direction = 1.0 if m_idx % 2 == 0 else -1.0
                    dx = direction * _offset_for_iou(iou_val, box_w)
                    x_min = min(max(gt.x_min + dx, 0.0), width - box_w)
                    box = BoundingBox(
                        x_min=round(x_min, 3),
                        y_min=gt.y_min,
                        x_max=round(x_min + box_w, 3),
                        y_max=gt.y_max,
                    )
                detections[model] = DetectionOutcome(
                    confidence=conf, iou=iou_val, box=box
                )
            frames.append(
                FrameRecord(
                    frame_index=index,
                    per_model=detections,
                    ground_truth=gt,
                    frame=image,
                )
            )
            index += 1
    return CharacterizationTrace(frames=tuple(frames))


# ---------------------------------------------------------------------------
# Output writers


def write_report(report: SimulationReport, path: str | Path) -> None:
    write_json(report.to_dict(), path)


def _write_csv(path: str | Path, header: str, rows: Iterable[Sequence]) -> None:
    """The one CSV writer: `header` is a line of plain column names, and a
    field holding a comma, a quote or a newline is quoted, so each row reads
    back with the header's width."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_frames_csv(report: SimulationReport, path: str | Path) -> None:
    rows = (
        (f.frame_index, f.model, f.accelerator, f.achieved_iou, f.confidence,
         f.latency_s, f.energy_j, int(f.swap_occurred))
        for f in report.per_frame
    )
    _write_csv(path, "frame,model,accelerator,iou,confidence,latency_s,energy_j,swap", rows)


def write_timeline_csv(report: SimulationReport, path: str | Path) -> None:
    """Per-frame timeline (frame vs chosen pair, IoU, energy) for plotting."""
    rows = (
        (f.frame_index, f.model, f.accelerator, f.achieved_iou, f.energy_j)
        for f in report.per_frame
    )
    _write_csv(path, "frame,model,accelerator,iou,energy_j", rows)


# Report fields written after the parameters, one row per configuration.
_SWEEP_COLUMNS = (
    "avg_iou",
    "avg_time_s",
    "avg_energy_j",
    "avg_time_with_loads_s",
    "avg_energy_with_loads_j",
    "success_rate",
    "non_gpu_fraction",
    "model_swaps",
    "pairs_used",
)


def write_sweep_csv(
    results: Sequence[tuple[SchedulerConfig, SimulationReport]], path: str | Path
) -> None:
    rows = (
        [*cfg.params().values(), *(getattr(rep, c) for c in _SWEEP_COLUMNS)]
        for cfg, rep in results
    )
    _write_csv(path, ",".join(PARAM_ORDER + _SWEEP_COLUMNS), rows)
