"""Seeded input generators for the three benchmark workloads.

Each workload is a catalog, a scenario that `odsched.sim.gen_trace` turns
into a characterization trace, a sweep grid and the expected trace length.
The scenario's structure is fixed; the seed draws the trace from it, so one
seed always gives byte-identical input files and different seeds differ
only in noise, textures and drift.

* ``vga-context`` -- bundled catalog; 25 alternating-texture segments of
  320x240 frames (1000 frames).  Context similarity (FrameStats, frame NCC, box NCC) is
  most of every decision, and parsing the inline frames is most of set-up.
* ``many-models`` -- synthetic 16-model x gpu/dla/oakd catalog with tight
  accelerator memory; forty 60-frame segments, each with a different quarter
  of the models good than the segment before.  No frames, so similarity is 0 and every frame is a full
  predict -> score pass; the graph build dominates set-up.
* ``demo-sweep`` -- the bundled demo scenario at 64x64 and a 64-config grid
  over all seven scheduler parameters (2 bucket widths x 2 distance
  thresholds, so 4 graph builds per sweep).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from odsched import catalog as odcatalog
from odsched import sim

WORKLOADS = ("vga-context", "many-models", "demo-sweep")

# Small grid for the workloads whose subject is not the sweep: one graph
# build and two replays, the first being the default configuration.
SMALL_GRID = {"w_energy": [0.5, 1.0]}

# 2*2*1*2*2*2*2 = 64 configurations naming all seven parameters.  w_latency
# stays at its default: varying it too would double the grid to 128.  Every
# axis includes its default, so the default configuration is in the grid.
DEMO_GRID = {
    "w_accuracy": [1.0, 2.0],
    "w_energy": [0.5, 1.0],
    "w_latency": [0.5],
    "accuracy_threshold": [0.25, 0.5],
    "momentum": [10, 30],
    "distance_threshold": [0.5, 1.0],
    "bucket_width": [0.1, 0.2],
}

MANY_MODELS = 16
MANY_SEGMENTS = 40
MANY_SEGMENT_FRAMES = 60
MANY_CONF_SIGMA = 0.01

VGA_WIDTH, VGA_HEIGHT = 320, 240
VGA_SEGMENTS = 25
VGA_SEGMENT_FRAMES = 40


@dataclass(frozen=True)
class Inputs:
    catalog: odcatalog.Catalog
    scenario: sim.Scenario
    grid: dict
    frames: int


def make_inputs(workload: str) -> Inputs:
    """The workload's catalog, scenario and grid; `sim.gen_trace(scenario,
    seed)` then draws the trace."""
    if workload == "vga-context":
        return _vga_context()
    if workload == "many-models":
        return Inputs(
            many_models_catalog(MANY_MODELS),
            many_models_scenario(MANY_MODELS),
            SMALL_GRID,
            MANY_SEGMENTS * MANY_SEGMENT_FRAMES,
        )
    if workload == "demo-sweep":
        scenario = sim.demo_scenario()
        frames = sum(seg.frames for seg in scenario.segments)
        return Inputs(odcatalog.builtin_catalog(), scenario, DEMO_GRID, frames)
    raise ValueError(f"unknown workload {workload!r}")


def _behavior(rng: np.random.Generator, conf: tuple, iou: tuple) -> dict:
    return {
        "conf_mean": round(float(rng.uniform(*conf)), 3),
        "conf_sigma": 0.06,
        "iou_mean": round(float(rng.uniform(*iou)), 3),
        "iou_sigma": 0.04,
    }


def _vga_context() -> Inputs:
    """Two textures, A and B, alternate.  On A every model is confident and
    the cheap models suffice.  On B every model's confidence hovers around
    the default accuracy threshold and only the large models stay accurate,
    so about half of B's frames take the full predict -> score pass."""
    rng = np.random.default_rng(101)
    easy = {
        "yolov7-tiny": ((0.80, 0.88), (0.60, 0.68)),
        "ssd-mobilenet-v2": ((0.78, 0.86), (0.58, 0.66)),
        "yolov7": ((0.86, 0.92), (0.68, 0.74)),
        "yolov7-x": ((0.88, 0.94), (0.70, 0.76)),
    }
    hard = {
        "yolov7-tiny": ((0.10, 0.25), (0.08, 0.20)),
        "ssd-mobilenet-v2": ((0.08, 0.22), (0.06, 0.18)),
        "yolov7": ((0.18, 0.32), (0.60, 0.70)),
        "yolov7-x": ((0.20, 0.35), (0.64, 0.74)),
    }
    segments = []
    for i in range(VGA_SEGMENTS):
        levels = easy if i % 2 == 0 else hard
        segments.append(
            {
                "frames": VGA_SEGMENT_FRAMES,
                "texture_seed": 11 if i % 2 == 0 else 42,
                "models": {m: _behavior(rng, *lv) for m, lv in levels.items()},
            }
        )
    scenario = sim.scenario_from_dict(
        {"width": VGA_WIDTH, "height": VGA_HEIGHT, "segments": segments}
    )
    return Inputs(
        odcatalog.builtin_catalog(),
        scenario,
        SMALL_GRID,
        VGA_SEGMENTS * VGA_SEGMENT_FRAMES,
    )


def many_models_catalog(n_models: int) -> odcatalog.Catalog:
    """`n_models` models on gpu/dla/oakd; each accelerator holds only a few.

    Model i is slower, bigger and more power-hungry than model i-1, so the
    knobs trade accuracy against cost.  Energy is latency x power exactly.
    """
    models = [f"m{i:02d}" for i in range(n_models)]
    accels = {
        "gpu": (1.0, 14.0, 1.0),  # latency factor, power W, load factor
        "dla": (1.3, 5.5, 1.2),
        "oakd": (6.0, 1.8, 3.0),
    }
    doc = {
        "accelerators": [
            {"name": "gpu", "memory_bytes": 200_000_000, "gpu": True},
            {"name": "dla", "memory_bytes": 150_000_000, "gpu": False},
            {"name": "oakd", "memory_bytes": 120_000_000, "gpu": False},
        ],
        "models": models,
        "compatibility": {},
        "profiles": [],
    }
    for i, model in enumerate(models):
        scale = i / max(1, n_models - 1)
        base_latency = 0.020 + 0.060 * scale
        memory = int(20_000_000 + 100_000_000 * scale)
        targets = ["gpu", "dla"] + (["oakd"] if memory <= 120_000_000 else [])
        doc["compatibility"][model] = targets
        for accel in targets:
            lat_f, power, load_f = accels[accel]
            latency = round(base_latency * lat_f, 6)
            power_w = round(power * (1.0 + 0.3 * scale), 4)
            doc["profiles"].append(
                {
                    "model": model,
                    "accelerator": accel,
                    "avg_latency_s": latency,
                    "avg_power_w": power_w,
                    "avg_energy_j": round(latency * power_w, 6),
                    "memory_bytes": memory,
                    "load_time_s": round(0.002 * memory / 1e6 * load_f, 6),
                    "load_energy_j": round(0.005 * memory / 1e6 * load_f, 6),
                }
            )
    return odcatalog.catalog_from_dict(doc)


def many_models_scenario(n_models: int) -> sim.Scenario:
    """Four fixed quarters of the models take turns being good.  Each
    model's confidence sits on one bucket midpoint per segment, so a segment
    activates one node per model; with 16 models the graph has about 150
    nodes and 7.5k arcs.  Segments are twice the default momentum window, so
    the scheduler settles in each one and the simulated metrics barely move
    between seeds."""
    rng = np.random.default_rng(202)
    models = [f"m{i:02d}" for i in range(n_models)]
    quarter = max(1, n_models // 4)

    def behavior(buckets: tuple[int, int], iou: tuple[float, float]) -> dict:
        return {
            "conf_mean": 0.05 + 0.1 * int(rng.integers(*buckets)),
            "conf_sigma": MANY_CONF_SIGMA,
            "iou_mean": round(float(rng.uniform(*iou)), 3),
            "iou_sigma": 0.04,
        }

    order = rng.permutation(n_models).tolist()
    quarters = [set(order[q * quarter : (q + 1) * quarter]) for q in range(4)]
    segments = []
    for k in range(MANY_SEGMENTS):
        good = quarters[k % 4]
        segments.append(
            {
                "frames": MANY_SEGMENT_FRAMES,
                "models": {
                    m: behavior((6, 10), (0.65, 0.85))
                    if i in good
                    else behavior((0, 6), (0.02, 0.35))
                    for i, m in enumerate(models)
                },
            }
        )
    return sim.scenario_from_dict({"emit_frames": False, "segments": segments})

