"""Command-line interface: build-graph, simulate, sweep, gen-trace.

All commands are batch-style: read inputs, write declared outputs, exit 0
only when every output was written.  Every random choice flows through the
explicit --seed, so equal flags produce byte-identical outputs.

The catalog defaults to the bundled demo catalog; set ODSCHED_CATALOG or
pass --catalog to override.  Where a command needs a trace and none is
given, a demo trace is synthesized from the bundled scenario with seed 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import sim
from .catalog import Catalog, builtin_catalog, load_catalog, load_trace, save_trace
from .confidence_graph import (
    build_prediction_map,
    load_prediction_map,
    prediction_map_to_dict,
    save_prediction_map,
)
from .errors import ValidationError
from .scheduler import Knobs, SchedulerConfig

CATALOG_ENV = "ODSCHED_CATALOG"
_DEMO_TRACE_SEED = 0


def _resolve_catalog(path: str | None) -> Catalog:
    if path is None:
        path = os.environ.get(CATALOG_ENV)
    if path is None:
        return builtin_catalog()
    return load_catalog(path)


def _resolve_trace(path: str | None, catalog: Catalog):
    if path is not None:
        return load_trace(path, catalog)
    return sim.gen_trace(sim.demo_scenario(), _DEMO_TRACE_SEED)


def _scheduler_config(args: argparse.Namespace) -> SchedulerConfig:
    return SchedulerConfig(
        knobs=Knobs(
            w_accuracy=args.w_acc,
            w_energy=args.w_energy,
            w_latency=args.w_latency,
        ),
        accuracy_threshold=args.accuracy_threshold,
        momentum=args.momentum,
        distance_threshold=args.distance,
        bucket_width=args.bucket_width,
    )


def _add_scheduler_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--accuracy-threshold", type=float, default=0.25,
                   help="goal accuracy for the valid-model filter (default 0.25)")
    p.add_argument("--momentum", type=int, default=30,
                   help="frames to average predicted accuracy over (default 30)")
    p.add_argument("--distance", type=float, default=0.5,
                   help="confidence-graph neighborhood threshold (default 0.5)")
    p.add_argument("--bucket-width", type=float, default=0.1,
                   help="confidence bucket width (default 0.1)")
    p.add_argument("--w-acc", type=float, default=1.0,
                   help="accuracy knob weight (default 1.0)")
    p.add_argument("--w-energy", type=float, default=0.5,
                   help="energy knob weight (default 0.5)")
    p.add_argument("--w-latency", type=float, default=0.5,
                   help="latency knob weight (default 0.5)")


def _parse_policy(text: str, config: SchedulerConfig) -> sim.Policy:
    if text == "shift":
        return sim.Policy.shift(config)
    if text == "oracle-e":
        return sim.Policy.oracle("energy")
    if text == "oracle-a":
        return sim.Policy.oracle("accuracy")
    if text == "oracle-l":
        return sim.Policy.oracle("latency")
    if text.startswith("single:"):
        parts = text.split(":")
        if len(parts) != 3 or not parts[1] or not parts[2]:
            raise ValidationError(
                f"bad single policy {text!r}, expected single:<model>:<accelerator>"
            )
        return sim.Policy.single(parts[1], parts[2])
    raise ValidationError(
        f"unknown policy {text!r}; use shift, single:<model>:<accel>, "
        "oracle-e, oracle-a, or oracle-l"
    )


def _cmd_build_graph(args: argparse.Namespace) -> int:
    if args.bucket_width <= 0 or args.bucket_width > 1:
        raise ValidationError(f"bucket width {args.bucket_width} outside (0, 1]")
    if args.distance < 0:
        raise ValidationError("distance threshold must be >= 0")
    catalog = _resolve_catalog(args.catalog)
    trace = _resolve_trace(args.trace, catalog)
    pm = build_prediction_map(trace, args.bucket_width, args.distance,
                              min_samples=args.min_samples)
    save_prediction_map(pm, args.out)
    doc = prediction_map_to_dict(pm)
    print(
        f"wrote {args.out}: {len(doc['nodes'])} nodes, "
        f"{len(doc['arcs'])} arcs, {len(doc['entries'])} entries"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _scheduler_config(args)
    policy = _parse_policy(args.policy, config)
    catalog = _resolve_catalog(args.catalog)
    trace = _resolve_trace(args.trace, catalog)
    prediction_map = load_prediction_map(args.graph) if args.graph else None
    report = sim.run(
        trace,
        catalog,
        policy,
        scheduler_overhead_s=args.overhead,
        prediction_map=prediction_map,
        prefill=args.prefill,
    )
    sim.write_report(report, args.out)
    if args.frames_csv:
        sim.write_frames_csv(report, args.frames_csv)
    if args.plot:
        sim.write_timeline_csv(report, args.plot)
    print(report.summary_row())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    catalog = _resolve_catalog(args.catalog)
    trace = _resolve_trace(args.trace, catalog)
    try:
        grid = json.loads(Path(args.grid).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read grid {args.grid}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"grid {args.grid} is not valid JSON: {exc}") from exc
    results = sim.sweep(trace, catalog, grid, scheduler_overhead_s=args.overhead)
    sim.write_sweep_csv(results, args.out)
    summary = sim.sweep_correlations(results)
    summary_path = args.summary or f"{args.out}.summary.json"
    Path(summary_path).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.out} ({len(results)} configurations)")
    for name, corr in summary.items():
        print(
            f"spearman {name}: iou {corr['iou']:+.3f}  "
            f"energy {corr['energy']:+.3f}  latency {corr['latency']:+.3f}"
        )
    return 0


def _cmd_gen_trace(args: argparse.Namespace) -> int:
    scenario = sim.load_scenario(args.scenario) if args.scenario else sim.demo_scenario()
    trace = sim.gen_trace(scenario, args.seed)
    save_trace(trace, args.out)
    print(f"wrote {args.out}: {len(trace)} frames, models {', '.join(trace.models())}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odsched",
        description="Context-aware multi-model, multi-accelerator object "
        "detection scheduling: graph building, trace simulation, parameter "
        "sweeps, and synthetic trace generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="build and serialize a prediction map")
    p.add_argument("--catalog", help=f"catalog JSON (default ${CATALOG_ENV} or bundled)")
    p.add_argument("--trace", help="characterization trace (default: bundled demo)")
    p.add_argument("--bucket-width", type=float, default=0.1)
    p.add_argument("--distance", type=float, default=0.5)
    p.add_argument("--min-samples", type=int, default=1,
                   help="prune buckets with fewer samples (default 1 = keep all)")
    p.add_argument("--out", required=True, help="output map JSON path")
    p.set_defaults(func=_cmd_build_graph)

    p = sub.add_parser("simulate", help="replay a trace under a policy")
    p.add_argument("--catalog", help=f"catalog JSON (default ${CATALOG_ENV} or bundled)")
    p.add_argument("--trace", help="trace file (default: bundled demo)")
    p.add_argument("--policy", default="shift",
                   help="shift | single:<model>:<accel> | oracle-e | oracle-a | oracle-l")
    p.add_argument("--graph", help="serialized prediction map (default: build from trace)")
    p.add_argument("--overhead", type=float, default=sim.DEFAULT_OVERHEAD_S,
                   help="scheduler overhead charged per frame, seconds (default 0.002)")
    p.add_argument("--prefill", action="store_true",
                   help="prefill accelerator memory before the run")
    _add_scheduler_flags(p)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--frames-csv", help="optional per-frame CSV path")
    p.add_argument("--plot", help="optional per-frame timeline CSV for plotting")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a parameter grid of shift configurations")
    p.add_argument("--catalog", help=f"catalog JSON (default ${CATALOG_ENV} or bundled)")
    p.add_argument("--trace", help="trace file (default: bundled demo)")
    p.add_argument("--grid", required=True, help="JSON mapping parameter -> list of values")
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--summary", help="correlation summary JSON (default <out>.summary.json)")
    p.add_argument("--overhead", type=float, default=sim.DEFAULT_OVERHEAD_S)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gen-trace", help="generate a synthetic trace from a scenario")
    p.add_argument("--scenario", help="scenario JSON (default: bundled demo scenario)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", required=True, help="output trace path")
    p.set_defaults(func=_cmd_gen_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
