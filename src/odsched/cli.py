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
import os
import sys

from . import sim
from .catalog import Catalog, builtin_catalog, load_catalog, load_trace, save_trace
from .confidence_graph import (
    build_prediction_map,
    load_prediction_map,
    save_prediction_map,
)
from .errors import ValidationError, load_json, write_json
from .scheduler import SchedulerConfig

CATALOG_ENV = "ODSCHED_CATALOG"
_DEMO_TRACE_SEED = 0


def _resolve_catalog(path: str | None) -> Catalog:
    return builtin_catalog() if path is None else load_catalog(path)


def _resolve_trace(path: str | None, catalog: Catalog):
    if path is not None:
        return load_trace(path, catalog)
    return sim.gen_trace(sim.demo_scenario(), _DEMO_TRACE_SEED)


# SchedulerConfig parameter -> (flag, help); type and default come from the
# library's defaults.
_SCHEDULER_FLAGS = {
    "accuracy_threshold": ("--accuracy-threshold", "goal accuracy for the valid-model filter"),
    "momentum": ("--momentum", "frames to average predicted accuracy over"),
    "distance_threshold": ("--distance", "confidence-graph neighborhood threshold"),
    "bucket_width": ("--bucket-width", "confidence bucket width"),
    "w_accuracy": ("--w-acc", "accuracy knob weight"),
    "w_energy": ("--w-energy", "energy knob weight"),
    "w_latency": ("--w-latency", "latency knob weight"),
}


def _add_scheduler_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """Add the flags of `names`, or of every parameter, in that order."""
    defaults = SchedulerConfig().params()
    for name in names or _SCHEDULER_FLAGS:
        flag, text = _SCHEDULER_FLAGS[name]
        # The metavar argparse would derive from the flag, not from `dest`.
        p.add_argument(flag, dest=name, metavar=flag[2:].replace("-", "_").upper(),
                       type=type(defaults[name]), default=defaults[name],
                       help=f"{text} (default %(default)s)")


def _cmd_build_graph(args: argparse.Namespace) -> int:
    # Checks all three values before any I/O.
    config = SchedulerConfig(bucket_width=args.bucket_width,
                             distance_threshold=args.distance_threshold)
    if args.min_samples < 1:
        raise ValidationError(f"min_samples {args.min_samples} must be >= 1")
    catalog = _resolve_catalog(args.catalog)
    trace = _resolve_trace(args.trace, catalog)
    pm = build_prediction_map(trace, config.bucket_width, config.distance_threshold,
                              min_samples=args.min_samples)
    if not pm.nodes:
        raise ValidationError(
            f"min_samples {args.min_samples} prunes every node; {args.out} not written"
        )
    save_prediction_map(pm, args.out)
    print(
        f"wrote {args.out}: {len(pm.nodes)} nodes, "
        f"{len(pm.arcs)} arcs, {len(pm.entries)} entries"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    policy = sim.Policy.parse(args.policy, SchedulerConfig.from_params(vars(args)))
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


def _grid_from_dict(doc: dict) -> dict:
    """`doc`, once `sim.expand_grid` accepts it as a sweep grid."""
    try:
        sim.expand_grid(doc)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    return doc


def _cmd_sweep(args: argparse.Namespace) -> int:
    # The grid is read first, so a bad one fails before the trace is read.
    grid = load_json(args.grid, "grid", ValidationError, _grid_from_dict)
    catalog = _resolve_catalog(args.catalog)
    trace = _resolve_trace(args.trace, catalog)
    results = sim.sweep(trace, catalog, grid, scheduler_overhead_s=args.overhead)
    sim.write_sweep_csv(results, args.out)
    summary = sim.sweep_correlations(results)
    summary_path = args.summary or f"{args.out}.summary.json"
    write_json(summary, summary_path)
    print(f"wrote {args.out} ({len(results)} configurations)")
    for name, corr in summary.items():
        terms = (
            f"{metric} {'n/a' if rho is None else format(rho, '+.3f')}"
            for metric, rho in corr.items()
        )
        print(f"spearman {name}: " + "  ".join(terms))
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
    # Flags shared by several commands, declared once.
    inputs = argparse.ArgumentParser(add_help=False)
    # A set but empty variable counts as unset.
    inputs.add_argument("--catalog", default=os.environ.get(CATALOG_ENV) or None,
                        help=f"catalog JSON (default ${CATALOG_ENV} or bundled)")
    inputs.add_argument("--trace", help="trace file (default: bundled demo)")
    overhead = argparse.ArgumentParser(add_help=False)
    overhead.add_argument("--overhead", type=float, default=sim.DEFAULT_OVERHEAD_S,
                          help="scheduler overhead charged per frame, seconds "
                          "(default %(default)s)")

    p = sub.add_parser("build-graph", parents=[inputs],
                       help="build and serialize a prediction map")
    _add_scheduler_flags(p, "bucket_width", "distance_threshold")
    p.add_argument("--min-samples", type=int, default=1,
                   help="prune buckets with fewer samples, >= 1 "
                   "(default %(default)s = keep all)")
    p.add_argument("--out", required=True, help="output map JSON path")
    p.set_defaults(func=_cmd_build_graph)

    p = sub.add_parser("simulate", parents=[inputs, overhead],
                       help="replay a trace under a policy")
    p.add_argument("--policy", default="shift",
                   help="shift | single:<model>:<accel> | oracle-e | oracle-a | oracle-l")
    p.add_argument("--graph", help="serialized prediction map (default: build from trace)")
    p.add_argument("--prefill", action="store_true",
                   help="prefill accelerator memory before the run (shift and single)")
    _add_scheduler_flags(p)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--frames-csv", help="optional per-frame CSV path")
    p.add_argument("--plot", help="optional per-frame timeline CSV for plotting")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", parents=[inputs, overhead],
                       help="run a parameter grid of shift configurations")
    p.add_argument("--grid", required=True, help="JSON mapping parameter -> list of values")
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--summary", help="correlation summary JSON (default <out>.summary.json)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gen-trace", help="generate a synthetic trace from a scenario")
    p.add_argument("--scenario", help="scenario JSON (default: bundled demo scenario)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default %(default)s)")
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
