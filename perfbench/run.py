"""Layered host-time benchmark for odsched.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one process, one Python thread: offline batch replay through the
public library API.  Inputs come from the seed alone (see workloads.py) and
are written to disk by a child process; this process then loads them, which
is the set-up, and replays them for about S seconds.

``--trace 0`` prints every end-to-end metric named in BENCHMARK.json;
``--trace 1`` runs with spans around each layer (tracing.py) and prints
every per-layer metric, including the tracing overhead.  Every operation is
checked (checks.py); the last stdout line is the JSON result, and the exit
status is 1 when any check failed.  DESIGN.md records why each workload and
metric exists and which end-to-end metric each layer should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import bootstrap
import numpy
import scipy
import workloads
from checks import (
    CheckFailed,
    Gate,
    check_no_carryover,
    check_report,
    expect,
    input_objects,
    object_state,
    pairs_of,
    report_digest,
    sweep_digest,
)
from scipy.stats import trim_mean
from scipy.stats.mstats import hdquantiles
from tracing import Span, Tracer

from odsched import catalog, confidence_graph, scheduler, sim

ROOT = bootstrap.ROOT
HERE = Path(__file__).resolve().parent
# Set-up is repeated, at least SETUP_MIN times and while it has taken less
# than SETUP_SHARE of the run, and its median reported, so that one slow
# load does not read as a set-up regression.
SETUP_MIN, SETUP_SHARE = 3, 0.2
MIN_SLICE_S = 1.0
MIN_ROUNDS = 3
# A sweep lasts 0.5-3 s; its mean needs at least three.
MIN_SWEEPS = 3
# Host times are means with this share cut from each end, so that a rare
# stall of the host does not count (DESIGN.md, "Why trimmed means").
TRIM = 0.1
# Seeds from this value up are held out: tune on lower seeds, then confirm a
# claim on one of these.
HELD_OUT_SEED = 1000
SIM_NOTE = (
    "sim_* metrics are simulated from catalog profiles and are not validated "
    "against hardware; no error figure is given"
)
# The graph-size probe stops at 32 models: the neighbourhood search costs
# O(N * E log E), and on the many-models generator a build takes about
# 0.4 s with 8 models, 2-4 s with 16 and 20-35 s with 32 on a 2-vCPU x86_64
# VM, so 128 models would not fit a 180 s run.
PROBE_MODELS = (8, 16, 32)


@dataclass
class Setup:
    catalog: catalog.Catalog
    trace: catalog.CharacterizationTrace
    pm: confidence_graph.PredictionMap
    seconds: float
    objects: list  # what every timed call shares (checks.input_objects)
    state: list  # their attributes just after loading

    def check_no_carryover(self) -> None:
        check_no_carryover(self.objects, self.state)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    gate = Gate()
    work_parent = ROOT / ".perfbench_work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent))
    try:
        inputs = workloads.make_inputs(args.workload)
        generated = generate(args.workload, args.seed, workdir)
        if args.trace:
            values, detail = traced_run(args, inputs, generated, workdir, gate)
        else:
            values, detail = untraced_run(args, inputs, generated, workdir, gate)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass  # another run is still using it

    section = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in section:
        if m["name"] not in values:
            gate.failures.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:>40} {values[m['name']]:>16.6g} {m['unit']}")
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        provenance=provenance(args.seed),
        failures=gate.failures,
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    correct = gate.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def generate(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's input files from a child process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(workdir)],
        capture_output=True,
        text=True,
        timeout=150,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Operations.  Each one is timed, then checked; checks are outside the timing.


def setup(workdir: Path, frames: int) -> Setup:
    """Everything before frame 0: catalog, trace and prediction map."""
    t0 = time.perf_counter()
    cat = catalog.load_catalog(workdir / "catalog.json")
    trace = catalog.load_trace(workdir / "trace.ndjson", cat)
    pm = confidence_graph.build_prediction_map(trace)
    seconds = time.perf_counter() - t0
    expect(len(trace) == frames, f"loaded {len(trace)} frames, expected {frames}")
    expect(len(pm.nodes) > 0, "empty prediction map")
    objects = input_objects(trace, cat, pm)
    s = Setup(cat, trace, pm, seconds, objects, object_state(objects))
    s.check_no_carryover()
    return s


def replay(s: Setup) -> tuple[sim.SimulationReport, float]:
    gc.collect()
    t0 = time.perf_counter()
    report = sim.run(s.trace, s.catalog, sim.Policy.shift(), prediction_map=s.pm)
    seconds = time.perf_counter() - t0
    check_report(report, s.trace, s.catalog)
    s.check_no_carryover()
    return report, seconds


def checked_pass(s: Setup, reference: list, passes: list[numpy.ndarray]) -> bool:
    """One decision pass; its per-frame times are appended to `passes`."""
    pairs, times_ns = decision_pass(s)
    expect(pairs == reference, "decision-pass pairs differ from the replay's")
    s.check_no_carryover()
    passes.append(numpy.array(times_ns, dtype=numpy.int64))
    return True


def decision_pass(s: Setup) -> tuple[list[tuple[str, str]], list[int]]:
    """Drive `schedule` over the trace as the replay does, timing each call.
    Returns the chosen pair and the nanoseconds of the call, per frame."""
    gc.collect()
    state = scheduler.SchedulerState(s.catalog, s.pm, scheduler.SchedulerConfig())
    pair = state.bootstrap().pair
    schedule, clock = scheduler.schedule, time.perf_counter_ns
    pairs, times_ns = [], []
    for fr in s.trace.frames:
        out = fr.per_model.get(pair[0])
        confidence = out.confidence if out is not None else 0.0
        box = out.box if out is not None else None
        t0 = clock()
        decision = schedule(state, pair, confidence, fr.frame, box)
        times_ns.append(clock() - t0)
        pair = decision.pair
        pairs.append(pair)
    return pairs, times_ns


def sweep(
    s: Setup, grid: dict, reference: sim.SimulationReport, workdir: Path, gate: Gate
) -> tuple[list, float] | None:
    """One `sim.sweep` call; each configuration counts as one operation.
    Returns the results and the sweep's seconds."""
    n_configs = len(sim.expand_grid(grid))
    gc.collect()
    t0 = time.perf_counter()
    try:
        results = sim.sweep(s.trace, s.catalog, grid)
    except Exception as exc:  # noqa: BLE001 -- counted as failed configs
        gate.attempted += n_configs
        gate.failures.extend([f"sweep: {type(exc).__name__}: {exc}"] * n_configs)
        return None
    seconds = time.perf_counter() - t0
    gate.attempted += n_configs
    if len(results) != n_configs:
        gate.failures.append(f"sweep returned {len(results)} of {n_configs} configs")
        return None
    default = scheduler.SchedulerConfig()
    for i, (cfg, report) in enumerate(results):
        try:
            check_report(report, s.trace, s.catalog)
            if cfg == default:
                expect(
                    report.to_dict() == reference.to_dict(),
                    "default configuration differs from the standalone replay",
                )
        except CheckFailed as exc:
            gate.failures.append(f"sweep config {i}: {exc}")
    try:
        s.check_no_carryover()
    except CheckFailed as exc:
        gate.failures.append(f"sweep: {exc}")
    return results, seconds


def deterministic(
    gate: Gate, what: str, digest: str, digests: dict[str, str], key: str
) -> None:
    first = digests.setdefault(key, digest)
    if digest != first:
        gate.failures.append(f"{what}: {key} {digest} differs from {first}")


# ---------------------------------------------------------------------------
# End-to-end run


def untraced_run(args, inputs, generated, workdir: Path, gate: Gate):
    def load() -> Setup:
        s = gate.run(f"setup {len(setups)}", lambda: setup(workdir, inputs.frames))
        if s is None:
            raise SystemExit(report_abort(gate))
        setups.append(s.seconds)
        return s

    setups: list[float] = []
    s = load()
    digests: dict[str, str] = {}
    first = gate.run("replay warm-up", lambda: replay(s))
    if first is None:
        raise SystemExit(report_abort(gate))
    reference = first[0]
    digests["report_sha256"] = report_digest(reference, workdir)
    ref_pairs = pairs_of(reference)
    gate.run("decision warm-up", lambda: checked_pass(s, ref_pairs, []))

    # Cycles of [replay + decision rounds for about one sweep's time, one
    # sweep, maybe one more set-up] spread every kind of operation over the
    # whole run, so a slow stretch of a shared host hits all of them alike.
    replay_s: list[float] = []
    passes: list[numpy.ndarray] = []
    sweep_s: list[float] = []
    sweep_reports: list[sim.SimulationReport] = []
    start = time.perf_counter()
    while True:
        last_sweep = sweep_s[-1] if sweep_s else 0.0
        slice_end = time.perf_counter() + max(MIN_SLICE_S, last_sweep)
        while time.perf_counter() < slice_end:
            out = gate.run("replay", lambda: replay(s))
            if out is None:
                break
            replay_s.append(out[1])
            deterministic(gate, "replay", report_digest(out[0], workdir),
                          digests, "report_sha256")
            if not gate.run("decision pass", lambda: checked_pass(s, ref_pairs, passes)):
                break

        out = sweep(s, inputs.grid, reference, workdir, gate)
        if out is None:
            break
        results, seconds = out
        sweep_s.append(seconds)
        sweep_reports = [rep for _, rep in results]
        deterministic(gate, "sweep", sweep_digest(results, workdir),
                      digests, "sweep_csv_sha256")

        if len(setups) < SETUP_MIN:
            s = None  # hold one copy of the trace at a time
            s = load()
        while sum(setups) < SETUP_SHARE * (time.perf_counter() - start):
            s = None
            s = load()
        if gate.failed or (
            time.perf_counter() - start >= args.seconds
            and len(replay_s) >= MIN_ROUNDS
            and len(sweep_s) >= MIN_SWEEPS
            and len(setups) >= SETUP_MIN
        ):
            break

    if not (replay_s and passes and sweep_s):
        raise SystemExit(report_abort(gate))
    # Every pass makes the same calls in the same state, so frame i's
    # latency is the trimmed mean of its calls over the passes; p50 and p99
    # are then taken over the frames with the Harrell-Davis estimator, a
    # weighted mean of the order statistics near the quantile.  On the 300
    # demo frames only three or four reschedule, so the nearest-rank p99
    # would jump by up to a fifth between seeds as the fourth-slowest frame
    # changes from a reschedule to a plain frame (DESIGN.md, "Percentiles").
    per_frame_ns = trim_mean(numpy.vstack(passes), TRIM, axis=0)
    p50_ns, p99_ns = hdquantiles(per_frame_ns, prob=[0.5, 0.99]).tolist()
    # The sweep workload's simulated outcome is the mean over its configs.
    sim_reports = sweep_reports if args.workload == "demo-sweep" else [reference]
    values = {
        "setup_s": statistics.median(setups),
        "replay_frames_per_s": len(s.trace) / trim_mean(replay_s, TRIM),
        "sweep_configs_per_s": len(sweep_reports) / trim_mean(sweep_s, TRIM),
        "decision_us_p50": p50_ns / 1e3,
        "decision_us_p99": p99_ns / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_energy_j_per_frame": statistics.fmean(
            r.avg_energy_with_loads_j for r in sim_reports
        ),
        "sim_latency_ms_per_frame": statistics.fmean(
            r.avg_time_with_loads_s * 1e3 for r in sim_reports
        ),
        "sim_success_rate": statistics.fmean(r.success_rate for r in sim_reports),
    }
    detail = {
        "digests": digests,
        "samples": {
            "setups": len(setups),
            "replays": len(replay_s),
            "decision_samples": len(per_frame_ns),
            "decision_passes": len(passes),
            "sweeps": len(sweep_s),
            "sweep_configs": len(sweep_reports),
        },
        "input": generated,
        "notes": [SIM_NOTE],
    }
    return values, detail


def report_abort(gate: Gate) -> int:
    """Print the failures and the failed result; return the exit status."""
    for failure in gate.failures:
        print(failure, file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": max(1, gate.attempted),
                      "failed": max(1, gate.failed), "metrics": {}}))
    return 1


# ---------------------------------------------------------------------------
# Traced run


def traced_run(args, inputs, generated, workdir: Path, gate: Gate):
    # The graph-size probe counts towards the run's seconds; the replays
    # fill the rest.
    end = time.perf_counter() + args.seconds
    probe = {
        f"confidence_graph.build_s.m{m}": probe_build(args.seed, m)
        for m in PROBE_MODELS
    }
    tracer = Tracer()
    with tracer:
        s = gate.run("traced setup", lambda: setup(workdir, inputs.frames))
    setup_spans = tracer.take()
    if s is None:
        raise SystemExit(report_abort(gate))

    first = gate.run("replay warm-up", lambda: replay(s))
    if first is None:
        raise SystemExit(report_abort(gate))
    reference = first[0]
    digests = {"report_sha256": report_digest(reference, workdir)}
    gate.run("decision pass", lambda: checked_pass(s, pairs_of(reference), []))

    # Alternate untraced and traced replays so both see the same machine,
    # for at least half the run however long the probe took.
    end = max(end, time.perf_counter() + args.seconds / 2)
    base_s: list[float] = []
    traced_s: list[float] = []
    while not gate.failed and (time.perf_counter() < end or len(traced_s) < MIN_ROUNDS):
        out = gate.run("replay", lambda: replay(s))
        if out is not None:
            base_s.append(out[1])
        with tracer:
            out = gate.run("traced replay", lambda: replay(s))
        if out is not None:
            traced_s.append(out[1])
            deterministic(gate, "traced replay", report_digest(out[0], workdir),
                          digests, "report_sha256")
    replay_spans = tracer.take()

    with tracer:
        out = sweep(s, inputs.grid, reference, workdir, gate)
    sweep_spans = tracer.take()
    if out is not None:
        digests["sweep_csv_sha256"] = sweep_digest(out[0], workdir)

    if not (base_s and traced_s):
        raise SystemExit(report_abort(gate))
    values = layer_metrics(setup_spans, replay_spans, sweep_spans, len(traced_s))
    values.update(
        {
            "confidence_graph.nodes": len(s.pm.nodes),
            "confidence_graph.arcs": len(s.pm.arcs),
            "catalog.save_trace_s": generated["save_trace_s"],
            "catalog.load_trace_mb_per_s": generated["trace_bytes"]
            / 1e6
            / values["catalog.load_trace_s"]
            if values["catalog.load_trace_s"]
            else 0.0,
            "sim.gen_trace_s": generated["gen_trace_s"],
            "trace_overhead_ratio": trim_mean(traced_s, TRIM) / trim_mean(base_s, TRIM),
            "trace_overhead.base_replay_s": trim_mean(base_s, TRIM),
        }
    )
    values.update(probe)
    detail = {
        "digests": digests,
        "missing_spans": tracer.missing,
        "samples": {"traced_replays": len(traced_s), "untraced_replays": len(base_s)},
        "input": generated,
        "notes": [SIM_NOTE],
    }
    return values, detail


def probe_build(seed: int, n_models: int) -> float:
    """Graph build time on the many-models generator with `n_models` models."""
    trace = sim.gen_trace(workloads.many_models_scenario(n_models), seed)
    gc.collect()
    t0 = time.perf_counter()
    confidence_graph.build_prediction_map(trace)
    return time.perf_counter() - t0


def layer_metrics(
    setup_spans: list[Span],
    replay_spans: list[Span],
    sweep_spans: list[Span],
    n_replays: int,
) -> dict[str, float]:
    setup_by = group(setup_spans)
    by = group(replay_spans)

    def total(spans: dict, name: str) -> float:
        return sum(sp.duration for sp in spans.get(name, ()))

    def per_replay(name: str) -> float:
        return len(by.get(name, ())) / n_replays

    def p50_us(name: str, key: Callable[[Span], float] = lambda sp: sp.duration):
        values = [key(sp) for sp in by.get(name, ())]
        return statistics.median(values) * 1e6 if values else 0.0

    def ratio(name: str, hit: Callable[[Span], bool]) -> float:
        spans = by.get(name, ())
        return sum(1 for sp in spans if hit(sp)) / len(spans) if spans else 0.0

    context = ("context.framestats", "context.frame_ncc", "context.box_ncc")
    runs = [sp for sp in by.get("sim.run", ()) if sp.parent < 0]
    return {
        "catalog.load_catalog_ms": total(setup_by, "catalog.load_catalog") * 1e3,
        "catalog.load_trace_s": total(setup_by, "catalog.load_trace"),
        "confidence_graph.build_cograph_s": total(setup_by, "confidence_graph.build_cograph"),
        "confidence_graph.normalize_invert_s": total(
            setup_by, "confidence_graph.normalize_invert"
        ),
        "confidence_graph.neighborhoods_s": total(setup_by, "confidence_graph.neighborhood"),
        "confidence_graph.consolidate_s": total(setup_by, "confidence_graph.consolidate"),
        "confidence_graph.predict_calls": per_replay("confidence_graph.predict"),
        "confidence_graph.predict_us_p50": p50_us("confidence_graph.predict"),
        "confidence_graph.predict_fallback_ratio": ratio(
            "confidence_graph.predict", lambda sp: sp.tag is True
        ),
        "context.framestats_us_p50": p50_us("context.framestats"),
        "context.frame_ncc_calls": per_replay("context.frame_ncc"),
        "context.frame_ncc_us_p50": p50_us("context.frame_ncc"),
        "context.box_ncc_calls": per_replay("context.box_ncc"),
        "context.box_ncc_us_p50": p50_us("context.box_ncc"),
        "context.self_s": sum(total(by, name) for name in context) / n_replays,
        "scheduler.schedule_calls": per_replay("scheduler.schedule"),
        "scheduler.schedule_self_us_p50": p50_us(
            "scheduler.schedule", lambda sp: sp.self_s
        ),
        "scheduler.reschedule_ratio": ratio(
            "scheduler.schedule", lambda sp: sp.tag is True
        ),
        "loader.request_calls": per_replay("loader.request"),
        "loader.request_us_p50": p50_us("loader.request"),
        "loader.hit_ratio": ratio(
            "loader.request", lambda sp: sp.tag is not None and sp.tag[0] == "hit"
        ),
        "loader.evictions": sum(
            sp.tag[1] for sp in by.get("loader.request", ()) if sp.tag is not None
        )
        / n_replays,
        "sim.replay_self_s": statistics.median(sp.self_s for sp in runs) if runs else 0.0,
        "sim.metrics_ms": p50_us("sim.metrics") / 1e3,
        "sim.sweep_graph_build_s": sum(
            sp.duration
            for sp in sweep_spans
            if sp.name == "confidence_graph.build"
        ),
    }


def group(spans: list[Span]) -> dict[str, list[Span]]:
    out: dict[str, list[Span]] = {}
    for sp in spans:
        out.setdefault(sp.name, []).append(sp)
    return out


def provenance(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "held_out_seed": seed >= HELD_OUT_SEED,
        "loop": "closed loop, one process, one Python thread, offline batch replay",
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
