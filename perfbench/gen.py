"""Write one workload's input files; run as a child of ``run.py``.

Generating in a separate process keeps the generator's copy of the trace
out of the workload process, so that process's peak RSS is its own.

    python3 perfbench/gen.py --workload NAME --seed N --out DIR

Writes ``DIR/catalog.json`` and ``DIR/trace.ndjson`` and prints one JSON
line with the generation timings.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import bootstrap  # noqa: F401  (puts the checkout's src/ first on sys.path)
import workloads
from odsched import catalog, sim


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    inputs = workloads.make_inputs(args.workload)
    catalog.save_catalog(inputs.catalog, args.out / "catalog.json")
    t0 = time.perf_counter()
    trace = sim.gen_trace(inputs.scenario, args.seed)
    t1 = time.perf_counter()
    trace_path = args.out / "trace.ndjson"
    catalog.save_trace(trace, trace_path)
    t2 = time.perf_counter()
    print(
        json.dumps(
            {
                "gen_trace_s": t1 - t0,
                "save_trace_s": t2 - t1,
                "trace_bytes": trace_path.stat().st_size,
                "frames": len(trace),
            }
        )
    )


if __name__ == "__main__":
    main()
