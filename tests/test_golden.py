"""Byte-level pins of the CLI's outputs on a fixed synthetic trace.

The digests guard refactors of the replay loop and of the scheduler
parameter handling: any change to a report, a per-frame CSV, a sweep CSV or
a sweep summary shows up here.  The trace file itself is pinned too, so a
change to how frames are generated or held in memory cannot alter what is
written, and so is the `build-graph` map, so a change to the graph build
cannot alter the prediction map.  `--help` text is not pinned, because
argparse formats it differently across Python versions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from odsched.cli import main
from odsched.scheduler import SchedulerConfig

# sha256 of the `gen-trace --seed 3` file every test below replays.
TRACE_DIGEST = "3df766871f3b3d064cfcf87273b17512e008b39c9e27580e7044c0691b8c401e"

# sha256 of the `build-graph` map of that trace, default parameters.
GRAPH_DIGEST = "4f19674841fd9cf3f20cb8b63841942945d9dbeaba7677f2d87ba04209f11111"

SIMULATE_DIGESTS = {
    # --policy argument -> sha256 of (report JSON, frames CSV, timeline CSV)
    "shift": (
        "6c270e217747737de4b3520265afe6a23865ff06d27b8d6db3b052aa77edc4a1",
        "708fc67feef82911400c767df5c63b0b28a671ccb3055d8726e8f4d91cdc2937",
        "e0c136323bec2342d0ada6013f0d6bfb2fd576dc8c20e8f0f689b9382fcf02b8",
    ),
    "shift --prefill": (
        "66649fdd3f8e32df0f393722c5ea24566fad577f72351dba681fd95f043f52bf",
        "708fc67feef82911400c767df5c63b0b28a671ccb3055d8726e8f4d91cdc2937",
        "e0c136323bec2342d0ada6013f0d6bfb2fd576dc8c20e8f0f689b9382fcf02b8",
    ),
    "single:yolov7:gpu": (
        "bab5f56b261eedca9f17e0c1ed6c847c48ea318122d0e47eae1b40739ba883d7",
        "9e3f111230be240a3082bdb6a82e512756791b0084d78a286b3e418954f534fa",
        "8bedd15024ec8deab0761bfd72e27860fb25bb94271a2f63a459dc1e2da0e929",
    ),
    "oracle-e": (
        "e9c32171afe408a7cac409b0321694eb8d8aa7a69ab595b745a666a7fa61da83",
        "48e3db0c62fcd1dab10299cc695429e4ec159fa807c18519bac4ed42b9b42151",
        "e0c136323bec2342d0ada6013f0d6bfb2fd576dc8c20e8f0f689b9382fcf02b8",
    ),
    "oracle-a": (
        "927365f18b9b27bf792dcf6ce3456829259ccac5e6c13065aadd19db370312be",
        "c08f474157578be9e19264d66d102947a2f92227d23518a5f34f9d5a56085dfb",
        "17b86b6aa50bb818ec218118845ffac24152a32c44a0ef326fcdfafb901c6871",
    ),
    "oracle-l": (
        "7be65a40b255d57d9ba7d9085fd4916f9ef94323a975dde05c74ce7c34c27228",
        "48e3db0c62fcd1dab10299cc695429e4ec159fa807c18519bac4ed42b9b42151",
        "e0c136323bec2342d0ada6013f0d6bfb2fd576dc8c20e8f0f689b9382fcf02b8",
    ),
}

SWEEP_GRID = {
    "w_accuracy": [0.5, 1.0],
    "w_energy": [0.25, 1.0],
    "accuracy_threshold": [0.2, 0.4],
    "momentum": [10, 30],
    "distance_threshold": [0.3, 0.5],
    "bucket_width": [0.1, 0.2],
}
# sha256 of (sweep CSV, summary JSON)
SWEEP_DIGESTS = (
    "a054e045cb55d0c5c9d34c5c9d4c5d8556519fc764477daa4a3318c9376a2f22",
    "8eb0c45fd8fb77135ebab4fc0fab76bc0d1e2980da7e09091abec894d4e84e36",
)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "seed3.ndjson"
    assert main(["gen-trace", "--seed", "3", "--out", str(path)]) == 0
    return str(path)


def test_trace_file_is_pinned(trace_file):
    assert _sha256(Path(trace_file)) == TRACE_DIGEST


def test_graph_file_is_pinned(tmp_path, trace_file):
    out = tmp_path / "graph.json"
    assert main(["build-graph", "--trace", trace_file, "--out", str(out)]) == 0
    assert _sha256(out) == GRAPH_DIGEST


def _simulate(tmp_path, trace_file, *extra):
    report, frames, timeline = (
        tmp_path / n for n in ("report.json", "frames.csv", "timeline.csv")
    )
    code = main(
        ["simulate", "--trace", trace_file, *extra, "--out", str(report),
         "--frames-csv", str(frames), "--plot", str(timeline)]
    )
    assert code == 0
    return report, frames, timeline


@pytest.mark.parametrize("policy", sorted(SIMULATE_DIGESTS))
def test_simulate_outputs_are_pinned(tmp_path, trace_file, policy):
    paths = _simulate(tmp_path, trace_file, "--policy", *policy.split())
    assert tuple(_sha256(p) for p in paths) == SIMULATE_DIGESTS[policy]


def test_sweep_outputs_are_pinned(tmp_path, trace_file):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(SWEEP_GRID))
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--trace", trace_file, "--grid", str(grid), "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 64
    summary = tmp_path / "sweep.csv.summary.json"
    assert (_sha256(out), _sha256(summary)) == SWEEP_DIGESTS


def test_flagless_simulate_config_is_the_library_default(tmp_path, trace_file):
    report, _, _ = _simulate(tmp_path, trace_file)
    defaults = dataclasses.asdict(SchedulerConfig())
    assert json.loads(report.read_text())["config"] == defaults
