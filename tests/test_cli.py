from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import odsched
from conftest import with_ghost
from odsched.catalog import builtin_catalog, load_trace, save_catalog, save_trace
from odsched.cli import build_parser, main
from odsched.sim import demo_scenario, gen_trace


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "demo.ndjson"
    save_trace(gen_trace(demo_scenario(), 0), path)
    return str(path)


def test_build_graph_defaults(tmp_path, trace_file, capsys):
    out = tmp_path / "pm.json"
    code = main(["build-graph", "--trace", trace_file, "--out", str(out)])
    assert code == 0
    assert out.exists()
    doc = json.loads(out.read_text())
    assert doc["bucket_width"] == 0.1 and doc["distance_threshold"] == 0.5
    printed = capsys.readouterr().out
    assert "nodes" in printed and "entries" in printed


def test_build_graph_bad_bucket_width_fails_before_io(tmp_path, trace_file):
    out = tmp_path / "pm.json"
    code = main(["build-graph", "--trace", trace_file, "--bucket-width", "0", "--out", str(out)])
    assert code != 0
    assert not out.exists()


def test_build_graph_unreadable_trace(tmp_path, capsys):
    out = tmp_path / "pm.json"
    code = main(["build-graph", "--trace", "/does/not/exist.ndjson", "--out", str(out)])
    assert code != 0
    assert "/does/not/exist.ndjson" in capsys.readouterr().err


def test_simulate_shift_stock_defaults(tmp_path, trace_file, capsys):
    out = tmp_path / "report.json"
    frames_csv = tmp_path / "frames.csv"
    plot_csv = tmp_path / "timeline.csv"
    code = main(
        [
            "simulate",
            "--trace", trace_file,
            "--policy", "shift",
            "--accuracy-threshold", "0.25",
            "--momentum", "30",
            "--distance", "0.5",
            "--w-acc", "1.0",
            "--w-energy", "0.5",
            "--w-latency", "0.5",
            "--out", str(out),
            "--frames-csv", str(frames_csv),
            "--plot", str(plot_csv),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["policy"] == "shift"
    assert report["config"]["momentum"] == 30
    header = frames_csv.read_text().splitlines()[0]
    assert header == "frame,model,accelerator,iou,confidence,latency_s,energy_j,swap"
    assert plot_csv.read_text().splitlines()[0] == "frame,model,accelerator,iou,energy_j"
    assert "IoU" in capsys.readouterr().out


def test_simulate_prefill_flag(tmp_path, trace_file):
    out = tmp_path / "prefill.json"
    code = main(["simulate", "--trace", trace_file, "--prefill", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["total_load_time_s"] == 0.0


def test_build_graph_min_samples_prunes(tmp_path, trace_file):
    dense = tmp_path / "dense.json"
    sparse = tmp_path / "sparse.json"
    assert main(["build-graph", "--trace", trace_file, "--out", str(dense)]) == 0
    assert main(
        ["build-graph", "--trace", trace_file, "--min-samples", "10", "--out", str(sparse)]
    ) == 0
    n_dense = len(json.loads(dense.read_text())["nodes"])
    n_sparse = len(json.loads(sparse.read_text())["nodes"])
    assert n_sparse < n_dense


@pytest.mark.parametrize("command", ["build-graph", "simulate"])
def test_default_trace_is_the_demo_trace(tmp_path, trace_file, command):
    default, given = tmp_path / "default.json", tmp_path / "given.json"
    assert main([command, "--out", str(default)]) == 0
    assert main([command, "--trace", trace_file, "--out", str(given)]) == 0
    assert default.read_bytes() == given.read_bytes()


def test_simulate_single_has_zero_swaps(tmp_path, trace_file):
    out = tmp_path / "single.json"
    code = main(
        ["simulate", "--trace", trace_file, "--policy", "single:yolov7:gpu", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["model_swaps"] == 0
    assert report["pairs_used"] == 1


def test_simulate_incompatible_single_pair(tmp_path, trace_file):
    out = tmp_path / "bad.json"
    code = main(
        ["simulate", "--trace", trace_file, "--policy", "single:yolov7-e6e:oakd", "--out", str(out)]
    )
    assert code != 0


def test_simulate_bad_policy_string(tmp_path, trace_file):
    code = main(
        ["simulate", "--trace", trace_file, "--policy", "warp", "--out", str(tmp_path / "x.json")]
    )
    assert code != 0


def test_oracle_e_minimizes_energy_among_oracles(tmp_path, trace_file):
    energies = {}
    for name in ("oracle-e", "oracle-a", "oracle-l"):
        out = tmp_path / f"{name}.json"
        assert main(["simulate", "--trace", trace_file, "--policy", name, "--out", str(out)]) == 0
        energies[name] = json.loads(out.read_text())["avg_energy_j"]
    assert energies["oracle-e"] <= energies["oracle-a"]
    assert energies["oracle-e"] <= energies["oracle-l"]


def test_simulate_with_prebuilt_graph_matches_inline(tmp_path, trace_file):
    pm_path = tmp_path / "pm.json"
    assert main(["build-graph", "--trace", trace_file, "--out", str(pm_path)]) == 0
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["simulate", "--trace", trace_file, "--out", str(out1)]) == 0
    assert main(
        ["simulate", "--trace", trace_file, "--graph", str(pm_path), "--out", str(out2)]
    ) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_graph_reports_the_maps_parameters(tmp_path, trace_file):
    pm_path = tmp_path / "pm.json"
    assert main(
        ["build-graph", "--trace", trace_file, "--bucket-width", "0.2",
         "--distance", "0.3", "--out", str(pm_path)]
    ) == 0
    out = tmp_path / "r.json"
    assert main(
        ["simulate", "--trace", trace_file, "--graph", str(pm_path), "--out", str(out)]
    ) == 0
    config = json.loads(out.read_text())["config"]
    assert (config["bucket_width"], config["distance_threshold"]) == (0.2, 0.3)


def test_simulate_graph_with_bad_bucket_width_fails_before_writing(
    tmp_path, trace_file, capsys
):
    pm_path = tmp_path / "pm.json"
    assert main(["build-graph", "--trace", trace_file, "--out", str(pm_path)]) == 0
    doc = json.loads(pm_path.read_text())
    doc["bucket_width"] = 2.0
    pm_path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    code = main(
        ["simulate", "--trace", trace_file, "--graph", str(pm_path), "--out", str(out)]
    )
    assert code == 1
    assert f"error: {pm_path}: prediction map: 'bucket_width' 2.0 outside (0, 1]" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_simulate_graph_with_too_narrow_bucket_width_fails_before_writing(
    tmp_path, trace_file, capsys
):
    pm_path = tmp_path / "pm.json"
    assert main(["build-graph", "--trace", trace_file, "--out", str(pm_path)]) == 0
    doc = json.loads(pm_path.read_text())
    doc["bucket_width"] = 5e-324  # in (0, 1], but 1 / width overflows
    pm_path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    code = main(
        ["simulate", "--trace", trace_file, "--graph", str(pm_path), "--out", str(out)]
    )
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {pm_path}: prediction map: 'bucket_width' 5e-324 too narrow: "
        "1 / width overflows\n"
    )
    assert not out.exists()


def test_simulate_graph_entry_without_its_own_model_fails_before_writing(
    tmp_path, trace_file, capsys
):
    pm_path = tmp_path / "pm.json"
    assert main(["build-graph", "--trace", trace_file, "--out", str(pm_path)]) == 0
    doc = json.loads(pm_path.read_text())
    # The last entry is the last model's top bucket, which bootstrap reads.
    i = len(doc["entries"]) - 1
    entry = doc["entries"][i]
    own = entry["node"][0]
    entry["predictions"] = [p for p in entry["predictions"] if p["model"] != own]
    pm_path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    code = main(
        ["simulate", "--trace", trace_file, "--graph", str(pm_path), "--out", str(out)]
    )
    assert code == 1
    assert f"entries[{i}]: no prediction for the node's own model {own}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_graph_predicting_a_model_without_nodes_fails_before_writing(
    tmp_path, trace_file, capsys
):
    # The demo trace characterizes two of the catalog's models, not yolov7-e6e.
    pm_path = tmp_path / "pm.json"
    assert main(["build-graph", "--trace", trace_file, "--out", str(pm_path)]) == 0
    doc = json.loads(pm_path.read_text())
    for entry in doc["entries"]:
        entry["predictions"].append({"model": "yolov7-e6e", "accuracy": 1.0, "distance": 0.0})
    pm_path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    code = main(
        ["simulate", "--trace", trace_file, "--graph", str(pm_path), "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "entries[0]: prediction for model yolov7-e6e, which has no node" in err
    assert not out.exists()


def test_sweep_two_by_two(tmp_path, trace_file, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"w_accuracy": [0.5, 1.0], "w_energy": [0.0, 1.0]}))
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--trace", trace_file, "--grid", str(grid), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 4  # header + product of range sizes
    summary = json.loads((tmp_path / "sweep.csv.summary.json").read_text())
    assert set(summary) == {"w_accuracy", "w_energy"}
    assert "spearman" in capsys.readouterr().out


def test_sweep_constant_response_is_null_in_strict_json(tmp_path, trace_file, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"w_latency": [0.5, 0.6]}))
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sweep", "--trace", trace_file, "--grid", str(grid), "--out", str(out)])
    assert code == 0

    def reject(token):
        raise AssertionError(f"non-standard JSON constant {token}")

    text = (tmp_path / "sweep.csv.summary.json").read_text()
    summary = json.loads(text, parse_constant=reject)
    assert summary == {"w_latency": {"iou": None, "energy": None, "latency": None}}
    assert "spearman w_latency: iou n/a  energy n/a  latency n/a" in capsys.readouterr().out


def test_simulate_negative_overhead_fails_before_writing(tmp_path, trace_file, capsys):
    out = tmp_path / "r.json"
    code = main(["simulate", "--trace", trace_file, "--overhead", "-1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: scheduler overhead -1.0")
    assert not out.exists()


def test_sweep_missing_grid_file(tmp_path, trace_file):
    code = main(
        ["sweep", "--trace", trace_file, "--grid", str(tmp_path / "nope.json"),
         "--out", str(tmp_path / "s.csv")]
    )
    assert code != 0


def test_sweep_scalar_grid_value_fails_cleanly(tmp_path, trace_file, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"w_latency": 0.5}))
    out = tmp_path / "s.csv"
    code = main(["sweep", "--trace", trace_file, "--grid", str(grid), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {grid}: sweep parameter 'w_latency' must be a list, got 0.5\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, message",
    [
        ('{"warp_factor": [1]}', "unknown sweep parameters: warp_factor"),
        # An integer beyond the float range is an error, not a traceback.
        (f'{{"w_latency": [1{"0" * 400}]}}', "w_latency: int too large to convert to float"),
    ],
)
def test_sweep_grid_is_decoded_before_the_catalog_and_trace(tmp_path, capsys, grid, message):
    path = tmp_path / "grid.json"
    path.write_text(grid)
    missing = str(tmp_path / "missing")
    code = main(["sweep", "--catalog", missing, "--trace", missing, "--grid", str(path),
                 "--out", str(tmp_path / "s.csv")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize(
    "command, grid, message",
    [
        (["build-graph", "--distance", "nan"], None, "distance_threshold nan"),
        (["simulate", "--w-acc", "nan"], None, "w_accuracy must be finite"),
        (["simulate", "--distance", "inf"], None, "distance_threshold inf"),
        (["sweep"], '{"w_energy": [0.5, NaN]}', "w_energy must be finite"),
        (["sweep"], '{"momentum": [Infinity]}', "momentum: cannot convert"),
        (["sweep"], '{"momentum": [30, 1.5]}', "momentum: must be an integer, got 1.5"),
        (["build-graph", "--min-samples", "100000"], None,
         "min_samples 100000 prunes every node"),
        (["build-graph", "--min-samples", "0"], None, "min_samples 0 must be >= 1"),
        (["build-graph", "--min-samples", "-3"], None, "min_samples -3 must be >= 1"),
        # A value the run cannot hold: a deque length, 1 / width, a latency sum.
        (["simulate", "--momentum", str(2**63)], None, f"momentum {2**63} must be <="),
        (["sweep"], f'{{"momentum": [{2**63}]}}', f"momentum {2**63} must be <="),
        (["simulate", "--bucket-width", "5e-324"], None, "bucket_width 5e-324 too narrow"),
        (["build-graph", "--bucket-width", "5e-324"], None,
         "bucket_width 5e-324 too narrow"),
        (["sweep"], '{"bucket_width": [5e-324]}', "bucket_width 5e-324 too narrow"),
        (["simulate", "--overhead", "1e308"], None, "scheduler overhead 1e+308"),
    ],
)
def test_non_finite_parameter_fails_naming_it(tmp_path, trace_file, capsys,
                                              command, grid, message):
    out = tmp_path / "out"
    if grid is not None:
        (tmp_path / "grid.json").write_text(grid)
        command = [*command, "--grid", str(tmp_path / "grid.json")]
        message = f"{tmp_path / 'grid.json'}: {message}"
    assert main([*command, "--trace", trace_file, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_gen_trace_round_trips_through_loader(tmp_path):
    out = tmp_path / "t.ndjson"
    assert main(["gen-trace", "--seed", "3", "--out", str(out)]) == 0
    trace = load_trace(out, builtin_catalog())
    assert len(trace) == 300


def test_gen_trace_byte_identical_for_same_seed(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.ndjson", "b.ndjson", "c.ndjson"))
    assert main(["gen-trace", "--seed", "7", "--out", str(a)]) == 0
    assert main(["gen-trace", "--seed", "7", "--out", str(b)]) == 0
    assert main(["gen-trace", "--seed", "8", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_trace_malformed_scenario_names_field(tmp_path, capsys):
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps({"segments": [{"models": {"a": {}}}]}))
    code = main(["gen-trace", "--scenario", str(spec), "--out", str(tmp_path / "t.ndjson")])
    assert code != 0
    assert f"error: {spec}: segments[0]: missing key 'frames'" in capsys.readouterr().err


def test_simulate_bad_catalog_names_the_file(tmp_path, trace_file, capsys):
    cat_path = tmp_path / "catalog.json"
    save_catalog(builtin_catalog(), cat_path)
    doc = json.loads(cat_path.read_text())
    doc["profiles"][2]["avg_power_w"] = "x"
    cat_path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    code = main(["simulate", "--catalog", str(cat_path), "--trace", trace_file,
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {cat_path}: profiles[2]: avg_power_w: must be a number, got 'x'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("option", ["--catalog", "--graph", "--trace", "--scenario", "--grid"])
def test_too_deeply_nested_json_is_one_error_line(tmp_path, trace_file, option):
    deep = tmp_path / "deep.json"
    value = "[" * 100_000 + "]" * 100_000
    # A trace holds the value on one of its lines.
    deep.write_text(f'{{"frame": 0, "x": {value}}}\n' if option == "--trace" else value)
    out = tmp_path / "out"
    command = {"--scenario": ["gen-trace"], "--grid": ["sweep", "--trace", trace_file]}.get(
        option, ["simulate"]
    )
    # A fresh interpreter, so a traceback would reach its stderr.
    env = dict(os.environ, PYTHONPATH=str(Path(odsched.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "odsched.cli", *command, option, str(deep), "--out", str(out)],
        env=env, capture_output=True, text=True, check=False,
    )
    assert run.returncode == 1
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
    where = f"{deep}:1: invalid JSON" if option == "--trace" else f"{deep} is not valid JSON"
    assert f"{where}: maximum recursion depth" in run.stderr
    assert not out.exists()


def test_oracle_on_a_frame_without_a_profiled_model_fails_before_writing(tmp_path, capsys):
    catalog, trace = with_ghost(builtin_catalog(), gen_trace(demo_scenario(), 0), 150)
    save_catalog(catalog, tmp_path / "catalog.json")
    save_trace(trace, tmp_path / "trace.ndjson")
    out = tmp_path / "r.json"
    code = main(["simulate", "--catalog", str(tmp_path / "catalog.json"),
                 "--trace", str(tmp_path / "trace.ndjson"), "--policy", "oracle-e",
                 "--out", str(out)])
    assert code == 1
    # Frame 150 is line 151 of the file.
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'trace.ndjson'}:151: no profiled pair among observed models (ghost)\n"
    )
    assert not out.exists()


def test_env_var_overrides_default_catalog(tmp_path, trace_file, monkeypatch):
    # a catalog without yolov7 makes the single baseline unresolvable,
    # proving the env-pointed file was actually loaded
    cat = builtin_catalog()
    from odsched.catalog import Catalog

    reduced = Catalog(
        accelerators=cat.accelerators,
        models=tuple(m for m in cat.models if m != "yolov7"),
        compatibility=frozenset(p for p in cat.compatibility if p[0] != "yolov7"),
        profiles={p: v for p, v in cat.profiles.items() if p[0] != "yolov7"},
    )
    cat_path = tmp_path / "reduced.json"
    save_catalog(reduced, cat_path)
    monkeypatch.setenv("ODSCHED_CATALOG", str(cat_path))
    code = main(
        ["simulate", "--trace", trace_file, "--policy", "single:yolov7:gpu",
         "--out", str(tmp_path / "r.json")]
    )
    assert code != 0
    monkeypatch.delenv("ODSCHED_CATALOG")
    code = main(
        ["simulate", "--trace", trace_file, "--policy", "single:yolov7:gpu",
         "--out", str(tmp_path / "r.json")]
    )
    assert code == 0


def test_empty_env_var_means_the_bundled_catalog(tmp_path, trace_file, monkeypatch, capsys):
    monkeypatch.setenv("ODSCHED_CATALOG", "")
    out = tmp_path / "r.json"
    code = main(["simulate", "--trace", trace_file, "--policy", "single:yolov7:gpu",
                 "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert out.exists()


def test_every_option_has_help_and_a_shared_flag_means_the_same_everywhere():
    parser = build_parser()
    (commands,) = (a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
    seen: dict[str, tuple] = {}
    for command, sub in commands.items():
        for action in sub._actions:
            (flag,) = action.option_strings[-1:]
            assert action.help, f"{command} {flag} has no help"
            # `--out` names each command's own output.
            if flag in ("--help", "--out"):
                continue
            spec = (action.help, action.default, action.dest, action.type, action.metavar)
            assert seen.setdefault(flag, spec) == spec, f"{command} {flag} differs"
    assert {"--catalog", "--trace", "--overhead", "--distance", "--bucket-width"} <= set(seen)


def test_import_loads_neither_scipy_stats_nor_sparse():
    # A fresh interpreter: this one has loaded scipy for other tests.
    code = "import sys, odsched; print(sorted({'scipy.stats', 'scipy.sparse'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(odsched.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
