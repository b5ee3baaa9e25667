"""Self-check of the benchmark at tiny sizes.

    python -m pytest bench -q

Runs every workload shrunk to about a second, untraced and traced, through
all of its correctness checks; shows that the checks reject corrupted
output; and shows that the benchmark refuses to run without the sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run_bench

SPEC = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text())
TINY_SEED = 7
TINY = {
    "fp-long": (("--category", "A", "--iterations", "20000"), {"iterations": 20_000}),
    "sim-learn": (("--slots", "20000"), {"slots": 20_000}),
    "sim-crowded": (
        ("--slots", "20000", "--policy-secondary", "nash", "--policy-malicious", "nash"),
        {"slots": 20_000},
    ),
    "sweep-grid": (
        (
            "--sweep", "n_primary=0..9",
            "--sweep", "gain_malicious=5..400:50",
            "--sweep", "loss_secondary=5..400:50",
        ),
        {"cells": 640},
    ),
}


def tiny(name):
    workload = run_bench.WORKLOADS[name]
    args, options = TINY[name]
    return dataclasses.replace(workload, args=args, options={**workload.options, **options})


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run_bench.WORKLOADS)
    assert set(TINY) == set(run_bench.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_passes_and_reports_end_to_end_metrics(name):
    line, record = run_bench.benchmark(tiny(name), TINY_SEED, 0, False, min_runs=1)
    assert line["correct"], [r["failures"] for r in record["runs"]]
    assert (line["attempted"], line["failed"]) == (1, 0)
    assert len(record["setup_probes"]) == 1 and record["runs"][0]["ref_s"] > 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert record["provenance"]["argv"][0] == run_bench.WORKLOADS[name].kind


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_passes_and_reports_every_layer_metric(name):
    workload = tiny(name)
    line, record = run_bench.benchmark(workload, TINY_SEED, 0, True)
    assert line["correct"], [r["failures"] for r in record["runs"]]
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert record["trace"]["absent"] == []
    assert metrics["cli.rows"] > 0 and metrics["cli.output_ns_per_row"] > 0
    assert metrics["cli.import_ms"] > 0 and metrics["cli.parse_config_ms"] > 0
    if workload.kind == "fp":
        assert metrics["learning.run_fp_iterations"] == 20_000
        assert metrics["learning.run_fp_ns_per_iter"] > 0
        assert metrics["learning.final_err_p"] <= checks.FREQ_TOL
    elif workload.kind == "simulate":
        slots = sum(metrics[f"simulate.slots_{c}"] for c in "ABC")
        assert slots == 20_000 == metrics["cli.rows"]
        for name in ("settle_slot_us", "choose_actions_us", "update_histories_us",
                     "classify_state_us", "retained_bytes_per_slot", "loop_self_us_per_slot"):
            assert metrics[f"simulate.{name}"] > 0, name
        assert metrics["simulate.obs_jammer"] >= metrics["simulate.obs_secondary"] > 0
    else:
        assert metrics["games.build_game_calls"] == metrics["nash.mixed_equilibrium_calls"] == 1280
        assert metrics["nash.degenerate_games"] > 0
        assert metrics["simulate.run_simulation_us_per_slot"] == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """stdout and CSV of one tiny CLI run per workload."""
    work = tmp_path_factory.mktemp("outputs")
    produced = {}
    for name in TINY:
        out = work / f"{name}.csv"
        stdout_path = work / f"{name}.stdout"
        cmd = [sys.executable, "-c", run_bench.CLI_ENTRY, *tiny(name).argv(TINY_SEED, out)]
        _, _, code = run_bench.spawn(cmd, work, stdout_path)
        assert code == 0
        produced[name] = (stdout_path.read_text(), out.read_text())
    return produced


def failures_for(name, stdout, csv_text, tmp_path):
    workload = tiny(name)
    path = tmp_path / "out.csv"
    path.write_text(csv_text)
    net = {**checks.DEFAULT_NETWORK, **workload.network}
    return checks.check_run(workload.kind, workload.options, net, stdout, path)[0]


def replace_cell(csv_text, row, column, value):
    lines = csv_text.split("\n")
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("name", list(TINY))
def test_checks_accept_real_output(outputs, name, tmp_path):
    assert failures_for(name, *outputs[name], tmp_path) == []


def test_fp_checks_reject_missing_rows_and_wrong_frequencies(outputs, tmp_path):
    stdout, csv_text = outputs["fp-long"]
    truncated = csv_text.rsplit("\n", 2)[0] + "\n"
    assert failures_for("fp-long", stdout, truncated, tmp_path)
    last = csv_text.count("\n")
    assert failures_for("fp-long", stdout, replace_cell(csv_text, last - 1, 3, "0.5"), tmp_path)


@pytest.mark.parametrize("name", ["sim-learn", "sim-crowded"])
def test_simulate_checks_reject_corruption(outputs, name, tmp_path):
    stdout, csv_text = outputs[name]
    row = csv_text.split("\n")[5].split(",")
    payoff = str(float(row[8]) + 1000.0)  # well beyond 6-digit rounding of the total
    assert failures_for(name, stdout, replace_cell(csv_text, 5, 8, payoff), tmp_path)
    summary = checks.parse_sim_stdout(stdout)
    swapped = stdout.replace(
        f"malicious={summary['obs_jammer']} secondary={summary['obs_secondary']}",
        f"malicious={summary['obs_secondary']} secondary={summary['obs_jammer']}",
    )
    assert failures_for(name, swapped, csv_text, tmp_path)
    off = stdout.replace(f"q*={summary['q_star_B']:.6g}\n", f"q*={summary['q_star_B'] - 0.2:.6g}\n")
    assert off != stdout
    assert failures_for(name, off, csv_text, tmp_path)
    header, *rows = csv_text.rstrip("\n").split("\n")
    every_c = [",".join([r.split(",", 1)[0], "C", r.split(",", 2)[2]]) for r in rows]
    assert failures_for(name, stdout, "\n".join([header, *every_c, ""]), tmp_path)


def test_sweep_checks_reject_wrong_flags_and_values(outputs, tmp_path):
    stdout, csv_text = outputs["sweep-grid"]
    lines = csv_text.split("\n")
    row = next(i for i in range(1, len(lines)) if lines[i].split(",")[5] == "0")
    assert failures_for("sweep-grid", stdout, replace_cell(csv_text, row, 5, "1"), tmp_path)
    p = float(lines[row].split(",")[3])
    assert failures_for("sweep-grid", stdout, replace_cell(csv_text, row, 3, f"{p * 1.001:.6g}"), tmp_path)


def test_recorded_q_is_q_without_hops():
    assert checks.recorded_q(0.0, 0.3, 10) == pytest.approx(0.3)
    assert checks.recorded_q(0.94291666, 0.85793358, 32) == pytest.approx(0.9025, abs=1e-4)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run_bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run_bench.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fp-long", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not (tmp_path / ".bench_out").exists()
