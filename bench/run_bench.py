"""Benchmark of the crn-jamgame CLI: four workloads, end to end and per layer.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each workload is one CLI command at a fixed
size, run in a fresh interpreter with ``src`` on the path and its CSV in a
temporary directory that is removed after the run. With ``--trace 0`` the
command and a set-up probe alternate while another pair fits in S seconds
(at least MIN_RUNS times), each timed between two runs of the host-speed
references (see ``gauge``), and the run reports the medians of wall time
and set-up time scaled to a fixed host speed (see ``normalised``) and of
peak RSS.
With ``--trace 1`` one untraced run gives the baseline, then one traced
in-process run reports per-layer costs and counts, and for the simulate
workloads a separate tracemalloc run reports retained bytes per slot.
Every run's output is checked (see checks.py). The last line of stdout is
one JSON object; the full record, with provenance, goes to
``.bench_out/<workload>_seed<N>_trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path

from checks import DEFAULT_NETWORK, check_run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
CHILD = BENCH_DIR / "child.py"
#: The CLI in a fresh interpreter. On exit it writes its own peak RSS
#: (VmHWM) to stderr: the rusage of a child spawned with vfork starts from
#: the parent's peak, so ru_maxrss can report the benchmark's own memory.
CLI_ENTRY = (
    "import sys; from crn_jamgame.cli import main; code = main(); "
    "sys.stderr.write(''.join(l for l in open('/proc/self/status') if l.startswith('VmHWM:'))); "
    "sys.exit(code)"
)

#: Fewest untraced CLI runs (and set-up probes) per benchmark run, whatever
#: --seconds says.
MIN_RUNS = 3
#: Reference loop time the CLI wall times are scaled to.
REF_NOMINAL_S = 0.12
#: A fresh interpreter that imports numpy: the start-up reference. Set-up
#: probes pay the same process start and library loading, whose cost
#: drifts apart from the reference loop's on a shared host.
STARTUP_REF = ["-c", "import numpy"]
#: Start-up reference time the set-up times are scaled to.
STARTUP_NOMINAL_S = 0.18
#: Any single child process is killed after this many seconds.
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # CLI subcommand: fp | simulate | sweep
    args: tuple[str, ...]  # CLI arguments other than --seed and --out
    network: dict  # overrides of the default network constants, also passed as flags
    options: dict  # what the checks need to know about the arguments

    def argv(self, seed: int, out: Path) -> list[str]:
        flags = []
        for name, value in self.network.items():
            flags += [f"--{name.replace('_', '-')}", str(value)]
        return [self.kind, *self.args, *flags, "--seed", str(seed), "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fp-long",
            "fp",
            ("--category", "A", "--iterations", "300000"),
            {},
            {"category": "A", "iterations": 300_000},
        ),
        Workload(
            "sim-learn",
            "simulate",
            ("--slots", "60000"),
            {},
            {"slots": 60_000, "policy_secondary": "fp", "policy_malicious": "fp"},
        ),
        Workload(
            "sim-crowded",
            "simulate",
            ("--slots", "40000", "--policy-secondary", "nash", "--policy-malicious", "nash"),
            {"n_bands": 32, "n_primary": 24, "cost_malicious_switch": 0.5},
            {"slots": 40_000, "policy_secondary": "nash", "policy_malicious": "nash"},
        ),
        Workload(
            "sweep-grid",
            "sweep",
            (
                "--sweep", "n_primary=0..9",
                "--sweep", "gain_malicious=5..400:5",
                "--sweep", "loss_secondary=5..400:10",
            ),
            {},
            {"sweep_fields": ["n_primary", "gain_malicious", "loss_secondary"], "cells": 32_000},
        ),
    )
}


@dataclass
class Run:
    """One child process: timing, memory, exit code and output checks."""

    label: str
    argv: list[str]
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    ref_s: float = 0.0  # mean reference loop time just before and after the run
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("CRN_JAMGAME_SEED", None)
    return env


def spawn(cmd: list[str], cwd: Path, stdout_path: Path) -> tuple[float, float, int]:
    """Run a child to completion: (wall seconds, peak RSS in MB, exit code)."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=_child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: never leave the child running
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_workload_once(workload: Workload, seed: int, work: Path, label: str, prefix: list[str]) -> Run:
    """One CLI run of the workload, its output checked and then deleted."""
    out = work / f"{label}.csv"
    argv = workload.argv(seed, out)
    stdout_path = work / f"{label}.stdout"
    wall, rss, code = spawn([sys.executable, *prefix, *argv], work, stdout_path)
    stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
    stderr = stdout_path.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
    hwm = re.search(r"^VmHWM:\s*(\d+) kB", stderr, re.MULTILINE)
    if hwm:
        rss = int(hwm.group(1)) / 1024.0
    run = Run(label, argv, wall, rss, code, stdout)
    if code != 0:
        run.failures.append(f"exit code {code}: {stderr.strip()[-500:]}")
    else:
        net = {**DEFAULT_NETWORK, **workload.network}
        run.failures, run.info = check_run(workload.kind, workload.options, net, stdout, out)
    out.unlink(missing_ok=True)
    return run


def reference_loop() -> float:
    """Seconds one pass of a fixed pure-Python workload takes right now.

    It does the kinds of work the CLI does: builds lists of floats and
    strings, formats CSV-like rows and fills a dict.
    """
    start = time.perf_counter()
    floats = [float(i) * 1.5 for i in range(300_000)]
    texts = [str(x) for x in floats[::2]]
    sum(floats)
    del floats, texts
    rows = []
    table = {}
    for i in range(50_000):
        x = i * 0.618
        rows.append(f"{i},{x:.6g},{i % 7},{x * x:.6g}")
        table[i] = (i, x)
    "\n".join(rows)
    return time.perf_counter() - start


def startup_reference(work: Path) -> float:
    """Wall seconds of one start-up reference run."""
    wall, _rss, code = spawn([sys.executable, *STARTUP_REF], work, work / "ref.stdout")
    if code != 0:
        raise RuntimeError(f"start-up reference exited {code}")
    return wall


def gauge(work: Path) -> tuple[float, float]:
    """(reference loop, start-up reference) seconds right now."""
    return reference_loop(), startup_reference(work)


def normalised(wall: float, ref: float, nominal: float) -> float:
    """A wall time scaled to a host on which the reference takes nominal seconds.

    The shared host's speed swings by up to 2x within minutes; a run and
    the reference next to it slow down together, so their ratio moves far
    less.
    """
    return wall * nominal / ref


def setup_probe(workload: Workload, seed: int, work: Path) -> float:
    """Wall seconds of one set-up probe; raises if it fails."""
    argv = workload.argv(seed, work / "setup.csv")
    wall, _rss, code = spawn([sys.executable, str(CHILD), "setup", *argv], work, work / "setup.stdout")
    if code != 0:
        err = (work / "setup.err").read_text(encoding="utf-8", errors="replace")
        raise RuntimeError(f"set-up probe exited {code}: {err.strip()[-500:]}")
    return wall


def measure_end_to_end(
    workload: Workload, seed: int, seconds: float, work: Path, min_runs: int = MIN_RUNS
) -> tuple[list[Run], list[dict]]:
    """CLI runs and set-up probes, alternated, while another pair fits in
    the window and at least min_runs of each. The reference loop and the
    start-up reference run before and after every run and probe."""
    runs, probes = [], []
    start = time.perf_counter()
    before = gauge(work)
    while True:
        run = run_workload_once(workload, seed, work, f"run{len(runs)}", ["-c", CLI_ENTRY])
        after = gauge(work)
        run.ref_s = (before[0] + after[0]) / 2
        runs.append(run)
        wall = setup_probe(workload, seed, work)
        before = gauge(work)
        probes.append({"wall_s": wall, "ref_s": (after[1] + before[1]) / 2})
        elapsed = time.perf_counter() - start
        if len(runs) >= min_runs and elapsed * (len(runs) + 1) / len(runs) > seconds:
            return runs, probes


def end_to_end_metrics(runs: list[Run], probes: list[dict]) -> dict:
    return {
        "wall_s": {"value": statistics.median(normalised(r.wall_s, r.ref_s, REF_NOMINAL_S) for r in runs), "unit": "s"},
        "setup_s": {
            "value": statistics.median(normalised(p["wall_s"], p["ref_s"], STARTUP_NOMINAL_S) for p in probes),
            "unit": "s",
        },
        "peak_rss_mb": {"value": statistics.median(r.peak_rss_mb for r in runs), "unit": "MB"},
    }


def _totals(stats: dict, name: str) -> tuple[int, float, float]:
    """(calls, total s, self s) of a span name over all its parents."""
    entries = stats.get(name, {}).values()
    return (
        sum(e[0] for e in entries),
        sum(e[1] for e in entries),
        sum(e[2] for e in entries),
    )


def _per(total: float, count: int, scale: float) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(workload: Workload, traced: Run, trace: dict, memory: dict | None, untraced_wall: float) -> dict:
    """Per-layer metrics from the traced run (and the memory run, if any)."""
    stats = trace["stats"]
    counts = trace["counts"]
    info = traced.info
    rows = info.get("rows", 0)
    build_calls, build_total, _ = _totals(stats, "games.build_game")
    solve_calls, solve_total, _ = _totals(stats, "nash.mixed_equilibrium")
    _, fp_total, _ = _totals(stats, "learning.run_fp")
    _, sim_total, sim_self = _totals(stats, "simulate.run_simulation")
    _, parse_total, _ = _totals(stats, "cli.parse_config")
    command = _totals(stats, "cli.command") if "cli.command" in stats else _totals(stats, "cli.main")
    main_total = _totals(stats, "cli.main")[1]
    iterations = counts["fp_iterations"]
    slots = counts["sim_slots"]
    per_call = {}
    for span in ("settle_slot", "choose_actions", "update_histories", "classify_state"):
        calls, total, _ = _totals(stats, f"simulate.{span}")
        per_call[f"simulate.{span}_us"] = _per(total, calls, 1e6)
    if workload.kind == "fp" and "p_star" in info:
        err_p = abs(info["p_star"] - info["p"])
        err_q = abs(info["q_star"] - info["q"])
    else:
        err_p = err_q = 0.0
    sim = {k: info.get(k, 0) for k in ("slots_A", "slots_B", "slots_C", "jams", "obs_jammer", "obs_secondary")}
    retained = _per(memory["retained_bytes"], memory["slots"], 1.0) if memory else 0.0
    values = {
        "games.build_game_us": (_per(build_total, build_calls, 1e6), "us"),
        "games.build_game_calls": (build_calls, "count"),
        "nash.mixed_equilibrium_us": (_per(solve_total, solve_calls, 1e6), "us"),
        "nash.mixed_equilibrium_calls": (solve_calls, "count"),
        "nash.degenerate_games": (counts["degenerate_games"], "count"),
        "learning.run_fp_ns_per_iter": (_per(fp_total, iterations, 1e9), "ns"),
        "learning.run_fp_iterations": (iterations, "count"),
        "learning.final_err_p": (err_p, "prob"),
        "learning.final_err_q": (err_q, "prob"),
        "simulate.run_simulation_us_per_slot": (_per(sim_total, slots, 1e6), "us"),
        **{name: (value, "us") for name, value in per_call.items()},
        "simulate.loop_self_us_per_slot": (_per(sim_self, slots, 1e6), "us"),
        "simulate.retained_bytes_per_slot": (retained, "B"),
        "simulate.gc_gen2_collections": (trace["gc_gen2_collections"] if slots else 0, "count"),
        **{f"simulate.{k}": (v, "count") for k, v in sim.items()},
        "cli.import_ms": (trace["import_s"] * 1e3, "ms"),
        "cli.parse_config_ms": (parse_total * 1e3, "ms"),
        "cli.output_ns_per_row": (_per(command[2], rows, 1e9), "ns"),
        "cli.rows": (rows, "count"),
        "cli.csv_bytes": (info.get("csv_bytes", 0), "B"),
        "tracing.overhead_s": (traced.wall_s - untraced_wall, "s"),
        "tracing.coverage": ((trace["import_s"] + main_total) / traced.wall_s, "fraction"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def trace_checks(workload: Workload, traced: Run, trace: dict) -> list[str]:
    """Exact counts of the traced run against its own output."""
    failures = []
    counts = trace["counts"]
    info = traced.info
    expected_degenerate = info.get("degenerate_games", 0)
    if counts["degenerate_games"] != expected_degenerate:
        failures.append(f"{counts['degenerate_games']} degenerate solves traced, {expected_degenerate} in the CSV")
    if workload.kind == "simulate" and counts["sim_slots"] != workload.options["slots"]:
        failures.append(f"traced run_simulation saw {counts['sim_slots']} slots")
    if workload.kind == "fp" and counts["fp_iterations"] != workload.options["iterations"]:
        failures.append(f"traced run_fp saw {counts['fp_iterations']} iterations")
    return failures


def measure_traced(workload: Workload, seed: int, work: Path, untraced_wall: float) -> tuple[list[Run], dict, dict]:
    """Traced run, then (simulate workloads) the tracemalloc run."""
    runs = []
    trace_json = work / "trace.json"
    traced = run_workload_once(workload, seed, work, "traced", [str(CHILD), "trace", str(trace_json)])
    runs.append(traced)
    trace = json.loads(trace_json.read_text()) if traced.exit_code == 0 else None
    memory = None
    if workload.kind == "simulate":
        memory_json = work / "memory.json"
        mem_run = run_workload_once(workload, seed, work, "memory", [str(CHILD), "memory", str(memory_json)])
        runs.append(mem_run)
        if mem_run.exit_code == 0:
            memory = json.loads(memory_json.read_text())
            if "retained_bytes" not in memory:
                memory = None
    if trace is None:
        return runs, {}, {}
    traced.failures += trace_checks(workload, traced, trace)
    metrics = layer_metrics(workload, traced, trace, memory, untraced_wall)
    detail = {"spans": trace["spans"], "stats": trace["stats"], "absent": trace["absent"], "memory": memory}
    return runs, metrics, detail


def provenance(workload: Workload, seed: int) -> dict:
    def git(*args):
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    revision = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = git("status", "--porcelain") if revision else None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": revision,
        "git_dirty": bool(status) if revision else None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "seed": seed,
        "argv": workload.argv(seed, Path("OUT.csv")),
    }


def benchmark(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    min_runs: int = MIN_RUNS,
) -> tuple[dict, dict]:
    """Run one benchmark pass; returns (result line, full record)."""
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seconds": seconds, "trace": int(trace)}
    record["provenance"] = provenance(workload, seed)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        if trace:
            runs = [run_workload_once(workload, seed, work, "baseline", ["-c", CLI_ENTRY])]
            traced_runs, metrics, record["trace"] = measure_traced(workload, seed, work, runs[0].wall_s)
            runs += traced_runs
        else:
            runs, probes = measure_end_to_end(workload, seed, seconds, work, min_runs)
            record["setup_probes"] = probes
            record["ref_nominal_s"] = {"wall_s": REF_NOMINAL_S, "setup_s": STARTUP_NOMINAL_S}
            metrics = end_to_end_metrics(runs, probes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for r in runs if r.failures)
    line = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }
    record.update(line)
    record["failed_frac"] = failed / len(runs)
    record["runs"] = [asdict(r) for r in runs]
    return line, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "crn_jamgame" / "cli.py").is_file():
        print(f"error: no crn_jamgame sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    line, record = benchmark(workload, args.seed, args.seconds, bool(args.trace))
    results = OUT_DIR / f"{workload.name}_seed{args.seed}_trace{args.trace}.json"
    results.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for run in record["runs"]:
        for failure in run["failures"]:
            print(f"check failed ({run['label']}): {failure}", file=sys.stderr)
    print(f"results -> {results.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
