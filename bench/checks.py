"""Correctness checks on the outputs of the benchmark's CLI runs.

Every reference value is re-derived here from the network constants, the
category A/B payoff tables and the indifference formulas, without
importing crn_jamgame, so a change to the package cannot move its own
yardstick. The checks are statistical where the output is random: a change
that draws random numbers in another order still passes.
"""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

DEFAULT_NETWORK = {
    "n_bands": 10,
    "n_primary": 5,
    "cost_secondary_switch": 5.0,
    "cost_malicious_switch": 2.0,
    "gain_secondary": 50.0,
    "gain_malicious": 75.0,
    "loss_secondary": 100.0,
}

#: Tolerance of the acceptance tests for learned and simulated frequencies.
FREQ_TOL = 0.03
#: A frequency estimated from n observations may also miss by this many
#: binomial standard errors; with few observations 0.03 is under 3 sigma.
#: The secondary's category-B record mixes two sources (stays, which record
#: either move, and hops onto a staying jammer, which record strategy 1), so
#: it spreads about 1.16 binomial errors over seeds under Nash play; 5
#: binomial errors are about 4.3 of its own.
FREQ_SIGMAS = 5.0
#: Relative tolerance of the mean category-C dwell.
DWELL_REL_TOL = 0.05
#: Same vanishing-denominator threshold as the solver's degeneracy test.
DENOM_TOL = 1e-12
#: A re-derived p or q this close to 0 or 1 may land on either side of the
#: interval in another evaluation order, so either degenerate flag passes.
BOUNDARY_EPS = 1e-9
#: CSV floats carry 6 significant digits.
CSV_REL_TOL = 1e-5

FP_HEADER = "iteration,secondary_action,malicious_action,p_star,q_star,err_p,err_q"
SIM_HEADER = (
    "slot,category,secondary_band,malicious_band,n_primaries_on_secondary_band,"
    "secondary_action,malicious_action,jam,payoff_s,payoff_m,pstar_A,qstar_A,pstar_B,qstar_B"
)
SWEEP_COLUMNS = "p_A,q_A,degenerate_A,p_B,q_B,degenerate_B"


def game_payoffs(net: dict, category: str) -> tuple[float, ...]:
    """Entries (a, b, c, d, e, f, g, h) of the category A or B game."""
    n = net["n_bands"]
    p_primary = net["n_primary"] / n
    clear = 1.0 - p_primary
    p_both = (1.0 / (n - 1)) * clear
    p_alone = 1.0 - (1.0 / (n - 1) + p_primary - p_primary / (n - 1))
    c_s, c_m = net["cost_secondary_switch"], net["cost_malicious_switch"]
    g_s, g_m, l_s = net["gain_secondary"], net["gain_malicious"], net["loss_secondary"]
    roam = g_s * p_alone - l_s * p_both
    if category == "A":
        return (-c_s + roam, -c_s + g_s * clear, g_s * clear, -l_s * clear,
                -c_m + g_m * p_both, 0.0, -c_m, g_m * clear)
    return (-c_s + roam, g_s * clear, g_s * clear, -l_s * clear,
            g_m * p_both, -c_m, 0.0, g_m * clear - c_m)


def indifference(net: dict, category: str) -> tuple[float, float] | None:
    """(p, q) from the indifference formulas, or None for a zero denominator."""
    a, b, c, d, e, f, g, h = game_payoffs(net, category)
    denom_q = a - c + d - b
    denom_p = e - f + h - g
    if abs(denom_q) < DENOM_TOL or abs(denom_p) < DENOM_TOL:
        return None
    return (h - g) / denom_p, (d - b) / denom_q


def equilibrium(net: dict, category: str) -> tuple[float, float]:
    """Interior mixed equilibrium; raises for a degenerate game."""
    pq = indifference(net, category)
    if pq is None or not all(0.0 <= x <= 1.0 for x in pq):
        raise ValueError(f"category {category} game is degenerate at {net}")
    return pq


def recorded_q(p: float, q: float, n_bands: int) -> float:
    """Jammer strategy-1 share of the secondary's category-B records when
    both players sample fixed mixtures p and q.

    The secondary learns the jammer's move when it stayed (prob 1-p, either
    move) or when it hopped onto the staying jammer's band and was jammed
    (prob p/(n-1), strategy 1 only), so its record over-counts strategy 1.
    A best-responding secondary instead drives its record to q itself.
    """
    hop = p / (n_bands - 1)
    return q * ((1.0 - p) + hop) / ((1.0 - p) + q * hop)


def freq_tolerance(expected: float, observations: int) -> float:
    se = math.sqrt(expected * (1.0 - expected) / observations) if observations else math.inf
    return max(FREQ_TOL, FREQ_SIGMAS * se)


def close_6g(value: float, reference: float) -> bool:
    return math.isclose(value, reference, rel_tol=CSV_REL_TOL, abs_tol=1e-12)


def file_digest(path: Path) -> tuple[str, int]:
    """(sha256 hex, size in bytes) of a file."""
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
            size += len(chunk)
    return digest.hexdigest(), size


def check_run(kind: str, options: dict, net: dict, stdout: str, csv_path: Path) -> tuple[list[str], dict]:
    """Check one CLI run's stdout and CSV.

    Returns (failures, info); info holds the CSV's row count, size and
    sha256 (recorded, never compared) plus the values the checks compared.
    """
    if not csv_path.is_file():
        return [f"no CSV written at {csv_path.name}"], {}
    sha256, size = file_digest(csv_path)
    info = {"csv_sha256": sha256, "csv_bytes": size}
    checker = {"fp": _check_fp, "simulate": _check_simulate, "sweep": _check_sweep}[kind]
    try:
        failures = checker(options, net, stdout, csv_path, info)
    except (ValueError, IndexError) as exc:
        failures = [f"malformed output: {exc}"]
    return failures, info


def _last_line(path: Path) -> str:
    with open(path, "rb") as handle:
        handle.seek(0, 2)
        handle.seek(max(0, handle.tell() - 4096))
        return handle.read().decode().rstrip("\n").rsplit("\n", 1)[-1]


def _check_fp(options, net, stdout, csv_path, info):
    failures = []
    newlines = 0
    with open(csv_path, "rb") as handle:
        header = handle.readline().decode().rstrip("\n")
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            newlines += chunk.count(b"\n")
    info["rows"] = newlines
    if header != FP_HEADER:
        failures.append(f"fp header {header!r}")
    if newlines != options["iterations"]:
        failures.append(f"fp rows {newlines} != iterations {options['iterations']}")
    last = _last_line(csv_path).split(",")
    p, q = equilibrium(net, options["category"])
    p_star, q_star = float(last[3]), float(last[4])
    info.update(p=p, q=q, p_star=p_star, q_star=q_star)
    if abs(p_star - p) > FREQ_TOL or abs(q_star - q) > FREQ_TOL:
        failures.append(f"fp final (p*, q*) = ({p_star}, {q_star}) vs ({p:.6g}, {q:.6g})")
    return failures


_SIM_STDOUT = {
    "payoff_s": (float, r"cumulative payoff secondary: (\S+)"),
    "payoff_m": (float, r"cumulative payoff malicious: (\S+)"),
    "slots_A": (int, r"category dwell: A=(\d+)"),
    "slots_B": (int, r"category dwell: .* B=(\d+)"),
    "slots_C": (int, r"category dwell: .* C=(\d+)"),
    "jams": (int, r"jams: (\d+)"),
    "obs_jammer": (int, r"history totals: malicious=(\d+)"),
    "obs_secondary": (int, r"history totals: .* secondary=(\d+)"),
    "p_star_B": (float, r"final frequencies: .*B p\*=(\S+)"),
    "q_star_B": (float, r"final frequencies: .*B p\*=\S+ q\*=(\S+)"),
}


def parse_sim_stdout(stdout: str) -> dict:
    """The simulate summary's numbers; raises ValueError if one is missing."""
    values = {}
    for key, (number, pattern) in _SIM_STDOUT.items():
        match = re.search(pattern, stdout)
        if match is None:
            raise ValueError(f"simulate stdout lacks {key}")
        values[key] = number(match.group(1))
    return values


def _check_simulate(options, net, stdout, csv_path, info):
    failures = []
    try:
        summary = parse_sim_stdout(stdout)
    except ValueError as exc:
        return [str(exc)]
    info.update(summary)
    rows = 0
    sum_s = sum_m = 0.0
    c_slots = c_runs = 0
    previous = ""
    with open(csv_path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        for line in handle:
            cells = line.split(",", 10)
            rows += 1
            category = cells[1]
            if category == "C":
                c_slots += 1
                if previous != "C":
                    c_runs += 1
            previous = category
            sum_s += float(cells[8])
            sum_m += float(cells[9])
    info["rows"] = rows
    if header != SIM_HEADER:
        failures.append(f"simulate header {header!r}")
    if rows != options["slots"]:
        failures.append(f"simulate rows {rows} != slots {options['slots']}")

    expected_dwell = net["n_bands"] / (net["n_bands"] - net["n_primary"])
    dwell = c_slots / c_runs if c_runs else math.nan
    info.update(c_dwell=dwell, c_dwell_expected=expected_dwell)
    if not abs(dwell - expected_dwell) <= DWELL_REL_TOL * expected_dwell:
        failures.append(f"mean C dwell {dwell:.4f} vs {expected_dwell:.4f}")

    if summary["obs_jammer"] < summary["obs_secondary"]:
        failures.append(
            f"jammer history {summary['obs_jammer']} < secondary history {summary['obs_secondary']}"
        )

    p, q = equilibrium(net, "B")
    policies = (options["policy_secondary"], options["policy_malicious"])
    if policies == ("fp", "fp"):
        q_ref = q
    elif policies == ("nash", "nash"):
        q_ref = recorded_q(p, q, net["n_bands"])
    else:
        raise ValueError(f"no category-B reference for policies {policies}")
    tol_p = freq_tolerance(p, summary["obs_jammer"])
    tol_q = freq_tolerance(q_ref, summary["obs_secondary"])
    info.update(p_B=p, q_B=q, q_B_recorded_reference=q_ref, tol_p_B=tol_p, tol_q_B=tol_q)
    if not abs(summary["p_star_B"] - p) <= tol_p:
        failures.append(f"B p* {summary['p_star_B']} vs {p:.6g} (tol {tol_p:.3g})")
    if not abs(summary["q_star_B"] - q_ref) <= tol_q:
        failures.append(f"B q* {summary['q_star_B']} vs {q_ref:.6g} (tol {tol_q:.3g})")

    for column, total in (("payoff_s", sum_s), ("payoff_m", sum_m)):
        if not close_6g(total, summary[column]):
            failures.append(f"CSV {column} sum {total!r} != stdout {summary[column]!r}")
    slot_sum = summary["slots_A"] + summary["slots_B"] + summary["slots_C"]
    if slot_sum != options["slots"]:
        failures.append(f"category dwell counts sum to {slot_sum}, not {options['slots']}")
    return failures


def _check_sweep(options, net, stdout, csv_path, info):
    failures = []
    degenerate_games = 0
    rows = 0
    with open(csv_path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        fields = header[:-6]
        if ",".join(header[-6:]) != SWEEP_COLUMNS or fields != options["sweep_fields"]:
            return [f"sweep header {header!r}"]
        for line in handle:
            rows += 1
            cells = line.rstrip("\n").split(",")
            row_net = dict(net)
            for name, text in zip(fields, cells):
                row_net[name] = int(text) if isinstance(net[name], int) else float(text)
            for offset, category in ((0, "A"), (3, "B")):
                p_text, q_text, flag = cells[len(fields) + offset: len(fields) + offset + 3]
                degenerate_games += flag == "1"
                problem = _sweep_cell_problem(row_net, category, p_text, q_text, flag)
                if problem and len(failures) < 10:
                    failures.append(f"row {rows} category {category}: {problem}")
    info.update(rows=rows, degenerate_games=degenerate_games)
    if rows != options["cells"]:
        failures.append(f"sweep rows {rows} != grid cells {options['cells']}")
    if f"{options['cells']} combinations" not in stdout:
        failures.append("sweep stdout lacks the combination count")
    return failures


def _sweep_cell_problem(net, category, p_text, q_text, flag):
    pq = indifference(net, category)
    inside = pq is not None and all(0.0 <= x <= 1.0 for x in pq)
    near_edge = pq is not None and any(
        abs(x) < BOUNDARY_EPS or abs(x - 1.0) < BOUNDARY_EPS for x in pq
    )
    if flag not in ("0", "1"):
        return f"degenerate flag {flag!r}"
    if flag == "1":
        if inside and not near_edge:
            return f"flagged degenerate, but (p, q) = {pq}"
        if p_text != "nan" or q_text != "nan":
            return f"degenerate game with p, q = {p_text}, {q_text}"
        return None
    if not inside and not near_edge:
        return f"not flagged degenerate, but (p, q) = {pq}"
    if pq is None or not (close_6g(float(p_text), pq[0]) and close_6g(float(q_text), pq[1])):
        return f"(p, q) = ({p_text}, {q_text}) vs {pq}"
    return None
