"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible under
``pytest -s``) and enforces its runtime budget. Run with:

    pytest tests/test_acceptance.py -v -s
"""

import math
import random
import time

import numpy as np

from crn_jamgame import (
    Category,
    FictitiousPlayPolicy,
    FixedPolicy,
    NetworkConfig,
    build_game,
    derived_probabilities,
    mixed_equilibrium,
    run_fp,
    run_simulation,
    verify_equilibrium,
)
from crn_jamgame.cli import main
from crn_jamgame.games import FIRST_IS_SWITCH, BimatrixGame
from crn_jamgame.nash import pure_equilibria
from crn_jamgame.simulate import C, classify_state, settle_slot, slot_payoffs
from oracles import col_payoff, grid_accepts_near, grid_equilibria, row_payoff

REF = NetworkConfig()
FP_BOTH = (FictitiousPlayPolicy(), FictitiousPlayPolicy())


def check(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status} - {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def within_budget(number, elapsed, budget):
    check(
        f"{number} runtime",
        f"completed in {elapsed:.2f}s (budget {budget:.0f}s)",
        elapsed < budget,
    )


def test_criterion_1_equilibrium_reproduction(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "nash.csv"
    exit_code = main(["nash", "--out", str(out)])
    rows = out.read_text().splitlines()[1:]
    values = {row.split(",")[0]: row.split(",") for row in rows}
    p_a, q_a = float(values["A"][1]), float(values["A"][2])
    p_b, q_b = float(values["B"][1]), float(values["B"][2])
    elapsed = time.perf_counter() - start
    ok = (
        exit_code == 0
        and abs(p_a - 0.94) <= 0.01
        and abs(q_a - 0.84) <= 0.005
        and abs(p_b - 0.85) <= 0.005
        and abs(q_b - 0.85) <= 0.005
    )
    check(
        1,
        "solver reproduces the reference equilibria through the CLI",
        ok,
        f"A=({p_a:.4f},{q_a:.4f}) B=({p_b:.4f},{q_b:.4f})",
    )
    within_budget(1, elapsed, 1.0)


def test_criterion_2_probability_identities():
    start = time.perf_counter()
    rng = random.Random(2002)
    worst = 0.0
    in_range = True
    for _ in range(1000):
        n_bands = rng.randrange(2, 200)
        config = NetworkConfig(
            n_bands=n_bands,
            n_primary=rng.randrange(0, n_bands + 1),
            cost_secondary_switch=rng.uniform(0, 100),
            cost_malicious_switch=rng.uniform(0, 100),
            gain_secondary=rng.uniform(0, 100),
            gain_malicious=rng.uniform(0, 100),
            loss_secondary=rng.uniform(0, 100),
        )
        probs = derived_probabilities(config)
        gap = abs(
            probs.p_just_secondary
            + probs.p_secondary_and_malicious
            - (1.0 - probs.p_primary)
        )
        worst = max(worst, gap)
        for value in (probs.p_primary, probs.p_just_secondary, probs.p_secondary_and_malicious):
            in_range = in_range and 0.0 <= value <= 1.0
    elapsed = time.perf_counter() - start
    check(
        2,
        "occupancy probabilities partition and stay in [0, 1] over 1000 configs",
        worst <= 1e-12 and in_range,
        f"worst identity gap {worst:.2e}",
    )
    within_budget(2, elapsed, 1.0)


def test_criterion_3_solver_soundness():
    start = time.perf_counter()
    rng = random.Random(3003)
    games = 10_000
    verified = 0
    grid_agreements = 0
    mixed_count = 0
    full_sweeps = 0
    for index in range(games):
        game = BimatrixGame(*[rng.uniform(-1.0, 1.0) for _ in range(8)])
        report = mixed_equilibrium(game)
        profiles = list(pure_equilibria(game))
        if not report.degenerate:
            mixed_count += 1
        ok = all(
            verify_equilibrium(game, 2.0 - row, 2.0 - col, 1e-6)  # pure (row, col)
            for row, col in profiles
        )
        if not report.degenerate:
            ok = ok and verify_equilibrium(game, report.p, report.q, 1e-6)
            near = grid_accepts_near(game, report.p, report.q)
            grid_agreements += near
            ok = ok and near
        verified += ok
        if index % 25 == 0:
            # periodic full brute-force sweeps pin the restricted check
            full_sweeps += 1
            grid_p, grid_q = grid_equilibria(game)
            if not report.degenerate:
                p, q = report.p, report.q
                hit = ((abs(grid_p - p) <= 1e-3 + 1e-12) & (abs(grid_q - q) <= 1e-3 + 1e-12)).any()
                assert hit, f"full sweep disagrees with solver on game {index}"
            if len(grid_p) > 0:
                assert not report.degenerate or profiles
    elapsed = time.perf_counter() - start
    check(
        3,
        f"all equilibria over {games} random games verify at 1e-6 "
        "and mixed results agree with the 1e-3 grid oracle",
        verified == games and grid_agreements == mixed_count,
        f"{mixed_count} mixed, {full_sweeps} full sweeps",
    )
    within_budget(3, elapsed, 30.0)


def test_criterion_4_learning_convergence():
    start = time.perf_counter()
    all_ok = True
    details = []
    for category in (Category.A, Category.B):
        game = build_game(REF, category)
        equilibrium = mixed_equilibrium(game)
        p_ref, q_ref = equilibrium.p, equilibrium.q
        close = 0
        decayed = 0
        for seed in range(50):
            trace = run_fp(game, 20_000, seed)
            p_final, q_final = trace.final_frequencies()
            err_p_final = abs(p_final - p_ref)
            err_q_final = abs(q_final - q_ref)
            if seed < 10 and err_p_final <= 0.03 and err_q_final <= 0.03:
                close += 1
            # the first slice of 100 stages ends with the frequencies after stage 100
            _lo, p_early, q_early = next(trace.running_frequencies(100))
            early = max(abs(p_early[99] - p_ref), abs(q_early[99] - q_ref))
            late = max(err_p_final, err_q_final)
            decayed += late < early
        all_ok = all_ok and close >= 9 and decayed >= 48
        details.append(f"{category.name}: {close}/10 close, {decayed}/50 decayed")
    elapsed = time.perf_counter() - start
    check(
        4,
        "learned frequencies land within 0.03 for >=9/10 seeds and the "
        "error shrinks from iteration 100 to 20000 for >=95% of 50 seeds",
        all_ok,
        "; ".join(details),
    )
    within_budget(4, elapsed, 30.0)


def test_criterion_5_settlement_reproduces_the_tables():
    start = time.perf_counter()
    rng = random.Random(5005)
    slots = 200_000
    pre_bands = {Category.A: (3, 3), Category.B: (3, 7)}
    all_ok = True
    worst_sigma = 0.0
    for category, (sec_band, mal_band) in pre_bands.items():
        game = build_game(REF, category)
        first_s, first_m = FIRST_IS_SWITCH[category]
        for row in (1, 2):
            for col in (1, 2):
                actions = ((row == 1) == first_s, (col == 1) == first_m)
                settled = bytearray(slots)
                for t in range(slots):
                    settled[t] = classify_state(*settle_slot(category, sec_band, mal_band, actions, REF, rng))
                payoffs = slot_payoffs(
                    REF, np.full(slots, category, np.int8), np.frombuffer(settled, np.int8),
                    np.full(slots, actions[0]), np.full(slots, actions[1]),
                )
                for payoff, expected in zip(payoffs, (row_payoff(game, row, col), col_payoff(game, row, col))):
                    mean = float(payoff.mean())
                    std_err = math.sqrt(payoff.var() / slots)
                    gap = abs(mean - expected)
                    limit = max(3 * std_err, 1e-9)
                    all_ok = all_ok and gap <= limit
                    if std_err > 0:
                        worst_sigma = max(worst_sigma, gap / std_err)
    elapsed = time.perf_counter() - start
    check(
        5,
        "mean settled payoffs match every analytic table entry within 3 sigma "
        f"over {slots} slots per action pair",
        all_ok,
        f"worst deviation {worst_sigma:.2f} sigma",
    )
    within_budget(5, elapsed, 60.0)


def test_criterion_6_licensed_user_draw():
    start = time.perf_counter()
    policies = (FixedPolicy(0.5), FixedPolicy(0.5))
    slots = 100_000
    result = run_simulation(REF, policies, slots + 1, seed=6)
    # slot t + 1 is C exactly when a licensed user sits on slot t's settled secondary band
    silenced = np.count_nonzero(result.category[1:] == C) / slots
    expected = REF.n_primary / REF.n_bands
    gap = abs(silenced - expected)
    elapsed = time.perf_counter() - start
    check(
        6,
        f"the settled secondary band is silenced in a share {expected} +- 0.006 "
        f"of {slots} slots",
        gap <= 0.006,
        f"measured {silenced:.4f}",
    )
    within_budget(6, elapsed, 10.0)


def test_criterion_7_category_c_dwell_time():
    start = time.perf_counter()
    result = run_simulation(REF, FP_BOTH, 100_000, seed=7)
    runs = []
    current = 0
    for code in result.category.tolist():
        if code == C:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    mean_dwell = sum(runs) / len(runs)
    expected = REF.n_bands / (REF.n_bands - REF.n_primary)
    elapsed = time.perf_counter() - start
    check(
        7,
        "mean category-C dwell equals n_bands/(n_bands - n_primary) = 2.0 within 5%",
        abs(mean_dwell - expected) <= 0.05 * expected,
        f"measured {mean_dwell:.3f} over {len(runs)} visits",
    )
    within_budget(7, elapsed, 10.0)


def test_criterion_8_observation_asymmetry():
    start = time.perf_counter()
    all_ok = True
    configs = [REF, NetworkConfig(n_primary=3), NetworkConfig(n_primary=7)]
    for config in configs:
        for seed in range(4):
            result = run_simulation(config, FP_BOTH, 10_000, seed=seed)
            malicious_total = np.cumsum(result.seen_by_malicious)
            secondary_total = np.cumsum(result.seen_by_secondary)
            all_ok = all_ok and bool((malicious_total >= secondary_total).all())
    elapsed = time.perf_counter() - start
    check(
        8,
        "the jammer's observation total never falls below the secondary's "
        "in any 10000-slot learning run",
        all_ok,
        f"{len(configs) * 4} runs checked slot by slot",
    )
    within_budget(8, elapsed, 30.0)


def test_criterion_9_byte_identical_output(tmp_path):
    start = time.perf_counter()
    commands = {
        "nash": ["nash", "--seed", "42"],
        "fp": ["fp", "--seed", "42", "--iterations", "2000"],
        "simulate": ["simulate", "--seed", "42", "--slots", "2000"],
        "sweep": ["sweep", "--seed", "42", "--sweep", "n_primary=1..9"],
    }
    all_ok = True
    for name, argv in commands.items():
        first = tmp_path / f"{name}_1.csv"
        second = tmp_path / f"{name}_2.csv"
        for out in (first, second):
            code = main(argv + ["--out", str(out)])
            all_ok = all_ok and code == 0
        all_ok = all_ok and first.read_bytes() == second.read_bytes()
    elapsed = time.perf_counter() - start
    check(
        9,
        "repeated runs of every command with one seed write byte-identical CSVs",
        all_ok,
    )
    within_budget(9, elapsed, 30.0)
