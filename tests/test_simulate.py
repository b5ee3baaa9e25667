import dataclasses
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crn_jamgame import (
    Category,
    FictitiousPlayPolicy,
    FixedPolicy,
    NashPolicy,
    NetworkConfig,
    PolicySpec,
    build_game,
    mixed_equilibrium,
    run_simulation,
)
from crn_jamgame.nash import strategy_utilities
from crn_jamgame.simulate import (
    CATEGORIES,
    A,
    B,
    C,
    SimulationResult,
    choose_actions,
    classify_state,
    place_primaries,
    settle_slot,
    update_histories,
)

REF = NetworkConfig()
NO_PRIMARIES = NetworkConfig(n_primary=0)
GAMES = (build_game(REF, Category.A), build_game(REF, Category.B))
FP_BOTH = PolicySpec(secondary=FictitiousPlayPolicy(), malicious=FictitiousPlayPolicy())
STAY, SWITCH = False, True  # switch flags


def fresh_histories():
    return ([0, 0, 0, 0], [0, 0, 0, 0])


class TestPlacePrimaries:
    def test_no_primaries(self):
        assert place_primaries(NO_PRIMARIES, random.Random(0)) == []

    def test_saturation(self):
        config = NetworkConfig(n_primary=10)
        assert sorted(place_primaries(config, random.Random(0))) == list(range(10))

    def test_marginal_occupancy_matches_uniform(self):
        rng = random.Random(314)
        draws = 30_000
        hits = Counter()
        for _ in range(draws):
            for band in place_primaries(REF, rng):
                hits[band] += 1
        bound = 3 * math.sqrt(0.25 / draws)
        for band in range(10):
            assert abs(hits[band] / draws - 0.5) < bound


class TestClassifyState:
    def test_colocated_transmitting_is_a(self):
        assert classify_state(3, 3, [0, 1, 2, 4, 5]) == A

    def test_primary_on_secondary_band_is_c(self):
        assert classify_state(3, 7, [3, 0, 1]) == C

    def test_separated_transmitting_is_b(self):
        assert classify_state(3, 7, [0, 1, 2, 4, 5]) == B


class TestChooseActions:
    def test_category_c_forces_stay(self):
        actions = choose_actions(C, FP_BOTH, GAMES, fresh_histories(), random.Random(0))
        assert actions == (STAY, STAY)

    def test_degenerate_fixed_profile_is_deterministic(self):
        policies = PolicySpec(secondary=FixedPolicy(1.0), malicious=FixedPolicy(0.0))
        for seed in range(20):
            actions = choose_actions(A, policies, GAMES, fresh_histories(), random.Random(seed))
            assert actions == (SWITCH, STAY)

    def test_labels_follow_the_category_b_game(self):
        # jammer strategy 1 means stay in category B
        policies = PolicySpec(secondary=FixedPolicy(1.0), malicious=FixedPolicy(1.0))
        actions = choose_actions(B, policies, GAMES, fresh_histories(), random.Random(0))
        assert actions == (SWITCH, STAY)

    def test_empty_history_learning_is_uniform_over_pairs(self):
        counts = Counter()
        seeds = 10_000
        histories = fresh_histories()
        for seed in range(seeds):
            counts[choose_actions(A, FP_BOTH, GAMES, histories, random.Random(seed))] += 1
        assert set(counts) == {(s, m) for s in (SWITCH, STAY) for m in (SWITCH, STAY)}
        for pair, n in counts.items():
            assert abs(n / seeds - 0.25) <= 0.015

    def test_nash_policy_uses_the_category_equilibrium(self):
        policies = PolicySpec(secondary=NashPolicy(), malicious=NashPolicy())
        rng = random.Random(99)
        switches = 0
        seeds = 20_000
        for _ in range(seeds):
            action_s, _ = choose_actions(A, policies, GAMES, fresh_histories(), rng)
            switches += action_s == SWITCH
        p = mixed_equilibrium(GAMES[A]).mixed.p_secondary_first
        assert abs(switches / seeds - p) <= 3 * math.sqrt(p * (1 - p) / seeds)

    @given(st.sampled_from([A, B]), st.lists(st.integers(0, 60), min_size=4, max_size=4))
    @settings(max_examples=200)
    def test_learning_plays_the_better_strategy_against_observed_counts(self, code, counts):
        # counts: secondary switch, secondary stay (seen by the jammer),
        # jammer switch, jammer stay (seen by the secondary); strategy order
        # comes from the game labels, which put the jammer's stay first in B
        game = GAMES[code]
        move = {"switch": 0, "stay": 1}
        m1, m2 = (counts[2 + move[label]] for label in game.col_labels)
        s1, s2 = (counts[move[label]] for label in game.row_labels)
        u_s = (game.a * m1 + game.b * m2, game.c * m1 + game.d * m2)
        u_m = (game.e * s1 + game.g * s2, game.f * s1 + game.h * s2)
        for u1, u2 in (u_s, u_m):
            assume(abs(u1 - u2) > 1e-6 * max(1.0, abs(u1), abs(u2)))
        expected = (
            game.row_labels[0 if u_s[0] > u_s[1] else 1] == "switch",
            game.col_labels[0 if u_m[0] > u_m[1] else 1] == "switch",
        )
        histories = fresh_histories()
        histories[code][:] = counts
        rng = random.Random(0)
        assert choose_actions(code, FP_BOTH, GAMES, histories, rng) == expected
        assert rng.getstate() == random.Random(0).getstate()  # no tie, no coin




class TestSettleSlot:
    def test_colocated_both_stay_is_a_certain_jam_without_primaries(self):
        sec, mal, _, jam, payoff_s, payoff_m = settle_slot(
            A, 2, 2, (STAY, STAY), NO_PRIMARIES, random.Random(0)
        )
        assert jam
        assert payoff_s == -100.0
        assert payoff_m == 75.0
        assert sec == 2 and mal == 2

    def test_colocated_stay_switch_frees_the_secondary(self):
        _, mal, _, jam, payoff_s, payoff_m = settle_slot(
            A, 2, 2, (STAY, SWITCH), NO_PRIMARIES, random.Random(0)
        )
        assert not jam
        assert payoff_s == 50.0
        assert payoff_m == -2.0
        assert mal != 2

    def test_category_b_switching_jammer_lands_on_the_secondarys_band(self):
        for seed in range(10):
            _, mal, *_ = settle_slot(B, 4, 8, (STAY, SWITCH), NO_PRIMARIES, random.Random(seed))
            assert mal == 4

    def test_switch_targets_exclude_the_current_band(self):
        for seed in range(200):
            sec, mal, *_ = settle_slot(A, 6, 6, (SWITCH, SWITCH), NO_PRIMARIES, random.Random(seed))
            assert sec != 6
            assert mal != 6

    def test_category_c_keeps_positions_and_pays_by_stay_rules(self):
        config = NetworkConfig(n_primary=10)  # saturated: always category C
        sec, mal, _, jam, payoff_s, payoff_m = settle_slot(
            C, 1, 5, (STAY, STAY), config, random.Random(3)
        )
        assert (payoff_s, payoff_m) == (0.0, 0.0)
        assert not jam
        assert sec == 1 and mal == 5

    def test_jam_flag_consistency(self):
        rng = random.Random(5)
        for _ in range(500):
            sec, mal, primaries, jam, _, payoff_m = settle_slot(
                A, 3, 3, (SWITCH, SWITCH), REF, rng
            )
            assert jam == (sec == mal and sec not in primaries)
            if jam:
                assert payoff_m == REF.gain_malicious - REF.cost_malicious_switch
            else:
                assert payoff_m == -REF.cost_malicious_switch

    @pytest.mark.parametrize(
        "category,pre_state",
        [
            (Category.A, (3, 3)),
            (Category.B, (3, 7)),
        ],
    )
    def test_settlement_means_reproduce_the_payoff_tables(self, category, pre_state):
        # light version of the full oracle in the acceptance suite
        code = CATEGORIES.index(category)
        game = GAMES[code]
        rng = random.Random(17)
        trials = 30_000
        for row in (1, 2):
            for col in (1, 2):
                actions = (game.row_labels[row - 1] == "switch", game.col_labels[col - 1] == "switch")
                total_s = total_m = sq_s = sq_m = 0.0
                for _ in range(trials):
                    *_, payoff_s, payoff_m = settle_slot(code, *pre_state, actions, REF, rng)
                    total_s += payoff_s
                    total_m += payoff_m
                    sq_s += payoff_s * payoff_s
                    sq_m += payoff_m * payoff_m
                for total, sq, expected in (
                    (total_s, sq_s, game.row_payoff(row, col)),
                    (total_m, sq_m, game.col_payoff(row, col)),
                ):
                    mean = total / trials
                    std_err = math.sqrt(max(sq / trials - mean * mean, 0.0) / trials)
                    assert abs(mean - expected) <= max(3 * std_err, 1e-9)


class TestUpdateHistories:
    # each category's counts: secondary switch, secondary stay (as seen by
    # the jammer), jammer switch, jammer stay (as seen by the secondary)

    def test_category_c_slot_records_nothing(self):
        histories = fresh_histories()
        assert update_histories(C, (STAY, STAY), B, histories) == (False, False)
        assert histories == fresh_histories()

    def test_transition_into_c_records_nothing(self):
        histories = fresh_histories()
        assert update_histories(A, (STAY, STAY), C, histories) == (False, False)
        assert histories == fresh_histories()

    def test_stay_in_a_updates_both_sides(self):
        histories = fresh_histories()
        assert update_histories(A, (STAY, STAY), A, histories) == (True, True)
        assert histories[A] == [0, 1, 0, 1]  # both stays recorded
        assert histories[B] == [0, 0, 0, 0]

    def test_unjammed_switch_blinds_the_secondary(self):
        histories = fresh_histories()
        assert update_histories(A, (SWITCH, STAY), B, histories) == (True, False)
        assert histories[A] == [1, 0, 0, 0]  # jammer saw the switch, secondary saw nothing

    def test_jam_after_switching_identifies_the_jammer(self):
        # from A, a next-slot jam means the jammer followed: both record
        histories = fresh_histories()
        assert update_histories(A, (SWITCH, SWITCH), A, histories) == (True, True)
        assert histories[A] == [1, 0, 1, 0]

    def test_counts_land_in_the_acting_category_bucket(self):
        histories = fresh_histories()
        assert update_histories(B, (STAY, STAY), B, histories) == (True, True)
        assert histories[A] == [0, 0, 0, 0]
        assert histories[B] == [0, 1, 0, 1]


def c_run_lengths(category):
    """Lengths of the runs of category-C slots that end before the trace does."""
    runs = []
    current = 0
    for code in category.tolist():
        if code == C:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    return runs


class TestRunSimulation:
    def test_single_slot_shape(self):
        result = run_simulation(REF, FP_BOTH, 1, seed=0)
        assert len(result) == 1
        malicious_total, secondary_total = result.observation_totals()
        assert malicious_total.tolist() in ([0], [1])
        assert secondary_total.tolist() in ([0], [1])

    def test_saturated_spectrum_is_all_category_c(self):
        config = NetworkConfig(n_primary=10)
        result = run_simulation(config, FP_BOTH, 300, seed=1)
        assert (result.category == C).all()
        assert result.summary.cumulative_secondary_payoff == 0.0
        assert result.summary.cumulative_malicious_payoff == 0.0
        assert result.summary.malicious_observations == 0
        assert result.summary.secondary_observations == 0

    def test_deterministic_replay(self):
        first = run_simulation(REF, FP_BOTH, 2_000, seed=12)
        second = run_simulation(REF, FP_BOTH, 2_000, seed=12)
        assert first.games == second.games
        for field in dataclasses.fields(SimulationResult):
            if field.name != "games":
                assert np.array_equal(getattr(first, field.name), getattr(second, field.name))
        assert first.summary == second.summary

    def test_record_invariants(self):
        result = run_simulation(REF, FP_BOTH, 5_000, seed=8)
        # slot t's settled state is slot t + 1's pre-action state
        jam = result.jam[:-1]
        after_sec = result.secondary_band[1:]
        after_mal = result.malicious_band[1:]
        after_primaries = result.primary_bands[1:]
        assert (after_sec[jam] == after_mal[jam]).all()
        assert (after_primaries[jam] != after_sec[jam, None]).all()
        assert np.array_equal(jam, result.category[1:] == A)
        in_c = result.category == C
        assert not result.secondary_switch[in_c].any()
        assert not result.malicious_switch[in_c].any()
        # histories are monotone and the jammer always knows at least as much
        malicious_total, secondary_total = result.observation_totals()
        assert (np.diff(malicious_total) >= 0).all()
        assert (np.diff(secondary_total) >= 0).all()
        assert (malicious_total >= secondary_total).all()

    def test_category_c_dwell_time_is_geometric(self):
        result = run_simulation(REF, FP_BOTH, 100_000, seed=21)
        runs = c_run_lengths(result.category)
        mean_dwell = sum(runs) / len(runs)
        assert abs(mean_dwell - 2.0) <= 0.1  # n_bands / (n_bands - n_primary) within 5%

    def test_learning_simulation_approaches_the_equilibria(self):
        result = run_simulation(REF, FP_BOTH, 200_000, seed=7)
        s = result.summary
        assert abs(s.p_star_a - 0.948) <= 0.05
        assert abs(s.q_star_a - 0.84) <= 0.05
        assert s.malicious_observations >= s.secondary_observations

    def test_frequencies_count_strategy_one_by_the_game_labels(self):
        # strategy 1 is a switch for both players in A, but a stay for the jammer in B
        policies = PolicySpec(secondary=FixedPolicy(1.0), malicious=FixedPolicy(1.0))
        result = run_simulation(REF, policies, 2_000, seed=4)
        in_b = result.category == B
        assert result.secondary_switch[in_b].all()
        assert not result.malicious_switch[in_b].any()
        for code in (A, B):
            for running in result.frequencies(code):
                defined = running[~np.isnan(running)]
                assert defined.size > 0
                assert (defined == 1.0).all()

    def test_nash_play_realizes_equilibrium_payoffs_in_a_slots(self):
        policies = PolicySpec(secondary=NashPolicy(), malicious=NashPolicy())
        result = run_simulation(REF, policies, 200_000, seed=13)
        in_a = result.category == A
        payoffs_s = result.secondary_payoff[in_a]
        payoffs_m = result.malicious_payoff[in_a]
        n = len(payoffs_s)
        assert n > 1_000
        game = GAMES[A]
        eq = mixed_equilibrium(game).mixed
        u_s1, _, u_m1, _ = strategy_utilities(game, eq)
        for values, expected in ((payoffs_s, u_s1), (payoffs_m, u_m1)):
            assert abs(values.mean() - expected) <= 3 * math.sqrt(values.var() / n)

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            run_simulation(REF, FP_BOTH, 0, seed=0)
