import dataclasses
import functools
import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crn_jamgame import (
    Category,
    FictitiousPlayPolicy,
    FixedPolicy,
    NashPolicy,
    NetworkConfig,
    build_game,
    mixed_equilibrium,
    run_simulation,
)
from crn_jamgame import cli, learning, simulate
from crn_jamgame.games import FIRST_IS_SWITCH, BimatrixGame, ConfigError
from crn_jamgame.nash import pure_equilibria, strategy_utilities
from crn_jamgame.simulate import (
    A,
    B,
    C,
    SimulationResult,
    choose_actions,
    classify_state,
    plan_policies,
    settle_slot,
    update_histories,
)
import test_cli
from oracles import (
    CHAIN_CATEGORIES,
    FIRST_SWITCHES,
    col_payoff,
    enumerate_draws,
    exact_equilibrium,
    game_entries,
    interior_equilibrium,
    long_run_payoff,
    long_run_share,
    reference_csv,
    reference_run,
    row_payoff,
    slot_chain,
    state_payoffs,
)

REF = NetworkConfig()
NO_PRIMARIES = NetworkConfig(n_primary=0)
GAMES = (build_game(REF, Category.A), build_game(REF, Category.B))
FP_BOTH = (FictitiousPlayPolicy(), FictitiousPlayPolicy())
STAY, SWITCH = False, True  # switch flags
#: The (secondary, jammer) moves of a slot.
MOVES = ((STAY, STAY), (STAY, SWITCH), (SWITCH, STAY), (SWITCH, SWITCH))


#: Band counts whose written-out draws are checked against ``randrange``:
#: small ones, powers of two and one past them, and past 2**64.
WRITTEN_OUT_BANDS = [2, 3, 4, 5, 9, 10, 17, 32, 33, 2**31, 2**32 + 1, 2**64 + 1, 2**70]


def fresh_histories():
    return ([0, 0, 0, 0], [0, 0, 0, 0])


def plans(policies):
    return plan_policies(policies, GAMES, 10_000)


def same_state(rng, twin):
    """Whether two generators are in one state. Asserting ``==`` of the
    states themselves has pytest render their 625 words at each failing
    hypothesis example, which makes shrinking take minutes."""
    return rng.getstate() == twin.getstate()


class TestBelow:
    @given(st.integers(0, 2**32))
    def test_draws_as_randrange(self, seed):
        # with n 1 each try still takes a word, as randrange(1)'s does
        rng, twin = random.Random(seed), random.Random(seed)
        for n in (*range(1, 71), *WRITTEN_OUT_BANDS):
            for _ in range(3):
                assert simulate._below(n, rng) == twin.randrange(n)
            assert same_state(rng, twin), n


def silenced(config, rng):
    """The licensed-user draw of ``config``: ``settle_slot``'s only draw in a
    slot in which both players stay."""
    sec, mal, quiet = settle_slot(C, 1, 0, (STAY, STAY), config, rng)
    assert (sec, mal) == (1, 0)
    return quiet


class TestLicensedUserDraw:
    @pytest.mark.parametrize("n_primary,quiet", [(0, False), (10, True)])
    def test_certain_outcomes_draw_nothing(self, n_primary, quiet):
        rng = random.Random(0)
        for _ in range(20):
            assert silenced(NetworkConfig(n_primary=n_primary), rng) is quiet
        assert rng.getstate() == random.Random(0).getstate()

    @given(
        st.one_of(st.integers(2, 40), st.sampled_from(WRITTEN_OUT_BANDS)).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, n - 1))
        ),
        st.integers(0, 2**32),
    )
    def test_one_band_draw_below_n_primary(self, bands, seed):
        n_bands, n_primary = bands
        rng, twin = random.Random(seed), random.Random(seed)
        quiet = silenced(NetworkConfig(n_bands=n_bands, n_primary=n_primary), rng)
        assert quiet == (twin.randrange(n_bands) < n_primary)
        assert same_state(rng, twin)

    @pytest.mark.parametrize("n_primary", [1, 5, 9])
    def test_rate_is_the_licensed_share_of_bands(self, n_primary):
        config = NetworkConfig(n_primary=n_primary)
        rng = random.Random(314)
        draws = 30_000
        rate = sum(silenced(config, rng) for _ in range(draws)) / draws
        rho = n_primary / 10
        assert abs(rate - rho) < 3 * math.sqrt(rho * (1 - rho) / draws)


class TestTargetBandDraw:
    @pytest.mark.parametrize("n_bands", WRITTEN_OUT_BANDS)
    def test_draws_as_randrange_below_the_other_bands(self, n_bands):
        # a switching secondary in B, no licensed users: the target is the only draw;
        # with two bands the draw is below 1, and each try still takes a word
        config = NetworkConfig(n_bands=n_bands, n_primary=0)
        rng, twin = random.Random(n_bands), random.Random(n_bands)
        for current in (0, 1, n_bands // 2, n_bands - 1) * 10:
            pick = twin.randrange(n_bands - 1)
            settled = settle_slot(B, current, 0, (SWITCH, STAY), config, rng)
            assert settled == (pick + 1 if pick >= current else pick, 0, False)
            assert rng.getstate() == twin.getstate()


class TestClassifyState:
    def test_colocated_transmitting_is_a(self):
        assert classify_state(3, 3, False) == A

    def test_primary_on_secondary_band_is_c(self):
        assert classify_state(3, 7, True) == C
        assert classify_state(3, 3, True) == C

    def test_separated_transmitting_is_b(self):
        assert classify_state(3, 7, False) == B


class TestFixedPolicy:
    @pytest.mark.parametrize("probability", [-0.1, 1.5, math.nan, math.inf])
    def test_a_probability_outside_the_unit_interval_is_rejected(self, probability):
        # the message the CLI reports after the policy's key
        with pytest.raises(ConfigError, match=rf"^fixed probability must lie in \[0, 1\] \(got {probability!r}\)$"):
            FixedPolicy(probability)

    @pytest.mark.parametrize("probability", [0.0, 1.0])
    def test_the_interval_ends_are_accepted(self, probability):
        assert FixedPolicy(probability).probability_first == probability


class TestChooseActions:
    def test_category_c_forces_stay(self):
        actions = choose_actions(C, plans(FP_BOTH), fresh_histories(), random.Random(0))
        assert actions == (STAY, STAY)

    def test_degenerate_fixed_profile_is_deterministic(self):
        policies = (FixedPolicy(1.0), FixedPolicy(0.0))
        for seed in range(20):
            actions = choose_actions(A, plans(policies), fresh_histories(), random.Random(seed))
            assert actions == (SWITCH, STAY)

    def test_labels_follow_the_category_b_game(self):
        # jammer strategy 1 means stay in category B
        policies = (FixedPolicy(1.0), FixedPolicy(1.0))
        actions = choose_actions(B, plans(policies), fresh_histories(), random.Random(0))
        assert actions == (SWITCH, STAY)

    def test_empty_history_learning_is_uniform_over_pairs(self):
        counts = Counter()
        seeds = 10_000
        histories = fresh_histories()
        fp_plans = plans(FP_BOTH)
        for seed in range(seeds):
            counts[choose_actions(A, fp_plans, histories, random.Random(seed))] += 1
        assert set(counts) == {(s, m) for s in (SWITCH, STAY) for m in (SWITCH, STAY)}
        for pair, n in counts.items():
            assert abs(n / seeds - 0.25) <= 0.015

    def test_nash_policy_uses_the_category_equilibrium(self):
        nash_plans = plans((NashPolicy(), NashPolicy()))
        rng = random.Random(99)
        switches = 0
        seeds = 20_000
        for _ in range(seeds):
            action_s, _ = choose_actions(A, nash_plans, fresh_histories(), rng)
            switches += action_s == SWITCH
        p = mixed_equilibrium(GAMES[A]).p
        assert abs(switches / seeds - p) <= 3 * math.sqrt(p * (1 - p) / seeds)

    def test_nash_play_of_a_pure_equilibrium_draws_nothing(self):
        # strategy 1 strictly dominant for both: the only equilibrium is pure (1, 1)
        game = BimatrixGame(1, 1, 0, 0, 1, 0, 1, 0)
        assert mixed_equilibrium(game).degenerate
        nash = plan_policies((NashPolicy(), NashPolicy()), (game, game), 100)
        rng = random.Random(0)
        for code in (A, B):
            # strategy 1 is switch for both in A; the jammer's is stay in B
            assert choose_actions(code, nash, fresh_histories(), rng) == (SWITCH, code == A)
        assert rng.getstate() == random.Random(0).getstate()

    @pytest.mark.parametrize("game, profile", [
        # strategy 2 strictly dominant for both
        (BimatrixGame(0, 0, 1, 1, 0, 1, 0, 1), (2, 2)),
        # every profile is an equilibrium, (1, 1) the first
        (BimatrixGame(0, 0, 0, 0, 0, 0, 0, 0), (1, 1)),
        # row 2 strictly dominant, the jammer indifferent: (2, 1) before (2, 2)
        (BimatrixGame(0, 0, 1, 1, 1, 1, 0, 0), (2, 1)),
    ])
    def test_nash_play_of_a_degenerate_game_plays_its_first_pure_equilibrium(self, game, profile):
        assert mixed_equilibrium(game).degenerate
        assert pure_equilibria(game)[0] == profile
        nash = plan_policies((NashPolicy(), NashPolicy()), (game, game), 100)
        rng = random.Random(0)
        for code in (A, B):
            first_s, first_m = FIRST_IS_SWITCH[code]
            expected = (first_s == (profile[0] == 1), first_m == (profile[1] == 1))
            assert choose_actions(code, nash, fresh_histories(), rng) == expected
        assert rng.getstate() == random.Random(0).getstate()

    @pytest.mark.parametrize("first", [0.0, 1.0])
    def test_fixed_play_of_a_certain_strategy_draws_nothing(self, first):
        fixed = plans((FixedPolicy(first), FixedPolicy(first)))
        rng = random.Random(0)
        for code in (A, B):
            # strategy 1 is switch for both in A; the jammer's is stay in B
            expected = (first == 1.0, (first == 1.0) == (code == A))
            assert choose_actions(code, fixed, fresh_histories(), rng) == expected
        assert rng.getstate() == random.Random(0).getstate()

    @given(st.sampled_from([A, B]), st.lists(st.integers(0, 60), min_size=4, max_size=4))
    @settings(max_examples=200)
    def test_learning_plays_the_better_strategy_against_observed_counts(self, code, counts):
        # counts: secondary switch, secondary stay (seen by the jammer),
        # jammer switch, jammer stay (seen by the secondary); strategy order
        # comes from the order table, which puts the jammer's stay first in B
        game = GAMES[code]
        first_s, first_m = FIRST_IS_SWITCH[code]
        s1, s2 = (counts[0], counts[1]) if first_s else (counts[1], counts[0])
        m1, m2 = (counts[2], counts[3]) if first_m else (counts[3], counts[2])
        u_s = (game.a * m1 + game.b * m2, game.c * m1 + game.d * m2)
        u_m = (game.e * s1 + game.g * s2, game.f * s1 + game.h * s2)
        for u1, u2 in (u_s, u_m):
            assume(abs(u1 - u2) > 1e-6 * max(1.0, abs(u1), abs(u2)))
        # strategy 1 is the better one exactly when u1 > u2
        expected = ((u_s[0] > u_s[1]) == first_s, (u_m[0] > u_m[1]) == first_m)
        histories = fresh_histories()
        histories[code][:] = counts
        rng = random.Random(0)
        assert choose_actions(code, plans(FP_BOTH), histories, rng) == expected
        assert rng.getstate() == random.Random(0).getstate()  # no tie, no coin


def settled_payoffs(category, actions, outcome, config):
    """:func:`simulate.slot_payoffs` of one settled slot, as floats."""
    payoff_s, payoff_m = simulate.slot_payoffs(
        config, np.array([category], np.int8), np.array([classify_state(*outcome)], np.int8),
        np.array([actions[0]]), np.array([actions[1]]),
    )
    return float(payoff_s[0]), float(payoff_m[0])


class TestSettleSlot:
    def test_colocated_both_stay_is_a_certain_jam_without_primaries(self):
        outcome = settle_slot(A, 2, 2, (STAY, STAY), NO_PRIMARIES, random.Random(0))
        sec, mal, _ = outcome
        assert classify_state(*outcome) == A  # a jam
        assert settled_payoffs(A, (STAY, STAY), outcome, NO_PRIMARIES) == (-100.0, 75.0)
        assert sec == 2 and mal == 2

    def test_colocated_stay_switch_frees_the_secondary(self):
        outcome = settle_slot(A, 2, 2, (STAY, SWITCH), NO_PRIMARIES, random.Random(0))
        _, mal, _ = outcome
        assert classify_state(*outcome) == B  # no jam, no licensed user
        assert settled_payoffs(A, (STAY, SWITCH), outcome, NO_PRIMARIES) == (50.0, -2.0)
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
        outcome = settle_slot(C, 1, 5, (STAY, STAY), config, random.Random(3))
        sec, mal, silenced = outcome
        assert silenced and classify_state(*outcome) == C
        assert settled_payoffs(C, (STAY, STAY), outcome, config) == (0.0, 0.0)
        assert sec == 1 and mal == 5

    def test_jam_flag_consistency(self):
        rng = random.Random(5)
        for _ in range(500):
            outcome = settle_slot(A, 3, 3, (SWITCH, SWITCH), REF, rng)
            sec, mal, silenced = outcome
            jam = classify_state(*outcome) == A
            assert jam == (sec == mal and not silenced)
            _, payoff_m = settled_payoffs(A, (SWITCH, SWITCH), outcome, REF)
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
        ids=["Category.A-pre_state0", "Category.B-pre_state1"],
    )
    def test_settlement_means_reproduce_the_payoff_tables(self, category, pre_state):
        # light version of the full oracle in the acceptance suite
        game = GAMES[category]
        first_s, first_m = FIRST_IS_SWITCH[category]
        rng = random.Random(17)
        trials = 30_000
        for row in (1, 2):
            for col in (1, 2):
                actions = ((row == 1) == first_s, (col == 1) == first_m)
                outcomes = [settle_slot(category, *pre_state, actions, REF, rng) for _ in range(trials)]
                settled = np.array([classify_state(*outcome) for outcome in outcomes], np.int8)
                payoffs = simulate.slot_payoffs(
                    REF, np.full(trials, category, np.int8), settled, np.full(trials, actions[0]),
                    np.full(trials, actions[1]),
                )
                for payoff, expected in zip(payoffs, (row_payoff(game, row, col), col_payoff(game, row, col))):
                    std_err = math.sqrt(payoff.var() / trials)
                    assert abs(payoff.mean() - expected) <= max(3 * std_err, 1e-9)


#: (category before, category after) -> the (jammer saw, secondary saw)
#: flags for each of ``MOVES``, by the README's observation model. Nothing is
#: learned into or out of C. The jammer senses every band; the secondary
#: learns the jammer's move when it stayed, or when the slot ends in a jam.
OBSERVED = {
    (A, A): ((1, 1), (1, 1), (1, 1), (1, 1)),
    (A, B): ((1, 1), (1, 1), (1, 0), (1, 0)),
    (A, C): ((0, 0),) * 4,
    (B, A): ((1, 1), (1, 1), (1, 1), (1, 1)),
    (B, B): ((1, 1), (1, 1), (1, 0), (1, 0)),
    (B, C): ((0, 0),) * 4,
    (C, A): ((0, 0),) * 4,
    (C, B): ((0, 0),) * 4,
    (C, C): ((0, 0),) * 4,
}


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

    @pytest.mark.parametrize("before, after", list(OBSERVED), ids=lambda code: "ABC"[code])
    def test_each_case_of_the_observation_model(self, before, after):
        for moves, (jammer_saw, secondary_saw) in zip(MOVES, OBSERVED[before, after]):
            histories = fresh_histories()
            assert update_histories(before, moves, after, histories) == (jammer_saw, secondary_saw)
            expected = fresh_histories()
            if jammer_saw:
                expected[before][0 if moves[0] else 1] += 1
            if secondary_saw:
                expected[before][2 if moves[1] else 3] += 1
            assert histories == expected, moves


#: (secondary, jammer) switch probabilities that mix a state's moves.
RATIONAL_SWITCHES = ((Fraction(0), Fraction(1)), (Fraction(1, 3), Fraction(3, 4)), (Fraction(5, 7), Fraction(2, 9)))

#: The states of ``oracles.slot_chain`` (A, B, C together, C apart) as a
#: slot's category and its (secondary, jammer) bands before the moves.
CHAIN_STATES = ((A, 0, 0), (B, 0, 1), (C, 0, 0), (C, 0, 1))


@functools.lru_cache(maxsize=None)
def slot_law(n_bands, n_primary, state, actions):
    """The exact law of one slot of ``NetworkConfig(n_bands, n_primary)``
    from ``CHAIN_STATES[state]``: ``(weight, (secondary band, jammer band,
    silenced))`` over every draw of ``settle_slot``, one per accepted tuple of
    draw values."""
    category, sec, mal = CHAIN_STATES[state]
    config = NetworkConfig(n_bands, n_primary)
    law = enumerate_draws(lambda rng: settle_slot(category, sec, mal, actions, config, rng))
    # by the documented draw order: the licensed user unless certain, then a
    # switching secondary's target band, then a switching jammer's in A
    loops = (n_bands if 0 < n_primary < n_bands else 1) * (n_bands - 1) ** (actions[0] + (category == A) * actions[1])
    assert len(law) == loops
    return law


class TestExactSlotLaw:
    """Settlement checked exactly by enumerating every draw
    (:func:`oracles.enumerate_draws`), for every small network."""

    @pytest.mark.parametrize("n_bands", range(2, 10))
    def test_expected_slot_payoffs_are_the_payoff_tables(self, n_bands):
        for n_primary, category in itertools.product(range(n_bands + 1), (Category.A, Category.B)):
            config = NetworkConfig(n_bands, n_primary)
            game = build_game(config, category)
            first_s, first_m = FIRST_IS_SWITCH[category]
            # relative to the largest entry: entry a can cancel to 0, and its float to an ulp of its terms
            tolerance = 1e-12 * max(map(abs, game))
            for row, col in itertools.product((1, 2), repeat=2):
                actions = ((row == 1) == first_s, (col == 1) == first_m)
                law = slot_law(n_bands, n_primary, category, actions)  # a category code is its state
                settled = np.array([classify_state(*outcome) for _weight, outcome in law], np.int8)
                payoffs = simulate.slot_payoffs(
                    config, np.full(len(law), category, np.int8), settled, np.full(len(law), actions[0]),
                    np.full(len(law), actions[1]),
                )
                for paid, entry in zip(payoffs, (row_payoff(game, row, col), col_payoff(game, row, col))):
                    mean = sum(weight * Fraction(x) for (weight, _outcome), x in zip(law, paid.tolist()))
                    assert abs(mean - Fraction(entry)) <= tolerance, (n_primary, category, row, col)

    @pytest.mark.parametrize("n_bands", range(2, 10))
    def test_the_law_of_the_next_state_is_the_chains_row(self, n_bands):
        for n_primary, (state, (category, _sec, _mal)) in itertools.product(
            range(n_bands + 1), enumerate(CHAIN_STATES)
        ):
            for actions in MOVES if category != C else [(STAY, STAY)]:  # in C both stay
                law = [Fraction(0)] * 4  # A, B, C together, C apart
                for weight, (sec, mal, silenced) in slot_law(n_bands, n_primary, state, actions):
                    settled = classify_state(sec, mal, silenced)
                    law[settled + (settled == C and sec != mal)] += weight
                switch = tuple(map(float, actions))
                row = slot_chain(n_bands, n_primary, switch, switch)[state]
                assert np.abs(np.array(law, float) - row).max() <= 1e-15, (n_primary, state, actions)

    @pytest.mark.parametrize("n_bands", range(2, 10))
    def test_the_expected_payoff_of_every_chain_state(self, n_bands):
        for n_primary, fields in itertools.product(range(n_bands + 1), (REF[2:], (3, 1, 7, 5, 11))):
            config = NetworkConfig(n_bands, n_primary, *fields)
            priced = []  # by state: each move pair's exact expected (secondary, jammer) payoffs
            for state, (category, _sec, _mal) in enumerate(CHAIN_STATES):
                priced.append([])
                for actions in MOVES if category != C else [(STAY, STAY)]:  # in C both stay
                    law = slot_law(n_bands, n_primary, state, actions)
                    settled = np.array([classify_state(*outcome) for _weight, outcome in law], np.int8)
                    payoffs = simulate.slot_payoffs(
                        config, np.full(len(law), category, np.int8), settled, np.full(len(law), actions[0]),
                        np.full(len(law), actions[1]),
                    )
                    means = [sum(weight * Fraction(x) for (weight, _), x in zip(law, paid.tolist()))
                             for paid in payoffs]
                    priced[state].append((actions, means))
            exact = (n_bands, n_primary, *map(Fraction, fields))
            for switch_a, switch_b in itertools.product(RATIONAL_SWITCHES, repeat=2):
                expected = state_payoffs(exact, switch_a, switch_b)
                for state, (s, m) in enumerate((switch_a, switch_b, (0, 0), (0, 0))):
                    mixed = tuple(
                        sum((s if switch_s else 1 - s) * (m if switch_m else 1 - m) * means[player]
                            for (switch_s, switch_m), means in priced[state])
                        for player in (0, 1)
                    )
                    assert mixed == expected[state], (n_primary, fields, state, switch_a, switch_b)

    @pytest.mark.parametrize("n_bands", range(2, 10))
    def test_the_licensed_user_and_target_band_draws(self, n_bands):
        for n_primary in range(n_bands + 1):
            config = NetworkConfig(n_bands, n_primary)
            law = enumerate_draws(lambda rng: settle_slot(C, 0, 0, (STAY, STAY), config, rng))
            assert len(law) == (n_bands if 0 < n_primary < n_bands else 1)
            assert {outcome[:2] for _weight, outcome in law} == {(0, 0)}
            assert sum(weight for weight, (*_bands, quiet) in law if quiet) == Fraction(n_primary, n_bands)
        config = NetworkConfig(n_bands, 0)
        for current in range(n_bands):
            apart = (current + 1) % n_bands
            # the secondary's target in B, then the jammer's in A
            for category, bands, actions, mover in ((B, (current, apart), (SWITCH, STAY), 0),
                                                    (A, (current, current), (STAY, SWITCH), 1)):
                law = enumerate_draws(lambda rng: settle_slot(category, *bands, actions, config, rng))
                assert sorted(outcome[mover] for _weight, outcome in law) == [
                    band for band in range(n_bands) if band != current
                ]
                assert {weight for weight, _outcome in law} == {Fraction(1, n_bands - 1)}
                assert {outcome[1 - mover] for _weight, outcome in law} == {bands[1 - mover]}


def running_frequencies(result, code):
    """Running (p*, q*) of category ``code`` after every slot, as one slice."""
    ((_lo, p_star, q_star),) = result.running_frequencies(code, len(result))
    return p_star, q_star


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


def check_record(result):
    """The invariants of a simulation's record, slot by slot."""
    # each slot settles into the next slot's category, in one buffer of codes
    assert np.shares_memory(result.category, result.settled)
    assert np.array_equal(result.settled[:-1], result.category[1:])
    jam = result.settled == A
    # slot t's settled bands are slot t + 1's pre-action bands; a jam is
    # a co-location with no licensed user on the secondary's band
    after_sec = result.secondary_band[1:]
    after_mal = result.malicious_band[1:]
    assert (after_sec[jam[:-1]] == after_mal[jam[:-1]]).all()
    assert np.array_equal(jam[:-1], (after_sec == after_mal) & (result.settled[:-1] != C))
    in_c = result.category == C
    assert not result.secondary_switch[in_c].any()
    assert not result.malicious_switch[in_c].any()
    # the observation rule of update_histories, for every slot: nothing is
    # seen from or into category C; else the jammer sees every move, the
    # secondary unless it switched unjammed
    silent = in_c | (result.settled == C)
    seen_m = result.seen_by_malicious
    seen_s = result.seen_by_secondary
    assert not seen_m[silent].any() and not seen_s[silent].any()
    assert seen_m[~silent].all()
    informative = ~result.secondary_switch | jam
    assert np.array_equal(seen_s[~silent], informative[~silent])
    assert (np.cumsum(result.seen_by_malicious) >= np.cumsum(result.seen_by_secondary)).all()


class TestRunSimulation:
    def test_single_slot_shape(self):
        result = run_simulation(REF, FP_BOTH, 1, seed=0)
        assert len(result) == 1
        assert result.seen_by_malicious.tolist() in ([False], [True])
        assert result.seen_by_secondary.tolist() in ([False], [True])

    def test_saturated_spectrum_is_all_category_c(self):
        config = NetworkConfig(n_primary=10)
        result = run_simulation(config, FP_BOTH, 300, seed=1)
        assert (result.category == C).all()
        assert result.cumulative_payoffs() == (0.0, 0.0)
        assert np.count_nonzero(result.seen_by_malicious) == 0
        assert np.count_nonzero(result.seen_by_secondary) == 0

    @pytest.mark.parametrize(
        "n_bands,band_dtype", [(10, np.uint8), (300, np.uint16), (2**64, np.uint64), (2**70, object)]
    )
    def test_columns_keep_their_dtypes(self, n_bands, band_dtype):
        # past 2**64 bands the band columns hold Python ints
        config = NetworkConfig(n_bands=n_bands, n_primary=3)
        result = run_simulation(config, FP_BOTH, 2_000, seed=5)
        assert result.config == config
        dtypes = {
            field.name: getattr(result, field.name).dtype
            for field in dataclasses.fields(result)
            if field.name != "config"
        }
        assert dtypes == {
            "category": np.int8, "settled": np.int8, "secondary_band": band_dtype, "malicious_band": band_dtype,
            "secondary_switch": bool, "malicious_switch": bool,
            "seen_by_malicious": bool, "seen_by_secondary": bool,
        }
        for column in (result.secondary_band, result.malicious_band):
            assert all(0 <= band < n_bands for band in column.tolist())
        check_record(result)

    def test_deterministic_replay(self):
        first = run_simulation(REF, FP_BOTH, 2_000, seed=12)
        second = run_simulation(REF, FP_BOTH, 2_000, seed=12)
        for field in dataclasses.fields(SimulationResult):
            assert np.array_equal(getattr(first, field.name), getattr(second, field.name))
        for code in (A, B):  # nan matches nan
            finals = first.final_frequencies(code), second.final_frequencies(code)
            assert np.array_equal(*finals, equal_nan=True)
        assert np.array_equal(first.cumulative_payoffs(), second.cumulative_payoffs(), equal_nan=True)

    @pytest.mark.parametrize(
        "policies,slots,seed,last",
        [
            ((FixedPolicy(0.3), FixedPolicy(0.6)), 1_000, 0, B),
            ((NashPolicy(), NashPolicy()), 1_000, 0, C),
            (FP_BOTH, 1_000, 2, B),
            (FP_BOTH, 2, 1, C),
        ],
        ids=["fixed", "nash", "fp", "fp-two-slots"],
    )
    def test_a_run_is_the_first_slots_of_a_longer_one(self, policies, slots, seed, last):
        # fit_to_counts leaves the default games as they are, so the run
        # length changes no draw; the last slot settles into B or C, never
        # into the A a buffer's unwritten zero would read as
        result = run_simulation(REF, policies, slots, seed)
        longer = run_simulation(REF, policies, slots + 1, seed)
        for field in dataclasses.fields(SimulationResult):
            if field.name != "config":
                assert np.array_equal(getattr(result, field.name), getattr(longer, field.name)[:slots])
        assert result.settled[-1] == longer.category[slots] == last
        assert np.shares_memory(result.category, result.settled)

    def test_record_invariants(self):
        nash = (NashPolicy(), NashPolicy())
        fixed = (FixedPolicy(0.3), FixedPolicy(0.6))
        configs = (REF, NetworkConfig(n_bands=2, n_primary=1), NetworkConfig(n_bands=32, n_primary=24))
        for config in configs:
            for policies in (FP_BOTH, nash, fixed):
                check_record(run_simulation(config, policies, 5_000, seed=8))

    def test_category_c_dwell_time_is_geometric(self):
        result = run_simulation(REF, FP_BOTH, 100_000, seed=21)
        runs = c_run_lengths(result.category)
        mean_dwell = sum(runs) / len(runs)
        assert abs(mean_dwell - 2.0) <= 0.1  # n_bands / (n_bands - n_primary) within 5%

    def test_learning_simulation_approaches_the_equilibria(self):
        result = run_simulation(REF, FP_BOTH, 200_000, seed=7)
        p_star_a, q_star_a = result.final_frequencies(A)
        assert abs(p_star_a - 0.948) <= 0.05
        assert abs(q_star_a - 0.84) <= 0.05
        assert np.count_nonzero(result.seen_by_malicious) >= np.count_nonzero(result.seen_by_secondary)

    def test_frequencies_count_strategy_one_by_the_game_labels(self):
        # strategy 1 is a switch for both players in A, but a stay for the jammer in B
        policies = (FixedPolicy(1.0), FixedPolicy(1.0))
        result = run_simulation(REF, policies, 2_000, seed=4)
        in_b = result.category == B
        assert result.secondary_switch[in_b].all()
        assert not result.malicious_switch[in_b].any()
        for code in (A, B):
            for running in running_frequencies(result, code):
                defined = running[~np.isnan(running)]
                assert defined.size > 0
                assert (defined == 1.0).all()

    @given(
        st.integers(0, 10),
        st.sampled_from([FixedPolicy(0.3), NashPolicy(), FictitiousPlayPolicy()]),
        st.sampled_from([FixedPolicy(0.7), NashPolicy(), FictitiousPlayPolicy()]),
        st.integers(1, 400),
        st.integers(0, 2**32),
        st.integers(1, 500),
    )
    @settings(max_examples=100, deadline=None)
    def test_final_frequencies_are_the_last_running_frequencies(
        self, n_primary, secondary, malicious, slots, seed, count_slice
    ):
        # nan when nothing was recorded in the category: always with ten
        # primaries (every slot is C), often in short runs; the final
        # counts, taken count_slice slots at a time, are those of one pass
        config = NetworkConfig(n_primary=n_primary)
        result = run_simulation(config, (secondary, malicious), slots, seed)
        with mock.patch.object(learning, "COUNT_SLICE", count_slice):
            finals = {code: result.final_frequencies(code) for code in (A, B)}
        for code, pair in finals.items():
            for final, running in zip(pair, running_frequencies(result, code)):
                last = float(running[-1])
                assert final == last or (math.isnan(final) and math.isnan(last))
        if n_primary == 10:
            assert all(math.isnan(x) for pair in finals.values() for x in pair)

    @given(
        st.sampled_from([0, 5, 9]),
        st.sampled_from([FixedPolicy(0.3), NashPolicy(), FictitiousPlayPolicy()]),
        st.sampled_from([FixedPolicy(0.7), NashPolicy(), FictitiousPlayPolicy()]),
        st.integers(1, 3000),
        st.integers(1, 4000),
        st.integers(0, 2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_slices_give_the_same_running_frequencies_as_one_pass(
        self, n_primary, secondary, malicious, slots, size, seed
    ):
        config = NetworkConfig(n_primary=n_primary)
        result = run_simulation(config, (secondary, malicious), slots, seed)
        for code in (A, B):
            slices = list(result.running_frequencies(code, size))
            assert [lo for lo, _p, _q in slices] == list(range(0, slots, size))
            here = result.category == code
            for column, switch, first, seen_by_rival in (
                (1, result.secondary_switch, FIRST_IS_SWITCH[code][0], result.seen_by_malicious),
                (2, result.malicious_switch, FIRST_IS_SWITCH[code][1], result.seen_by_secondary),
            ):
                seen = seen_by_rival & here
                with np.errstate(invalid="ignore"):
                    one_pass = np.cumsum(seen & (switch == first)) / np.cumsum(seen)
                joined = np.concatenate([part[column] for part in slices])
                assert np.array_equal(joined, one_pass, equal_nan=True)

    @pytest.mark.parametrize("code,z", [(A, 3), (B, 5)], ids=["A", "B"])
    def test_nash_play_realizes_equilibrium_payoffs(self, code, z):
        # settled payoffs check the game's strategy order here. Consecutive
        # B slots are correlated, so the i.i.d. standard error understates
        # B's spread: its band is 5 of them. At the equilibrium a player's
        # mean payoff is flat in its own mixing, and in B a flipped jammer
        # order moves the secondary's by only 0.18; the secondary's switch
        # slots alone (its strategy 1 in both games) move from 13.7 to 23.
        policies = (NashPolicy(), NashPolicy())
        result = run_simulation(REF, policies, 200_000, seed=13)
        here = result.category == code
        switched = here & result.secondary_switch
        game = GAMES[code]
        eq = mixed_equilibrium(game)
        u_s1, _, u_m1, _ = strategy_utilities(game, eq.p, eq.q)
        payoff_s, payoff_m = result.payoffs()
        for values, expected in (
            (payoff_s[here], u_s1),
            (payoff_m[here], u_m1),
            (payoff_s[switched], u_s1),
        ):
            n = len(values)
            assert n > 1_000
            assert abs(values.mean() - expected) <= z * math.sqrt(values.var() / n)

    def test_overflowing_games_learn_like_their_scaled_copies(self):
        # counts times 2**1020 overflow; the same network scaled by 2**-1000 does not
        huge = NetworkConfig(gain_malicious=2.0**1020, loss_secondary=2.0**1020, gain_secondary=2.0**1020)
        scaled = NetworkConfig(
            **{
                name: math.ldexp(getattr(huge, name), -1000)
                for name in NetworkConfig._fields
                if name not in ("n_bands", "n_primary")
            }
        )
        first = run_simulation(huge, FP_BOTH, 5_000, seed=5)
        second = run_simulation(scaled, FP_BOTH, 5_000, seed=5)
        for name in ("category", "settled", "secondary_switch", "malicious_switch"):
            assert np.array_equal(getattr(first, name), getattr(second, name))

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            run_simulation(REF, FP_BOTH, 0, seed=0)

    def test_only_a_config_within_the_bound_reaches_the_run(self):
        # a field one float past 2**1020 is rejected by NetworkConfig, and a
        # config it accepts builds each game once, with no check
        fields = {"n_primary": 0, "cost_secondary_switch": 2.0**1020, "loss_secondary": 2.0**1020}
        with pytest.raises(ConfigError, match=r"^loss_secondary must lie in \[0, 2\*\*1020\] \("):
            NetworkConfig(**{**fields, "loss_secondary": math.nextafter(2.0**1020, math.inf)})
        accepted = NetworkConfig(**fields)  # a is -2**1021
        with mock.patch.object(simulate, "build_game", wraps=build_game) as built:
            run_simulation(accepted, FP_BOTH, 10, seed=0)
        assert built.call_args_list == [mock.call(accepted, Category.A), mock.call(accepted, Category.B)]

    @pytest.mark.parametrize(
        "policy", ["fp", "nash", None, 0.3, NashPolicy], ids=["fp-text", "nash-text", "none", "float", "nash-class"]
    )
    def test_an_unknown_policy_is_a_type_error_naming_it(self, policy):
        # neither fixed nor fictitious play used to be taken for Nash play
        for policies in ((policy, NashPolicy()), (NashPolicy(), policy)):
            with pytest.raises(TypeError) as error:
                run_simulation(REF, policies, 10, seed=0)
            assert str(error.value).endswith(f"(got {policy!r})")


class TestFpVersusFpShares:
    def test_the_readme_shares_on_the_default_config(self):
        # README, Observation model: over 200,000 slots with seeds 1-3, the
        # jammer plays strategy 1 in 0.51-0.53 of its A slots and 0.71 of its
        # B slots, where its recorded q* reads 0.84 and 0.85; each bound below
        # is the interval that rounds to the README's two digits
        for seed in (1, 2, 3):
            result = run_simulation(REF, FP_BOTH, 200_000, seed)
            in_a, in_b = result.category == A, result.category == B
            played_a = np.count_nonzero(result.malicious_switch[in_a]) / np.count_nonzero(in_a)
            played_b = np.count_nonzero(~result.malicious_switch[in_b]) / np.count_nonzero(in_b)  # B's 1 is a stay
            recorded_a, recorded_b = result.final_frequencies(A)[1], result.final_frequencies(B)[1]
            assert 0.505 <= played_a < 0.535 and 0.705 <= played_b < 0.715, (seed, played_a, played_b)
            assert 0.835 <= recorded_a < 0.845 and 0.845 <= recorded_b < 0.855, (seed, recorded_a, recorded_b)


#: The policies of ``oracles.reference_run`` by name, as ``run_simulation`` takes them.
POLICIES = {
    "fixed:0": FixedPolicy(0.0), "fixed:1": FixedPolicy(1.0), "fixed:0.3": FixedPolicy(0.3),
    "nash": NashPolicy(), "fp": FictitiousPlayPolicy(),
}


@st.composite
def reference_configs(draw):
    """Networks of 2-6 or 32 bands, every n_primary, payoff fields over
    the whole accepted range (``test_cli.FIELD_VALUES``)."""
    n_bands = draw(st.sampled_from([2, 3, 4, 5, 6, 32]))
    fields = (draw(test_cli.FIELD_VALUES) for _ in range(5))
    return NetworkConfig(n_bands, draw(st.integers(0, n_bands)), *fields)


class TestReferenceRun:
    """``run_simulation`` against ``oracles.reference_run``, a slot loop
    written from the documented rules: every drawn column, exactly, and the
    generator's state after the run."""

    @given(
        reference_configs(),
        st.tuples(st.sampled_from(list(POLICIES)), st.sampled_from(list(POLICIES))),
        st.one_of(st.integers(1, 2_000), st.integers(1_000, 2_000)),  # long runs often
        st.integers(0, 2**64 - 1),
    )
    @example(REF, ("fp", "fp"), 2_000, 1)
    @example(REF, ("nash", "nash"), 2_000, 2)
    @example(REF, ("fixed:0.3", "fp"), 2_000, 3)
    @example(REF, ("nash", "fp"), 2_000, 4)
    @example(NetworkConfig(32, 24), ("nash", "nash"), 2_000, 5)
    @example(NetworkConfig(2, 1), ("fp", "fp"), 2_000, 6)
    @example(NetworkConfig(3, 0), ("fp", "fixed:0.3"), 2_000, 7)
    @example(NetworkConfig(5, 5), ("fp", "fp"), 50, 8)  # every slot C: no licensed-user draw
    @example(NetworkConfig(2, 0, *[2.0**1020] * 5), ("fp", "nash"), 2_000, 9)
    @settings(max_examples=200, deadline=None)
    def test_every_drawn_column_matches(self, config, policies, slots, seed):
        generators = []

        class Recorded(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                generators.append(self)

        with mock.patch.object(simulate.random, "Random", Recorded):
            result = run_simulation(config, tuple(POLICIES[name] for name in policies), slots, seed)
        expected, last, state = reference_run(config, policies, slots, seed)
        # the same draws: no more, as where a move or a licensed user is certain
        assert len(generators) == 1 and generators[0].getstate() == state
        names = ("category", "secondary_band", "malicious_band", "secondary_switch", "malicious_switch",
                 "seen_by_malicious", "seen_by_secondary")
        for name, want in zip(names, expected):
            got = getattr(result, name).tolist()
            if name == "category":
                got = [Category(code).name for code in got]
            # the first slot that differs, not a diff of two long lists
            first = next((t for t, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
            assert first is None and len(got) == len(want) == slots, (name, first)
        assert Category(int(result.settled[-1])).name == last

    @pytest.mark.parametrize(
        "config, policies, seed",
        [
            (REF, ("fp", "fp"), 1),
            (NetworkConfig(3, 0), ("nash", "nash"), 2),  # no licensed user: no C slot
            (NetworkConfig(4, 4), ("fixed:0.3", "fp"), 3),  # every slot C: nothing recorded
            (NetworkConfig(2, 1, 0.7, 1e-3, 0.1, 1 / 3, 2 / 3), ("fixed:0.3", "nash"), 4),
            (NetworkConfig(32, 24), ("nash", "fp"), 5),
        ],
        ids=["fp-fp", "nash-no-primary", "fixed-fp-saturated", "fixed-nash-fractional", "nash-fp-crowded"],
    )
    def test_the_simulate_csv_is_the_reference_rows(self, tmp_path, capsys, config, policies, seed):
        # 1,500 slots: the CSV's second block carries the first's counts
        out = tmp_path / "trace.csv"
        fields = (f"--{name.replace('_', '-')}={value!r}" for name, value in zip(NetworkConfig._fields, config))
        argv = ["simulate", *fields, "--policy-secondary", policies[0], "--policy-malicious", policies[1],
                "--slots", "1500", "--seed", str(seed), "--out", str(out)]
        assert cli.main(argv) == 0
        # the first line that differs, not a diff of two long texts
        texts = out.read_bytes().decode(), reference_csv(config, policies, 1_500, seed)
        lines = [text.splitlines(keepends=True) for text in texts]
        first = next((i for i, pair in enumerate(itertools.zip_longest(*lines)) if pair[0] != pair[1]), None)
        assert first is None, (first, *(text[first:first + 1] for text in lines))

    @given(reference_configs())
    @settings(max_examples=200, deadline=None)
    def test_the_oracle_plays_the_games_and_equilibria_of_the_library(self, config):
        # the oracle's entries are build_game's, bit for bit; its exact (p, q)
        # are the solver's to a relative 1e-12 (the solver rounds twice), or
        # to 2**-1022 below the normal range
        for category in (Category.A, Category.B):
            game = build_game(config, category)
            assert tuple(game) == game_entries(config, category.name)
            report = mixed_equilibrium(game)
            if not report.degenerate:
                for got, exact in zip((report.p, report.q), exact_equilibrium(game)):
                    error = abs(Fraction(got) - exact)
                    assert error <= abs(exact) / 10**12 or error <= Fraction(2.0**-1022) > abs(exact)


def scalar_payoffs(config, category, settled, switch_s, switch_m):
    """One slot's payoffs by the scalar rule, in Python arithmetic, stored
    as floats: the reference for slot_payoffs."""
    _, _, cost_s, cost_m, gain_s, gain_m, loss_s = config
    payoff_s = 0.0 if settled == C else (-loss_s if settled == A else gain_s)
    payoff_m = gain_m if settled == A else 0.0
    if switch_s and (category == A or not switch_m):
        payoff_s -= cost_s
    if switch_m:
        payoff_m -= cost_m
    return float(payoff_s), float(payoff_m)


def simulate_args(argv):
    """(config, policies, slots) as the CLI resolves ``simulate ARGV``."""
    cfg = cli.parse_config(cli._build_parser().parse_args(["simulate", *argv]))
    return cfg.network, (cfg.policy_secondary, cfg.policy_malicious), cfg.slots


def same_float(x, y):
    """Equal with the same sign of zero, or both nan."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


LONG_RUN = 2 * learning.COUNT_SLICE + 1_000
#: Runs whose payoffs are read four ways: (config, policies, slots).
PAYOFF_RUNS = {
    "reference-fp": (REF, FP_BOTH, LONG_RUN),
    "reference-nash": (REF, (NashPolicy(), NashPolicy()), LONG_RUN),
    # every secondary payoff is a zero, -0.0 on a jam
    "signed-zeros": (
        NetworkConfig(gain_secondary=0.0, loss_secondary=0.0, cost_secondary_switch=0.0, gain_malicious=-0.0),
        (FixedPolicy(0.5), FixedPolicy(0.5)),
        LONG_RUN,
    ),
    # inexact payoffs: a pairwise sum would round differently from a running one
    "fractional": (
        NetworkConfig(cost_secondary_switch=0.7, cost_malicious_switch=1e-3, gain_secondary=0.1,
                      gain_malicious=1 / 3, loss_secondary=2 / 3),
        FP_BOTH,
        LONG_RUN,
    ),
    "int-fields": (
        NetworkConfig(cost_secondary_switch=5, cost_malicious_switch=2, gain_secondary=50, gain_malicious=75,
                      loss_secondary=100),
        FP_BOTH,
        LONG_RUN,
    ),
    # every field at the bound: a jammed switch pays -2**1021, and seed 1's total overflows
    "bound-slot-payoff": (*simulate_args(test_cli.TestEveryAcceptedConfig.BOUND_SLOT_PAYOFF)[:2], LONG_RUN),
    # finite slot payoffs whose sum overflows to -inf
    "overflowing-totals": simulate_args(test_cli.TestOverflowingTotals.ARGS[1:]),
    "overflowing-totals-long": (*simulate_args(test_cli.TestOverflowingTotals.ARGS[1:])[:2], LONG_RUN),
}


class TestPayoffReadings:
    @pytest.mark.parametrize("count_slice", [learning.COUNT_SLICE, 999])
    @pytest.mark.parametrize("run", list(PAYOFF_RUNS))
    def test_every_reading_gives_the_same_bits(self, run, count_slice):
        config, policies, slots = PAYOFF_RUNS[run]
        result = run_simulation(config, policies, slots, seed=1)
        whole = result.payoffs()
        blocks = [result.payoffs(slice(lo, lo + 1024)) for lo in range(0, slots, 1024)]
        joined = tuple(np.concatenate(column) for column in zip(*blocks))
        columns = (result.category, result.settled, result.secondary_switch, result.malicious_switch)
        reference = np.array([scalar_payoffs(config, *slot) for slot in zip(*map(np.ndarray.tolist, columns))]).T
        for payoff in (*whole, *joined):
            assert payoff.dtype == np.float64 and payoff.shape == (slots,)
        for reading in (joined, reference):
            for payoff, expected in zip(whole, reading):
                assert np.array_equal(payoff.view(np.uint64), expected.view(np.uint64))
        with mock.patch.object(simulate, "COUNT_SLICE", count_slice):
            totals = result.cumulative_payoffs()
        with np.errstate(over="ignore"):
            sums = tuple(0.0 + float(np.cumsum(payoff)[-1]) for payoff in whole)
        assert all(map(same_float, totals, sums)), (totals, sums)
        assert all(np.isfinite(payoff).all() for payoff in whole) and not any(map(math.isnan, totals))
        if run == "signed-zeros":
            jam = result.settled == A
            assert np.signbit(whole[0][jam]).all() and jam.any()
        if run == "bound-slot-payoff":
            assert whole[0].min() == -(2.0**1021) and math.isinf(totals[0])
        if run.startswith("overflowing"):
            assert totals[0] == -math.inf

    def test_an_int_field_counts_as_its_float(self):
        # ints that no float holds exactly pay as their floats do, a jammed
        # switch the sum of the two floats
        ints = NetworkConfig(n_primary=0, loss_secondary=2**1020 - 1, cost_secondary_switch=3**640)
        floats = ints._replace(loss_secondary=float(2**1020 - 1), cost_secondary_switch=float(3**640))
        policies = (FixedPolicy(0.5), FixedPolicy(0.5))
        as_ints, as_floats = (run_simulation(config, policies, 200, seed=1) for config in (ints, floats))
        for payoff, expected in zip(as_ints.payoffs(), as_floats.payoffs()):
            assert np.array_equal(payoff.view(np.uint64), expected.view(np.uint64))
        assert as_ints.payoffs()[0].min() == -(2.0**1020) - float(3**640)
        assert as_ints.cumulative_payoffs() == as_floats.cumulative_payoffs()

    def test_the_record_keeps_at_most_ten_bytes_per_slot(self):
        # seven one-byte columns; two float payoff columns would add 16
        slots = 20_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_simulation(NetworkConfig(), FP_BOTH, slots, seed=1)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(result) == slots
        assert retained / slots <= 10


#: Standard errors in the band of the long-run chain tests.
CHAIN_Z = 5
CHAIN_SLOTS = 20_000


@st.composite
def networks(draw):
    n_bands = draw(st.integers(2, 12))
    return NetworkConfig(
        n_bands=n_bands,
        n_primary=draw(st.integers(0, n_bands - 1)),
        cost_secondary_switch=draw(st.floats(0, 20)),
        cost_malicious_switch=draw(st.floats(0, 20)),
        gain_secondary=draw(st.floats(10, 100)),
        gain_malicious=draw(st.floats(10, 100)),
        loss_secondary=draw(st.floats(10, 200)),
    )


def assert_long_run(result, config, switch_a, switch_b):
    """Dwell shares and jam rate within the exact chain's CLT band."""
    chain = slot_chain(config.n_bands, config.n_primary, switch_a, switch_b)
    slots = len(result)
    for name, indicator in CHAIN_CATEGORIES.items():
        share, band = long_run_share(chain, indicator, slots, CHAIN_Z)
        measured = np.count_nonzero(result.category == Category[name]) / slots
        assert abs(measured - share) <= band, (name, measured, share, band)
    # a slot jams exactly when it settles into A: the A share one slot later
    share, band = long_run_share(chain, CHAIN_CATEGORIES["A"], slots, CHAIN_Z)
    measured = np.count_nonzero(result.settled == A) / slots
    assert abs(measured - share) <= band, ("jam", measured, share, band)


class TestLongRunChain:
    """Fixed and Nash play draw every move independently given the
    category, so the slot process is the 4-state chain of
    ``oracles.slot_chain``; its stationary shares are exact."""

    @given(
        networks(),
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
        st.integers(0, 2**32),
    )
    @example(NetworkConfig(n_bands=2, n_primary=0), 0.3, 0.7, 1)
    @example(NetworkConfig(n_bands=2, n_primary=1), 0.3, 0.7, 2)
    @example(NetworkConfig(n_bands=10, n_primary=9), 0.5, 0.5, 3)
    @settings(max_examples=20, deadline=None)
    def test_fixed_play_matches_the_chain(self, config, first_s, first_m, seed):
        policies = (FixedPolicy(first_s), FixedPolicy(first_m))
        result = run_simulation(config, policies, CHAIN_SLOTS, seed)
        # strategy 1 is a switch, except the jammer's in category B (a stay)
        assert_long_run(result, config, (first_s, first_m), (first_s, 1 - first_m))

    @given(networks(), st.integers(0, 2**32))
    @example(NetworkConfig(), 1)
    @example(NetworkConfig(n_bands=2, n_primary=0), 2)
    @example(NetworkConfig(n_bands=2, n_primary=1), 3)
    @example(NetworkConfig(n_bands=32, n_primary=24, cost_malicious_switch=0.5), 4)
    @settings(max_examples=20, deadline=None)
    def test_nash_play_matches_the_chain(self, config, seed):
        entries = [
            [getattr(build_game(config, category), x) for x in "abcdefgh"]
            for category in (Category.A, Category.B)
        ]
        equilibria = [interior_equilibrium(*game) for game in entries]
        assume(None not in equilibria)
        (p_a, q_a), (p_b, q_b) = equilibria
        policies = (NashPolicy(), NashPolicy())
        result = run_simulation(config, policies, CHAIN_SLOTS, seed)
        assert_long_run(result, config, (p_a, q_a), (p_b, 1 - q_b))

    @pytest.mark.parametrize(
        "config,exact,rounded",
        [
            (REF, (15.475713514000187, 3.6079244320398507), (15.4757, 3.6079)),
            (
                NetworkConfig(n_bands=32, n_primary=24, cost_malicious_switch=0.5),
                (10.206379069955943, 0.6165458175885002),
                (10.2064, 0.6165),
            ),
        ],
        ids=["default", "sim-crowded"],
    )
    def test_the_long_run_payoff_of_nash_play(self, config, exact, rounded):
        # pi . r with each category's equilibrium (p, q) as switch probabilities
        switches = []
        for category in "AB":
            equilibrium = exact_equilibrium(game_entries(tuple(config), category))
            assert all(0 < x < 1 for x in equilibrium)
            switches.append(tuple(
                float(x if first else 1 - x) for x, first in zip(equilibrium, FIRST_SWITCHES[category])
            ))
        chain = slot_chain(config.n_bands, config.n_primary, *switches)
        payoffs = long_run_payoff(chain, state_payoffs(tuple(config), *switches))
        assert payoffs == pytest.approx(exact, abs=1e-9)
        assert payoffs == pytest.approx(rounded, abs=5e-5)
