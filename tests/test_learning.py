import math
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crn_jamgame import (
    Category,
    FictitiousPlayPolicy,
    NetworkConfig,
    build_game,
    mixed_equilibrium,
    run_fp,
)
from crn_jamgame import learning
from crn_jamgame.cli import main
from crn_jamgame.games import BimatrixGame
from crn_jamgame.learning import FpTrace, best_response
from crn_jamgame.simulate import A, choose_actions, plan_policies
from oracles import formula_best_response, fp_replay

GAME_A = build_game(NetworkConfig(), Category.A)
GAME_B = build_game(NetworkConfig(), Category.B)
EQ_A = mixed_equilibrium(GAME_A)
EQ_B = mixed_equilibrium(GAME_B)
#: Payoffs near the float maximum: count-weighted sums overflow unscaled.
HUGE = NetworkConfig(gain_malicious=1e308, loss_secondary=1e308, gain_secondary=1e308)
DOMINANCE_GAME = BimatrixGame(a=1, b=1, c=0, d=0, e=1, f=0, g=1, h=0)

entries = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
# payoffs whose count-weighted sums overflow to +-inf (and to nan as
# inf - inf), underflow to subnormals, or are signed zeros
extreme_entries = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1e308, -1e308, 1.7976931348623157e308]
    ),
    st.floats(-1.7976931348623157e308, 1.7976931348623157e308, allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
)


@st.composite
def games(draw, source=entries):
    return BimatrixGame(*[draw(source) for _ in range(8)])


@st.composite
def slow_lead_games(draw):
    """Games whose leads move by a tiny share of the weighted payoffs per
    stage: a common offset plus small integer multiples of ``step``. A
    lead then crosses zero through the tie window over a few stages or a
    few hundred, at the end of a run of unchanged actions."""
    offset = draw(st.sampled_from([1.0, -1.0, 37.5]))
    step = draw(st.sampled_from([1e-5, 1e-6, 1e-7, 1e-8]))
    return BimatrixGame(*[offset + step * draw(st.integers(-3, 3)) for _ in range(8)])


def near_tie_game(share):
    """Each player's second strategy pays ``share`` of the payoffs more."""
    return BimatrixGame(1.0, 1.0, 1 + share, 1 + share, 1.0, 1 + share, 1.0, 1 + share)


@st.composite
def histories(draw, max_count=50):
    """Observed counts (h_s1, h_s2, h_m1, h_m2): secondary's strategies, then the jammer's."""
    counts = st.integers(0, max_count)
    return tuple(draw(counts) for _ in range(4))


def running(trace):
    """Each player's running strategy-1 frequency after every stage of ``trace``."""
    ((_lo, p_star, q_star),) = trace.running_frequencies(len(trace))
    return p_star, q_star


def secondary_utilities(game, history):
    """The secondary's two rows weighted by the jammer's observed counts."""
    _, _, h_m1, h_m2 = history
    return game.a * h_m1 + game.b * h_m2, game.c * h_m1 + game.d * h_m2


def jammer_utilities(game, history):
    """The jammer's two columns weighted by the secondary's observed counts."""
    h_s1, h_s2, _, _ = history
    return game.e * h_s1 + game.g * h_s2, game.f * h_s1 + game.h * h_s2


def clear_of_ties(u1, u2):
    return abs(u1 - u2) > 1e-6 * max(1.0, abs(u1), abs(u2))


def coin(rng):
    return 1 if rng.random() < 0.5 else 2


class TestExpectedUtilities:
    def test_empty_history_all_zero(self):
        # nothing observed: every weighted utility is 0, so the first stage
        # is two fair coins on the run's generator, the secondary's first
        assert secondary_utilities(GAME_A, (0, 0, 0, 0)) == (0, 0)
        assert jammer_utilities(GAME_A, (0, 0, 0, 0)) == (0, 0)
        for seed in range(20):
            rng = random.Random(seed)
            trace = run_fp(GAME_A, 1, seed)
            assert (trace.actions_secondary[0], trace.actions_malicious[0]) == (coin(rng), coin(rng))

    def test_single_observed_rival_switch(self):
        u1, u2 = secondary_utilities(GAME_A, (0, 0, 1, 0))
        assert u1 == pytest.approx(35 / 3, abs=1e-9)
        assert u2 == pytest.approx(25.0, abs=1e-9)
        # so after a first-stage jammer switch the learner's secondary stays
        followed = 0
        for seed in range(40):
            trace = run_fp(GAME_A, 2, seed)
            if trace.actions_malicious[0] == 1:
                assert trace.actions_secondary[1] == 2
                followed += 1
        assert followed > 0

    def test_ten_observed_secondary_stays(self):
        u1, u2 = jammer_utilities(GAME_A, (0, 10, 0, 0))
        assert u1 == pytest.approx(-20.0, abs=1e-9)
        assert u2 == pytest.approx(375.0, abs=1e-9)
        # the simulator's learning jammer stays on the same counts
        # (per-move list: secondary switch, secondary stay, jammer switch, jammer stay)
        policies = (FictitiousPlayPolicy(), FictitiousPlayPolicy())
        plans = plan_policies(policies, (GAME_A, GAME_B), 100)
        for seed in range(10):
            counts = ([0, 10, 0, 0], [0, 0, 0, 0])
            _, switch_m = choose_actions(A, plans, counts, random.Random(seed))
            assert not switch_m


#: Utilities for the tie test: both signs, ±0, ±inf, nan, subnormals and
#: magnitudes near 1.0, where the window's floor gives way to |u|.
UTILITIES = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2e-308, 1e-9, -1e-9]),
    st.floats(),
    st.floats(-1e-300, 1e-300),
    st.floats(0.5, 2.0).flatmap(lambda x: st.sampled_from((x, -x))),
)


def window_edge(u1, side, steps):
    """The utility ``steps`` ulps past the tie window's edge on ``side``
    (-1 or 1) of ``u1``: outward for steps > 0, inward for steps < 0."""
    u2 = u1 + side * learning.TIE_REL_TOL * max(1.0, abs(u1))
    for _ in range(abs(steps)):
        u2 = math.nextafter(u2, side * steps * math.inf)
    return u2


@st.composite
def edge_pairs(draw):
    """A pair up to two ulps either side of the tie window's edge."""
    u1 = draw(st.one_of(
        st.floats(-2.0, 2.0), st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0, 1.0, -1.0])
    ))
    u2 = window_edge(u1, draw(st.sampled_from((-1, 1))), draw(st.integers(-2, 2)))
    return (u2, u1) if draw(st.booleans()) else (u1, u2)


def counted(calls):
    """A coin that records its calls and always picks strategy 1."""
    def rand():
        calls.append(1)
        return 0.25

    return rand


class TestBestResponse:
    @given(st.one_of(st.tuples(UTILITIES, UTILITIES), edge_pairs()))
    @example((0.0, 1e-9))  # a gap equal to the window still ties
    @example((5e-10, -0.0))  # inside the window only by its floor at 1.0
    @example((math.inf, 5.0))
    @example((math.inf, math.inf))
    @example((math.nan, 1.0))
    def test_agrees_with_the_abs_max_formula(self, pair):
        # the same index, and the coin flipped exactly on the formula's ties
        calls, formula_calls = [], []
        assert best_response(*pair, counted(calls)) == formula_best_response(*pair, counted(formula_calls))
        assert calls == formula_calls

    @pytest.mark.parametrize("u1", [0.0, -0.0, 0.75, -1.0, 1.0 + 2**-52, 3.5, -1e6, 1e300])
    def test_the_window_edge_is_found_to_the_ulp(self, u1):
        ties = set()
        for side in (-1, 1):
            for steps in range(-2, 3):
                calls, formula_calls = [], []
                u2 = window_edge(u1, side, steps)
                picked = formula_best_response(u1, u2, counted(formula_calls))
                assert best_response(u1, u2, counted(calls)) == picked
                assert calls == formula_calls
                ties.add(bool(calls))
        assert ties == {True, False}

    def test_clear_preference(self):
        rand = random.Random(0).random
        assert best_response(35 / 3, 25.0, rand) == 2
        assert best_response(25.0, 35 / 3, rand) == 1
        # just outside the relative window of 1e-9 * max(1, |u1|, |u2|)
        assert best_response(1e6, 1e6 - 2e-3, rand) == 1
        assert best_response(0.0, 2e-9, rand) == 2

    def test_exact_tie_is_a_fair_coin(self):
        rand = random.Random(123).random
        draws = [best_response(0.0, 0.0, rand) for _ in range(10_000)]
        assert abs(draws.count(1) / 10_000 - 0.5) <= 0.02

    def test_near_tie_within_relative_tolerance_is_random(self):
        # inside the window: rounding noise, a gap relative to the larger
        # magnitude, and a gap under the absolute floor of 1e-9
        for u1, u2 in ((5.0, 5.0 - 1e-15), (1e6, 1e6 - 5e-4), (0.0, 5e-10)):
            seen = {best_response(u1, u2, random.Random(seed).random) for seed in range(40)}
            assert seen == {1, 2}

    @given(games(), histories(), st.floats(0.01, 1000.0), st.integers(0, 10_000))
    @settings(max_examples=200)
    def test_scaling_one_players_payoffs_changes_nothing(self, game, history, factor, seed):
        ex = secondary_utilities(game, history)
        scaled_game = BimatrixGame(
            a=game.a * factor, b=game.b * factor, c=game.c * factor, d=game.d * factor,
            e=game.e, f=game.f, g=game.g, h=game.h,
        )
        scaled = secondary_utilities(scaled_game, history)
        # stay away from the tie boundary, where scaling may flip the coin
        assume(clear_of_ties(*ex))
        assume(clear_of_ties(*scaled))
        rand = random.Random(seed).random
        choice = best_response(*ex, rand)
        assert best_response(*scaled, rand) == choice

    @given(games(), histories())
    @settings(max_examples=200)
    def test_raw_counts_and_frequencies_agree(self, game, history):
        total = history[2] + history[3]
        assume(total > 0)
        ex = secondary_utilities(game, history)
        normalized = (ex[0] / total, ex[1] / total)
        assume(clear_of_ties(*ex))
        assume(clear_of_ties(*normalized))
        rand = random.Random(0).random
        assert best_response(*ex, rand) == best_response(*normalized, rand)


class TestFpStep:
    def test_first_step_from_empty_history(self):
        trace = run_fp(GAME_A, 1, seed=42)
        assert len(trace) == 1
        assert trace.actions_secondary[0] in (1, 2) and trace.actions_malicious[0] in (1, 2)
        p_star, q_star = trace.final_frequencies()
        assert p_star in (0.0, 1.0) and q_star in (0.0, 1.0)

    def test_near_equilibrium_history_is_an_exact_tie(self):
        # counts matching the equilibrium frequencies make both rows equal
        # (1300 vs 1300 up to rounding), so the tie rule applies and both
        # actions occur across seeds
        u1, u2 = secondary_utilities(GAME_A, (94, 6, 84, 16))
        assert abs(u1 - u2) <= 1e-9 * max(abs(u1), abs(u2))
        seen = {best_response(u1, u2, random.Random(seed).random) for seed in range(40)}
        assert seen == {1, 2}

    def test_deterministic_given_seed(self):
        # the tie above spends a coin; the same seed flips it the same way
        history = (94, 6, 84, 16)
        results = set()
        for _ in range(5):
            rand = random.Random(7).random
            results.add(
                (
                    best_response(*secondary_utilities(GAME_A, history), rand),
                    best_response(*jammer_utilities(GAME_A, history), rand),
                )
            )
        assert len(results) == 1

    def test_counters_grow_by_exactly_one_per_player(self):
        trace = run_fp(GAME_B, 300, seed=1)
        # strategy-1 count after each stage: whole, starting at 0 or 1, and
        # growing by 0 or 1 (the strategy-2 count takes the rest of each stage)
        stage = np.arange(1, len(trace) + 1)
        for frequencies in running(trace):
            counts = frequencies * stage
            first = np.rint(counts)
            assert np.allclose(counts, first, rtol=0, atol=1e-9)
            assert first[0] in (0, 1)
            assert np.isin(np.diff(first), (0, 1)).all()


class TestEmpiricalFrequencies:
    def test_direct_ratio(self):
        trace = FpTrace(np.array([1, 1, 2, 1], np.uint8), np.array([2, 1, 2, 2], np.uint8))
        assert trace.final_frequencies() == (0.75, 0.25)

    def test_equilibrium_counts(self):
        secondary = np.array([1] * 94 + [2] * 6, np.uint8)
        jammer = np.array([1] * 84 + [2] * 16, np.uint8)
        p_star, q_star = FpTrace(secondary, jammer).final_frequencies()
        assert p_star == pytest.approx(0.94, abs=1e-12)
        assert q_star == pytest.approx(0.84, abs=1e-12)

    @given(
        st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)), min_size=1, max_size=3000),
        st.integers(1, 4000),
    )
    @settings(max_examples=200, deadline=None)
    def test_counts_give_the_last_running_frequency_exactly(self, stages, count_slice):
        # the final counts, taken count_slice moves at a time, are those of one pass
        secondary, jammer = (np.array(column, np.uint8) for column in zip(*stages))
        trace = FpTrace(secondary, jammer)
        p_star, q_star = running(trace)
        with mock.patch.object(learning, "COUNT_SLICE", count_slice):
            assert trace.final_frequencies() == (float(p_star[-1]), float(q_star[-1]))

    @given(
        st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)), min_size=1, max_size=3000),
        st.integers(1, 4000),
    )
    @settings(max_examples=200, deadline=None)
    def test_slices_give_the_same_running_frequencies_as_one_pass(self, stages, size):
        secondary, jammer = (np.array(column, np.uint8) for column in zip(*stages))
        trace = FpTrace(secondary, jammer)
        slices = list(trace.running_frequencies(size))
        assert [lo for lo, _p, _q in slices] == list(range(0, len(stages), size))
        stage = np.arange(1, len(stages) + 1)
        for column, actions in ((1, secondary), (2, jammer)):
            joined = np.concatenate([part[column] for part in slices])
            assert np.array_equal(joined, np.cumsum(actions == 1) / stage)

    def test_empty_trace_has_empty_running_frequencies(self):
        empty = np.array([], np.uint8)
        trace = FpTrace(empty, empty)
        assert list(trace.running_frequencies(16)) == []

    def test_rejects_empty_side(self):
        empty = np.array([], np.uint8)
        with pytest.raises(ValueError):
            FpTrace(empty, empty).final_frequencies()
        with pytest.raises(ValueError):
            FpTrace(np.array([1, 2], np.uint8), np.array([1], np.uint8))


class TestRunFp:
    def test_reference_game_a_converges(self):
        p_star, q_star = run_fp(GAME_A, 20_000, seed=1).final_frequencies()
        assert abs(p_star - EQ_A.p) <= 0.03
        assert abs(q_star - EQ_A.q) <= 0.03

    def test_reference_game_b_converges(self):
        p_star, q_star = run_fp(GAME_B, 20_000, seed=1).final_frequencies()
        assert abs(p_star - EQ_B.p) <= 0.03
        assert abs(q_star - EQ_B.q) <= 0.03

    def test_dominant_strategies_lock_in_after_one_observation(self):
        for seed in range(8):
            trace = run_fp(DOMINANCE_GAME, 100, seed)
            assert (trace.actions_secondary[1:] == 1).all()
            assert (trace.actions_malicious[1:] == 1).all()
            p_star, q_star = trace.final_frequencies()
            assert p_star >= 99 / 100
            assert q_star >= 99 / 100

    def test_trace_length_and_counter_conservation(self):
        trace = run_fp(GAME_A, 257, seed=3)
        assert len(trace) == 257
        stage = np.arange(1, len(trace) + 1)
        p_star, q_star = running(trace)
        for frequencies, actions in (
            (p_star, trace.actions_secondary),
            (q_star, trace.actions_malicious),
        ):
            counts = frequencies * stage
            assert np.allclose(counts, np.rint(counts), rtol=0, atol=1e-9)
            assert np.array_equal(np.rint(counts), np.cumsum(actions == 1))
            last = frequencies[-1] * len(trace)
            assert last == pytest.approx(round(last), abs=1e-9)
        # entry 100 is the frequency after 101 stages
        ones = np.count_nonzero(trace.actions_secondary[:101] == 1)
        assert p_star[100] * 101 == pytest.approx(ones)

    def test_bitwise_deterministic(self):
        first = run_fp(GAME_B, 5_000, seed=11)
        second = run_fp(GAME_B, 5_000, seed=11)
        assert (first.actions_secondary == second.actions_secondary).all()
        assert (first.actions_malicious == second.actions_malicious).all()

    def test_matches_stepwise_execution(self):
        # long enough for hundreds of runs of unchanged actions per game
        for game in (GAME_A, GAME_B):
            for seed in (1, 9, 2024):
                trace = run_fp(game, 100_000, seed)
                actions_s, actions_m = fp_replay(game, 100_000, seed)
                assert trace.actions_secondary.tolist() == actions_s
                assert trace.actions_malicious.tolist() == actions_m

    @given(games(source=st.integers(-3, 3)), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_matches_stepwise_execution_on_tie_prone_games(self, game, seed):
        # small integer payoffs make exact ties, and so coin flips, common
        trace = run_fp(game, 200, seed)
        actions_s, actions_m = fp_replay(game, 200, seed)
        assert trace.actions_secondary.tolist() == actions_s
        assert trace.actions_malicious.tolist() == actions_m

    @given(games(source=st.integers(-3, 3)), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_matches_stepwise_execution_over_long_tie_prone_runs(self, game, seed):
        # long enough for the run screen to start, stop at ties and restart
        trace = run_fp(game, 3_000, seed)
        actions_s, actions_m = fp_replay(game, 3_000, seed)
        assert trace.actions_secondary.tolist() == actions_s
        assert trace.actions_malicious.tolist() == actions_m

    @given(games(source=extreme_entries), st.integers(0, 2**32))
    @example(BimatrixGame(*[1e308, -1e308] * 4), 1)  # nan utilities from the third stage
    @example(BimatrixGame(*[1.7976931348623157e308] * 8), 2)  # +inf on both sides
    @example(BimatrixGame(*[5e-324, -0.0, -5e-324, 0.0] * 2), 3)  # subnormal gaps
    @settings(max_examples=100, deadline=None)
    def test_matches_stepwise_execution_on_extreme_magnitudes(self, game, seed):
        trace = run_fp(game, 3_000, seed)
        actions_s, actions_m = fp_replay(game, 3_000, seed)
        assert trace.actions_secondary.tolist() == actions_s
        assert trace.actions_malicious.tolist() == actions_m

    @given(slow_lead_games(), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    @example(BimatrixGame(*[37.5 + 1e-5 * k for k in (1, -2, -3, 2, -2, 0, -1, -2)]), 98)
    @example(BimatrixGame(*[-1.0 + 1e-6 * k for k in (2, -3, -2, -3, -1, 0, 3, -2)]), 48)
    def test_matches_stepwise_execution_where_leads_cross_zero_slowly(self, game, seed):
        # a run's last stages lead by less than the margin, and the stages
        # after it tie or lead the other way
        trace = run_fp(game, 2_000, seed)
        actions_s, actions_m = fp_replay(game, 2_000, seed)
        assert trace.actions_secondary.tolist() == actions_s
        assert trace.actions_malicious.tolist() == actions_m

    def test_long_runs_skip_the_kernel(self, monkeypatch):
        # the reference game switches a few hundred times in 300,000
        # stages; a per-stage loop would make 600,000 kernel calls
        calls = 0
        kernel = learning.best_response

        def counted(u1, u2, rand):
            nonlocal calls
            calls += 1
            return kernel(u1, u2, rand)

        monkeypatch.setattr(learning, "best_response", counted)
        trace = run_fp(GAME_A, 300_000, 1)
        assert len(trace) == 300_000
        assert calls < 30_000

    @pytest.mark.parametrize(
        "game",
        [BimatrixGame(*[0.0] * 8), near_tie_game(1e-10), near_tie_game(1.5e-9)],
        ids=["all-zero", "tie-every-stage", "inside-the-margin"],
    )
    def test_lasting_near_ties_back_off(self, monkeypatch, game):
        # every stage a tie (a coin), or kept by the kernel but never by
        # the margin: a try that skips nothing doubles the wait for the next
        tries = []
        run_length = learning._run_length

        def counted(*args):
            tries.append(run_length(*args))
            return tries[-1]

        monkeypatch.setattr(learning, "_run_length", counted)
        run_fp(game, 100_000, 1)
        assert not any(tries)
        assert len(tries) <= math.log2(100_000)

    @pytest.mark.parametrize("category", [Category.A, Category.B], ids=["Category.A", "Category.B"])
    def test_overflowing_games_learn_like_their_scaled_copies(self, category):
        # counts times 1e308 overflow; the same game scaled by 2**-1000 does not
        game = build_game(HUGE, category)
        small = BimatrixGame(*(math.ldexp(getattr(game, x), -1000) for x in "abcdefgh"))
        for seed in (1, 2, 3):
            trace, twin = run_fp(game, 2_000, seed), run_fp(small, 2_000, seed)
            assert np.array_equal(trace.actions_secondary, twin.actions_secondary)
            assert np.array_equal(trace.actions_malicious, twin.actions_malicious)

    def test_overflowing_games_converge_through_the_cli(self, tmp_path, capsys):
        argv = ["fp", "--iterations", "2000", "--gain-malicious", "1e308",
                "--loss-secondary", "1e308", "--gain-secondary", "1e308"]
        assert main(argv + ["--out", str(tmp_path / "fp.csv")]) == 0
        line = capsys.readouterr().out
        values = dict(re.findall(r"(p\*?|q\*?)=([0-9.e+-]+)", line))
        assert float(values["p"]) == pytest.approx(0.9) and float(values["q"]) == pytest.approx(0.9)
        assert abs(float(values["p*"]) - 0.9) <= 0.03
        assert abs(float(values["q*"]) - 0.9) <= 0.03

    def test_only_games_that_could_overflow_are_scaled_by_a_power_of_two(self):
        assert learning.fit_to_counts(GAME_A, 10**12) is GAME_A
        big = BimatrixGame(*[1e300] * 8)
        assert learning.fit_to_counts(big, 2**20) is big  # 1e300 * 2**20 < 2**1020
        scaled = learning.fit_to_counts(big, 2**40)
        factor = scaled.a / big.a
        assert math.frexp(factor)[0] == 0.5  # a power of two
        assert all(getattr(scaled, x) == getattr(big, x) * factor for x in "abcdefgh")
        assert scaled.a * 2**40 <= 2.0**1020

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_fp(GAME_A, 0, seed=1)
        with pytest.raises(ValueError):
            run_fp(GAME_A, -5, seed=1)


class TestRunLength:
    @given(
        st.one_of(games(), slow_lead_games(), games(source=extreme_entries)),
        st.one_of(histories(), histories(max_count=10**6)),
        st.integers(1, 2_000),
        st.integers(0, 2**32),
    )
    @example(BimatrixGame(*[37.5 + 1e-5 * k for k in (1, -2, -3, 2, -2, 0, -1, -2)]), (7, 3, 2, 9), 500, 0)
    @settings(max_examples=300, deadline=None)
    def test_every_stage_below_the_count_keeps_both_actions_without_a_coin(self, game, counts, cap, seed):
        # the actions to keep are the kernel's at the counts (a tie takes a coin)
        weights = learning.fit_to_counts(game, sum(counts) + cap)
        a, b, c, d, e, f, g, h = weights
        hs1, hs2, hm1, hm2 = counts
        rand = random.Random(seed).random
        s = best_response(a * hm1 + b * hm2, c * hm1 + d * hm2, rand)
        m = best_response(e * hs1 + g * hs2, f * hs1 + h * hs2, rand)
        n = learning._run_length(weights, s, m, counts, cap)
        assert 0 <= n <= cap

        def coin():
            raise AssertionError("a stage below the count is a tie")

        for j in range(n):  # stage j follows j more stages of (s, m)
            w1, w2 = (hm1 + j, hm2) if m == 1 else (hm1, hm2 + j)
            v1, v2 = (hs1 + j, hs2) if s == 1 else (hs1, hs2 + j)
            assert best_response(a * w1 + b * w2, c * w1 + d * w2, coin) == s
            assert best_response(e * v1 + g * v2, f * v1 + h * v2, coin) == m


class TestConvergenceError:
    def test_self_reference_gives_zero_final_error(self):
        trace = run_fp(GAME_A, 500, seed=4)
        p_final, q_final = trace.final_frequencies()
        p_star, q_star = running(trace)
        assert np.abs(p_star - p_final)[-1] == 0.0
        assert np.abs(q_star - q_final)[-1] == 0.0

    def test_error_shrinks_between_early_and_late_iterations(self):
        # light check here; the 50-seed statistical version runs in the
        # acceptance suite
        improved = 0
        for seed in range(10):
            trace = run_fp(GAME_A, 20_000, seed)
            p_star, q_star = running(trace)
            err_p = np.abs(p_star - EQ_A.p)
            err_q = np.abs(q_star - EQ_A.q)
            early = max(err_p[99], err_q[99])
            late = max(err_p[-1], err_q[-1])
            improved += late < early
        assert improved >= 9
