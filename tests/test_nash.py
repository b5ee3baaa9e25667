import itertools
import math
import operator
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crn_jamgame import Category, NetworkConfig, build_game, mixed_equilibrium, nash, verify_equilibrium
from crn_jamgame.games import BimatrixGame
from crn_jamgame.nash import EquilibriumReport, pure_equilibria, strategy_utilities
from oracles import (
    brute_force_pure_equilibria,
    col_payoff,
    deviation_gains,
    exact_equilibrium,
    grid_equilibria,
    row_payoff,
)

GAME_A = build_game(NetworkConfig(), Category.A)
GAME_B = build_game(NetworkConfig(), Category.B)
ZERO_GAME = BimatrixGame(a=0, b=0, c=0, d=0, e=0, f=0, g=0, h=0)
# row strategy 1 and column strategy 1 strictly dominant
DOMINANCE_GAME = BimatrixGame(a=1, b=1, c=0, d=0, e=1, f=0, g=1, h=0)
# every field at the bound 2**1020: category A's a reaches -2**1021 and
# a - c + d - b reaches -2**1022, a finite sum
BOUND_CONFIG = NetworkConfig(2, 0, *[2.0**1020] * 5)
BOUND_GAME = build_game(BOUND_CONFIG, Category.A)
# every entry at +-2**1021, with the signs that make both indifference sums +-2**1023
WORST_SIGN_GAME = BimatrixGame(*[2.0**1021, -(2.0**1021), -(2.0**1021), 2.0**1021] * 2)
# q = (d - b) / (a - c + d - b) is exactly 0: an equilibrium on the boundary
BOUNDARY_GAME = BimatrixGame(a=1, b=0, c=0, d=0, e=1, f=0, g=0, h=1)

entries = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
unit_entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def games(draw, source=entries):
    values = [draw(source) for _ in range(8)]
    return BimatrixGame(*values)


@st.composite
def _apart(draw, higher_first):
    """Two entries in [-100, 100], at least 1e-6 apart, the higher first if asked."""
    gap = draw(st.floats(1e-6, 200.0))
    low = draw(st.floats(-100.0, 100.0 - gap))
    return (low + gap, low) if higher_first else (low, low + gap)


@st.composite
def mixed_games(draw):
    """Games with an interior mixed equilibrium by construction.

    a - c and d - b are nonzero with one sign, and so are e - f and h - g,
    which puts q = (d - b) / (a - c + d - b) and p = (h - g) / (e - f + h - g)
    strictly inside (0, 1).
    """
    row_up = draw(st.booleans())
    col_up = draw(st.booleans())
    a, c = draw(_apart(row_up))
    d, b = draw(_apart(row_up))
    e, f = draw(_apart(col_up))
    h, g = draw(_apart(col_up))
    return BimatrixGame(a=a, b=b, c=c, d=d, e=e, f=f, g=g, h=h)


class TestStrategyUtilities:
    def test_indifference_at_the_reference_equilibrium(self):
        report = mixed_equilibrium(GAME_A)
        u_s1, u_s2, u_m1, u_m2 = strategy_utilities(GAME_A, report.p, report.q)
        assert u_s1 == pytest.approx(13.0, abs=1e-9)
        assert u_s2 == pytest.approx(13.0, abs=1e-9)
        assert u_m1 == pytest.approx(1.95, abs=1e-9)
        assert u_m2 == pytest.approx(1.95, abs=1e-9)

    def test_degenerate_mixture_selects_column_one(self):
        u_s1, u_s2, _, _ = strategy_utilities(GAME_A, 0.3, 1.0)
        assert u_s1 == GAME_A.a
        assert u_s2 == GAME_A.c

    def test_zero_game_zero_utilities(self):
        assert strategy_utilities(ZERO_GAME, 0.42, 0.9) == (0, 0, 0, 0)



class TestMixedEquilibrium:
    def test_reference_category_a(self):
        report = mixed_equilibrium(GAME_A)
        assert report.p == pytest.approx(0.948, abs=0.005)
        assert report.q == pytest.approx(0.84, abs=0.005)
        assert pure_equilibria(GAME_A) == ()
        assert not report.degenerate
        u_s1, u_s2, u_m1, u_m2 = strategy_utilities(GAME_A, report.p, report.q)
        assert max(abs(u_s1 - u_s2), abs(u_m1 - u_m2)) <= 1e-9

    def test_reference_category_b(self):
        report = mixed_equilibrium(GAME_B)
        assert not report.degenerate
        assert report.p == pytest.approx(0.852, abs=0.005)
        assert report.q == pytest.approx(0.849, abs=0.005)
        assert pure_equilibria(GAME_B) == ()

    def test_strict_dominance_reports_pure_only(self):
        report = mixed_equilibrium(DOMINANCE_GAME)
        assert report.degenerate
        assert math.isnan(report.p) and math.isnan(report.q)
        assert pure_equilibria(DOMINANCE_GAME) == ((1, 1),)

    def test_zero_game_degenerate_with_all_pure_profiles(self):
        report = mixed_equilibrium(ZERO_GAME)
        assert report.degenerate
        assert math.isnan(report.p) and math.isnan(report.q)
        assert pure_equilibria(ZERO_GAME) == ((1, 1), (1, 2), (2, 1), (2, 2))

    def test_out_of_range_candidate_is_degenerate(self):
        # row indifference would need q = (d-b)/(a-c+d-b) = 2/1 -> outside [0,1]
        game = BimatrixGame(a=0, b=0, c=1, d=2, e=0, f=0, g=1, h=0)
        report = mixed_equilibrium(game)
        assert report.degenerate
        assert math.isnan(report.p) and math.isnan(report.q)
        assert (2, 1) in pure_equilibria(game)

    @pytest.mark.parametrize(
        "game",
        [GAME_A, DOMINANCE_GAME, ZERO_GAME, BOUND_GAME, WORST_SIGN_GAME, BOUNDARY_GAME],
        ids=["mixed", "pure", "zero", "fields-at-the-bound", "entries-at-the-bound", "boundary"],
    )
    def test_the_report_is_exactly_an_equilibrium_report(self, game):
        # degenerate, interior, at the payoff bounds, and on the boundary
        report = mixed_equilibrium(game)
        assert type(report) is EquilibriumReport
        # repr, as nan != nan: the same values as the generated constructor gives
        assert repr(report) == repr(EquilibriumReport(*report))
        assert type(report.degenerate) is bool and type(pure_equilibria(game)) is tuple
        assert EquilibriumReport._fields == ("p", "q", "degenerate")

    def test_tiny_payoffs_without_a_pure_equilibrium_keep_the_mixed_one(self):
        # the secondary's denominator is -5.5e-229, but with no pure
        # equilibrium its sum cannot cancel and the mixed one is the answer
        tiny = 2.767731065784308e-229
        game = BimatrixGame(a=0.0, b=tiny, c=tiny, d=0.0, e=1.0, f=0.0, g=-1.0, h=0.0)
        report = mixed_equilibrium(game)
        assert pure_equilibria(game) == ()
        assert (report.p, report.q) == (0.5, 0.5)
        assert not report.degenerate

    @given(games(st.sampled_from([-1.0, 0.0, 1e-13, 1.0])))
    @settings(max_examples=200)
    def test_the_solver_never_enumerates_the_pure_set(self, game):
        with (
            mock.patch.object(nash, "pure_equilibria", wraps=pure_equilibria) as pure,
            mock.patch.object(nash, "strategy_utilities", wraps=strategy_utilities) as utilities,
        ):
            mixed_equilibrium(game)
        assert pure.call_count == 0
        assert utilities.call_count == 0

    @given(games(st.integers(-100, 100).map(float)), st.integers(-900, 900))
    @settings(max_examples=300)
    # the coordination game at 2**-44, whose denominators are 3 * 2**-44, about 1.7e-13
    @example(BimatrixGame(2.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 2.0), -44)
    def test_the_report_does_not_depend_on_the_payoff_scale(self, game, k):
        # a power of two scales every difference and sum of these entries
        # exactly, so each sign and each quotient is the same
        scaled = BimatrixGame(*(x * 2.0**k for x in game))
        report, other = mixed_equilibrium(game), mixed_equilibrium(scaled)
        assert (repr(other.p), repr(other.q)) == (repr(report.p), repr(report.q))
        assert other.degenerate is report.degenerate

    @pytest.mark.parametrize("jammer_sign", [1, -1], ids=["coordination", "pennies"])
    def test_the_largest_indifference_sums_keep_the_mixed_equilibrium(self, jammer_sign):
        # entries at +-2**1021 whose indifference sums are +-2**1023, the
        # largest the bound allows, and finite: (0.5, 0.5) with or without a pure equilibrium
        top = 2.0**1021
        game = BimatrixGame(top, -top, -top, top, *(jammer_sign * x for x in (top, -top, -top, top)))
        a, b, c, d, e, f, g, h = game
        assert abs(a - c + (d - b)) == abs(e - f + (h - g)) == 2.0**1023
        assert mixed_equilibrium(game) == (0.5, 0.5, False)


class TestVerifyEquilibrium:
    def test_reference_equilibrium_verifies(self):
        assert verify_equilibrium(GAME_A, 0.948, 0.84, 1e-6) is True
        assert max(deviation_gains(GAME_A, 0.948, 0.84)) <= 1e-6

    def test_corner_profile_fails_with_positive_gain(self):
        assert verify_equilibrium(GAME_A, 0.0, 0.0, 1e-6) is False
        assert max(deviation_gains(GAME_A, 0.0, 0.0)) > 1e-6

    def test_zero_game_passes_at_zero_tolerance(self):
        assert verify_equilibrium(ZERO_GAME, 0.77, 0.13, 0.0) is True

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            verify_equilibrium(GAME_A, 0.5, 0.5, -1.0)

    def test_profile_bounds_enforced(self):
        with pytest.raises(ValueError, match="p must lie"):
            verify_equilibrium(GAME_A, 1.5, 0.5)
        with pytest.raises(ValueError, match="q must lie"):
            verify_equilibrium(GAME_A, 0.5, -0.1)
        with pytest.raises(ValueError, match="p must lie"):
            verify_equilibrium(GAME_A, float("nan"), 0.5)


class TestSolverProperties:
    @given(mixed_games())
    @settings(max_examples=300)
    def test_mixed_results_are_indifferent(self, game):
        report = mixed_equilibrium(game)
        assert not report.degenerate
        u_s1, u_s2, u_m1, u_m2 = strategy_utilities(game, report.p, report.q)
        assert max(abs(u_s1 - u_s2), abs(u_m1 - u_m2)) <= 1e-9

    @given(games())
    @settings(max_examples=300)
    def test_everything_returned_verifies(self, game):
        report = mixed_equilibrium(game)
        if not report.degenerate:
            assert verify_equilibrium(game, report.p, report.q, 1e-9)
        for row, col in pure_equilibria(game):  # strategy 1 with probability 1 or 0
            assert verify_equilibrium(game, 2.0 - row, 2.0 - col, 1e-9)

    @given(games())
    @settings(max_examples=300)
    def test_nan_exactly_when_degenerate(self, game):
        report = mixed_equilibrium(game)
        u_s1, u_s2, u_m1, u_m2 = strategy_utilities(game, report.p, report.q)
        values = (report.p, report.q, abs(u_s1 - u_s2), abs(u_m1 - u_m2))
        assert [math.isnan(x) for x in values] == [report.degenerate] * 4

    @given(games(source=unit_entries))
    @settings(max_examples=60, deadline=None)
    def test_grid_oracle_agreement(self, game):
        """Full brute-force sweep agrees with the solver, both directions.

        Unit-scale payoffs keep the oracle decisive: at any grid point
        whose coordinates round the true equilibrium, each deviation gain
        is at most (step/2) * sum(|entries|) <= 2e-3, well under the 1e-2
        acceptance threshold.
        """
        report = mixed_equilibrium(game)
        grid_p, grid_q = grid_equilibria(game)
        if not report.degenerate:
            p, q = report.p, report.q
            near = (abs(grid_p - p) <= 1e-3 + 1e-12) & (abs(grid_q - q) <= 1e-3 + 1e-12)
            assert near.any()
        pure_set = pure_equilibria(game)
        for pure in pure_set:
            row, col = pure
            p = 1.0 if row == 1 else 0.0
            q = 1.0 if col == 1 else 0.0
            assert ((grid_p == p) & (grid_q == q)).any()
        if len(grid_p) > 0:
            assert not report.degenerate or pure_set

    @given(mixed_games(), st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=300)
    def test_translation_invariance(self, game, shift):
        report = mixed_equilibrium(game)
        assert not report.degenerate
        # keep clear of near-degenerate denominators where rounding dominates
        assume(abs(game.a - game.c + game.d - game.b) > 0.05)
        assume(abs(game.e - game.f + game.h - game.g) > 0.05)
        shifted_rows = BimatrixGame(
            a=game.a + shift, b=game.b + shift, c=game.c + shift, d=game.d + shift,
            e=game.e, f=game.f, g=game.g, h=game.h,
        )
        shifted_cols = BimatrixGame(
            a=game.a, b=game.b, c=game.c, d=game.d,
            e=game.e + shift, f=game.f + shift, g=game.g + shift, h=game.h + shift,
        )
        for shifted in (shifted_rows, shifted_cols):
            other = mixed_equilibrium(shifted)
            assume(not other.degenerate)
            assert abs(other.p - report.p) <= 1e-12
            assert abs(other.q - report.q) <= 1e-12

    @given(games())
    @settings(max_examples=300)
    def test_pure_profiles_have_no_profitable_deviation(self, game):
        for row, col in pure_equilibria(game):
            assert row_payoff(game, row, col) >= row_payoff(game, 3 - row, col)
            assert col_payoff(game, row, col) >= col_payoff(game, row, 3 - col)


def payoff_entries(game):
    return (game.a, game.b, game.c, game.d, game.e, game.f, game.g, game.h)


@st.composite
def built_games(draw):
    """Category games of drawn configs; round values and zero costs make ties."""
    n_bands = draw(st.integers(2, 12))
    value = st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, 5.0, 50.0]),
        st.floats(0.0, 1000.0, allow_nan=False, allow_infinity=False, allow_subnormal=False),
    )
    config = NetworkConfig(n_bands, draw(st.integers(0, n_bands)), *(draw(value) for _ in range(5)))
    return build_game(config, draw(st.sampled_from([Category.A, Category.B])))


class TestPureEquilibriaCompleteness:
    """``pure_equilibria`` returns exactly the brute-force set, in order."""

    @given(games(st.sampled_from([-1.0, 0.0, 1.0])))
    @settings(max_examples=500)
    def test_tied_games(self, game):
        assert pure_equilibria(game) == brute_force_pure_equilibria(payoff_entries(game))

    @given(built_games())
    @settings(max_examples=300)
    def test_built_games(self, game):
        assert pure_equilibria(game) == brute_force_pure_equilibria(payoff_entries(game))

    def test_every_set_of_stable_profiles(self):
        # pure_equilibria keeps the profiles whose stability test holds;
        # the 3**8 games over {-1, 0, 1} reach each of the 16 sets of them
        profiles = ((1, 1), (1, 2), (2, 1), (2, 2))
        masks = set()
        for entries in itertools.product((-1.0, 0.0, 1.0), repeat=8):
            expected = brute_force_pure_equilibria(entries)
            assert pure_equilibria(BimatrixGame(*entries)) == expected
            masks.add(sum(1 << profiles.index(profile) for profile in expected))
        assert masks == set(range(16))



def wide_magnitudes(top):
    """Magnitudes log-uniform from 1e-300 up to ``top``, and ``top`` itself."""
    return st.one_of(
        st.floats(-300.0, math.log10(top)).map(lambda x: min(10.0**x, top)),
        st.sampled_from([1.0, 1e307, top]),
    )


#: Entries over the whole range a BimatrixGame accepts, [-2**1021, 2**1021].
wide_entries = st.one_of(st.just(0.0), wide_magnitudes(2.0**1021), wide_magnitudes(2.0**1021).map(operator.neg))
#: Below this an exact probability is not a normal float; it is checked to the absolute value.
SMALLEST_NORMAL = Fraction(2.0**-1022)


@st.composite
def wide_built_games(draw):
    """Games of configs over the whole range ``NetworkConfig`` accepts."""
    n_bands = draw(st.integers(2, 300))
    values = (draw(st.one_of(st.just(0.0), wide_magnitudes(2.0**1020))) for _ in range(5))
    config = NetworkConfig(n_bands, draw(st.integers(0, n_bands)), *values)
    return build_game(config, draw(st.sampled_from([Category.A, Category.B])))


def bound_config_games(gain_secondary):
    """Both games of a config whose cost and loss are at the bound 2**1020."""
    config = NetworkConfig(
        n_bands=2, n_primary=0, cost_secondary_switch=2.0**1020, cost_malicious_switch=0.0,
        gain_secondary=gain_secondary, gain_malicious=1.0, loss_secondary=2.0**1020,
    )
    return [build_game(config, category) for category in (Category.A, Category.B)]


class TestExactOracle:
    """Every report against ``fractions.Fraction``: a non-degenerate one
    is the exact (p, q) to a relative 1e-12, or to 2**-1022 where that
    lies below the normal range, and a game with no pure equilibrium is
    never degenerate."""

    @staticmethod
    def check(game):
        report = mixed_equilibrium(game)
        if not brute_force_pure_equilibria(payoff_entries(game)):
            assert not report.degenerate
        if report.degenerate:
            return
        for got, exact in zip((report.p, report.q), exact_equilibrium(payoff_entries(game))):
            assert exact is not None
            error = abs(Fraction(got) - exact)
            assert error <= abs(exact) / 10**12 or (abs(exact) < SMALLEST_NORMAL and error <= SMALLEST_NORMAL)

    @given(games(wide_entries))
    @settings(max_examples=500)
    # the secondary's entry a at -2**1021, its sums near -2**1022
    @example(bound_config_games(0.0)[0])
    @example(bound_config_games(2.0**1020)[1])
    # every entry at +-2**1021 with the worst signs: both indifference sums are +-2**1023
    @example(WORST_SIGN_GAME)
    @example(BimatrixGame(*WORST_SIGN_GAME[:4], *(-x for x in WORST_SIGN_GAME[4:])))  # no pure equilibrium
    # the jammer's sums near the bound, and neither game has a pure equilibrium
    @example(BimatrixGame(0.0, 1.0, 1.0, 0.0, 2.0**1021, -(2.0**1021), -(2.0**1021), 1e307))
    # d and b close and large beside a - c: ((a - c) + d) - b would round a - c away
    @example(BimatrixGame(200.0, 2.0**60 - 256, 0.0, 2.0**60, 1.0, 0.0, 0.0, 1.0))
    def test_games_of_every_magnitude(self, game):
        self.check(game)

    @given(wide_built_games())
    @settings(max_examples=300)
    def test_games_of_every_accepted_config(self, game):
        self.check(game)
