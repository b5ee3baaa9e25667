import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crn_jamgame import Category, NetworkConfig, build_game, mixed_equilibrium, verify_equilibrium
from crn_jamgame.games import BimatrixGame
from crn_jamgame.nash import pure_equilibria, strategy_utilities
from oracles import (
    brute_force_pure_equilibria,
    col_payoff,
    deviation_gains,
    grid_equilibria,
    row_payoff,
)

GAME_A = build_game(NetworkConfig(), Category.A)
GAME_B = build_game(NetworkConfig(), Category.B)
ZERO_GAME = BimatrixGame(a=0, b=0, c=0, d=0, e=0, f=0, g=0, h=0)
# row strategy 1 and column strategy 1 strictly dominant
DOMINANCE_GAME = BimatrixGame(a=1, b=1, c=0, d=0, e=1, f=0, g=1, h=0)

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
        assert report.pure == ()
        assert not report.degenerate
        assert max(report.residual_secondary, report.residual_malicious) <= 1e-9

    def test_reference_category_b(self):
        report = mixed_equilibrium(GAME_B)
        assert not report.degenerate
        assert report.p == pytest.approx(0.852, abs=0.005)
        assert report.q == pytest.approx(0.849, abs=0.005)
        assert report.pure == ()

    def test_strict_dominance_reports_pure_only(self):
        report = mixed_equilibrium(DOMINANCE_GAME)
        assert report.degenerate
        assert math.isnan(report.p) and math.isnan(report.q)
        assert report.pure == ((1, 1),)

    def test_zero_game_degenerate_with_all_pure_profiles(self):
        report = mixed_equilibrium(ZERO_GAME)
        assert report.degenerate
        assert math.isnan(report.p) and math.isnan(report.q)
        assert report.pure == ((1, 1), (1, 2), (2, 1), (2, 2))

    def test_out_of_range_candidate_is_degenerate(self):
        # row indifference would need q = (d-b)/(a-c+d-b) = 2/1 -> outside [0,1]
        game = BimatrixGame(a=0, b=0, c=1, d=2, e=0, f=0, g=1, h=0)
        report = mixed_equilibrium(game)
        assert report.degenerate
        assert math.isnan(report.p) and math.isnan(report.q)
        assert (2, 1) in report.pure

    def test_tiny_payoffs_without_a_pure_equilibrium_keep_the_mixed_one(self):
        # the secondary's denominator is -5.5e-229, under the absolute
        # tolerance, but with no pure equilibrium the mixed one is the answer
        tiny = 2.767731065784308e-229
        game = BimatrixGame(a=0.0, b=tiny, c=tiny, d=0.0, e=1.0, f=0.0, g=-1.0, h=0.0)
        report = mixed_equilibrium(game)
        assert report.pure == ()
        assert (report.p, report.q) == (0.5, 0.5)
        assert not report.degenerate


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
        residuals = (report.residual_secondary, report.residual_malicious)
        assert max(residuals) <= 1e-9
        # bit for bit the differences of strategy_utilities at the profile
        u_s1, u_s2, u_m1, u_m2 = strategy_utilities(game, report.p, report.q)
        assert residuals == (abs(u_s1 - u_s2), abs(u_m1 - u_m2))

    @given(games())
    @settings(max_examples=300)
    def test_everything_returned_verifies(self, game):
        report = mixed_equilibrium(game)
        if not report.degenerate:
            assert verify_equilibrium(game, report.p, report.q, 1e-9)
        for row, col in report.pure:  # strategy 1 with probability 1 or 0
            assert verify_equilibrium(game, 2.0 - row, 2.0 - col, 1e-9)

    @given(games())
    @settings(max_examples=300)
    def test_nan_exactly_when_degenerate(self, game):
        report = mixed_equilibrium(game)
        values = (report.p, report.q, report.residual_secondary, report.residual_malicious)
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
        for pure in report.pure:
            row, col = pure
            p = 1.0 if row == 1 else 0.0
            q = 1.0 if col == 1 else 0.0
            assert ((grid_p == p) & (grid_q == q)).any()
        if len(grid_p) > 0:
            assert not report.degenerate or report.pure

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
