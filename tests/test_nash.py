import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crn_jamgame import Category, NetworkConfig, build_game, mixed_equilibrium, verify_equilibrium
from crn_jamgame.games import BimatrixGame
from crn_jamgame.nash import MixedProfile, profile_from_pure, pure_equilibria, strategy_utilities
from oracles import deviation_gains, grid_equilibria

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
        profile = mixed_equilibrium(GAME_A).mixed
        u_s1, u_s2, u_m1, u_m2 = strategy_utilities(GAME_A, profile)
        assert u_s1 == pytest.approx(13.0, abs=1e-9)
        assert u_s2 == pytest.approx(13.0, abs=1e-9)
        assert u_m1 == pytest.approx(1.95, abs=1e-9)
        assert u_m2 == pytest.approx(1.95, abs=1e-9)

    def test_degenerate_mixture_selects_column_one(self):
        u_s1, u_s2, _, _ = strategy_utilities(GAME_A, MixedProfile(0.3, 1.0))
        assert u_s1 == GAME_A.a
        assert u_s2 == GAME_A.c

    def test_zero_game_zero_utilities(self):
        assert strategy_utilities(ZERO_GAME, MixedProfile(0.42, 0.9)) == (0, 0, 0, 0)

    def test_profile_bounds_enforced(self):
        with pytest.raises(ValueError, match="p_secondary_first"):
            MixedProfile(1.5, 0.5)
        with pytest.raises(ValueError, match="q_malicious_first"):
            MixedProfile(0.5, -0.1)


class TestMixedEquilibrium:
    def test_reference_category_a(self):
        report = mixed_equilibrium(GAME_A)
        assert report.mixed is not None
        assert report.mixed.p_secondary_first == pytest.approx(0.948, abs=0.005)
        assert report.mixed.q_malicious_first == pytest.approx(0.84, abs=0.005)
        assert report.pure == ()
        assert not report.degenerate
        assert max(report.indifference_residuals) <= 1e-9

    def test_reference_category_b(self):
        report = mixed_equilibrium(GAME_B)
        assert report.mixed is not None
        assert report.mixed.p_secondary_first == pytest.approx(0.852, abs=0.005)
        assert report.mixed.q_malicious_first == pytest.approx(0.849, abs=0.005)
        assert report.pure == ()

    def test_strict_dominance_reports_pure_only(self):
        report = mixed_equilibrium(DOMINANCE_GAME)
        assert report.degenerate
        assert report.mixed is None
        assert report.pure == ((1, 1),)

    def test_zero_game_degenerate_with_all_pure_profiles(self):
        report = mixed_equilibrium(ZERO_GAME)
        assert report.degenerate
        assert report.mixed is None
        assert report.pure == ((1, 1), (1, 2), (2, 1), (2, 2))

    def test_out_of_range_candidate_is_degenerate(self):
        # row indifference would need q = (d-b)/(a-c+d-b) = 2/1 -> outside [0,1]
        game = BimatrixGame(a=0, b=0, c=1, d=2, e=0, f=0, g=1, h=0)
        report = mixed_equilibrium(game)
        assert report.degenerate
        assert report.mixed is None
        assert (2, 1) in report.pure


class TestVerifyEquilibrium:
    def test_reference_equilibrium_verifies(self):
        assert verify_equilibrium(GAME_A, MixedProfile(0.948, 0.84), 1e-6) is True
        assert max(deviation_gains(GAME_A, 0.948, 0.84)) <= 1e-6

    def test_corner_profile_fails_with_positive_gain(self):
        assert verify_equilibrium(GAME_A, MixedProfile(0.0, 0.0), 1e-6) is False
        assert max(deviation_gains(GAME_A, 0.0, 0.0)) > 1e-6

    def test_zero_game_passes_at_zero_tolerance(self):
        assert verify_equilibrium(ZERO_GAME, MixedProfile(0.77, 0.13), 0.0) is True

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            verify_equilibrium(GAME_A, MixedProfile(0.5, 0.5), -1.0)


class TestSolverProperties:
    @given(mixed_games())
    @settings(max_examples=300)
    def test_mixed_results_are_indifferent(self, game):
        report = mixed_equilibrium(game)
        assert report.mixed is not None
        assert max(report.indifference_residuals) <= 1e-9

    @given(games())
    @settings(max_examples=300)
    def test_everything_returned_verifies(self, game):
        report = mixed_equilibrium(game)
        if report.mixed is not None:
            assert verify_equilibrium(game, report.mixed, 1e-9)
        for pure in report.pure:
            assert verify_equilibrium(game, profile_from_pure(pure), 1e-9)

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
        if report.mixed is not None:
            p = report.mixed.p_secondary_first
            q = report.mixed.q_malicious_first
            near = (abs(grid_p - p) <= 1e-3 + 1e-12) & (abs(grid_q - q) <= 1e-3 + 1e-12)
            assert near.any()
        for pure in report.pure:
            row, col = pure
            p = 1.0 if row == 1 else 0.0
            q = 1.0 if col == 1 else 0.0
            assert ((grid_p == p) & (grid_q == q)).any()
        if len(grid_p) > 0:
            assert report.mixed is not None or report.pure

    @given(mixed_games(), st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=300)
    def test_translation_invariance(self, game, shift):
        report = mixed_equilibrium(game)
        assert report.mixed is not None
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
            assume(other.mixed is not None)
            assert abs(other.mixed.p_secondary_first - report.mixed.p_secondary_first) <= 1e-12
            assert abs(other.mixed.q_malicious_first - report.mixed.q_malicious_first) <= 1e-12

    @given(games())
    @settings(max_examples=300)
    def test_pure_profiles_have_no_profitable_deviation(self, game):
        for row, col in pure_equilibria(game):
            assert game.row_payoff(row, col) >= game.row_payoff(3 - row, col)
            assert game.col_payoff(row, col) >= game.col_payoff(row, 3 - col)
