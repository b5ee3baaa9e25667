"""Mixed and pure Nash equilibria of 2x2 bimatrix games.

The interior mixed equilibrium comes from the indifference construction:
pick q so the row player is indifferent between its rows, and p so the
column player is indifferent between its columns. Degenerate games (zero
indifference denominators, or probabilities falling outside [0, 1]) are
flagged and reported through exhaustive pure-profile enumeration instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .games import BimatrixGame

__all__ = [
    "MixedProfile",
    "EquilibriumReport",
    "strategy_utilities",
    "pure_equilibria",
    "mixed_equilibrium",
    "verify_equilibrium",
    "profile_from_pure",
]

#: |a - c + d - b| below this counts as a vanishing indifference denominator.
DEGENERATE_DENOMINATOR_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class MixedProfile:
    """Strategy-1 probabilities: p for the secondary (row), q for the jammer."""

    p_secondary_first: float
    q_malicious_first: float

    def __post_init__(self) -> None:
        for name in ("p_secondary_first", "q_malicious_first"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1] (got {value!r})")


@dataclass(frozen=True, slots=True)
class EquilibriumReport:
    """Mixed equilibrium (when the indifference construction lands inside
    [0, 1]) plus all pure equilibria; ``degenerate`` marks games where the
    interior construction failed.

    ``pure`` holds (row, col) strategy pairs with 1-based indices.
    ``indifference_residuals`` is (|u_s1 - u_s2|, |u_m1 - u_m2|) evaluated
    at the mixed profile, or ``None`` when there is no mixed profile.
    """

    mixed: MixedProfile | None
    pure: tuple[tuple[int, int], ...]
    indifference_residuals: tuple[float, float] | None
    degenerate: bool


def strategy_utilities(
    game: BimatrixGame, profile: MixedProfile
) -> tuple[float, float, float, float]:
    """Each pure strategy's expected payoff at the profile.

    Returns ``(u_s1, u_s2, u_m1, u_m2)``: the secondary's two rows against
    the jammer's mixture, then the jammer's two columns against the
    secondary's.
    """
    p = profile.p_secondary_first
    q = profile.q_malicious_first
    return (
        game.a * q + game.b * (1.0 - q),
        game.c * q + game.d * (1.0 - q),
        game.e * p + game.g * (1.0 - p),
        game.f * p + game.h * (1.0 - p),
    )


def pure_equilibria(game: BimatrixGame) -> tuple[tuple[int, int], ...]:
    """All pure profiles where neither player gains by a unilateral move."""
    found = []
    for row in (1, 2):
        for col in (1, 2):
            row_ok = game.row_payoff(row, col) >= game.row_payoff(3 - row, col)
            col_ok = game.col_payoff(row, col) >= game.col_payoff(row, 3 - col)
            if row_ok and col_ok:
                found.append((row, col))
    return tuple(found)


def mixed_equilibrium(game: BimatrixGame) -> EquilibriumReport:
    """Indifference-based equilibrium report.

    q = (d - b) / (a - c + d - b) and p = (h - g) / (e - f + h - g).
    If either denominator vanishes or a result leaves [0, 1], the game is
    reported degenerate with pure equilibria only. Pure equilibria are
    always enumerated and included.
    """
    pure = pure_equilibria(game)
    denom_q = game.a - game.c + game.d - game.b
    denom_p = game.e - game.f + game.h - game.g
    if abs(denom_q) < DEGENERATE_DENOMINATOR_TOL or abs(denom_p) < DEGENERATE_DENOMINATOR_TOL:
        return EquilibriumReport(mixed=None, pure=pure, indifference_residuals=None, degenerate=True)
    q = (game.d - game.b) / denom_q
    p = (game.h - game.g) / denom_p
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        return EquilibriumReport(mixed=None, pure=pure, indifference_residuals=None, degenerate=True)
    mixed = MixedProfile(p_secondary_first=p, q_malicious_first=q)
    u_s1, u_s2, u_m1, u_m2 = strategy_utilities(game, mixed)
    residuals = (abs(u_s1 - u_s2), abs(u_m1 - u_m2))
    return EquilibriumReport(mixed=mixed, pure=pure, indifference_residuals=residuals, degenerate=False)


def verify_equilibrium(game: BimatrixGame, profile: MixedProfile, tolerance: float = 1e-6) -> bool:
    """Whether no pure deviation gains either player more than ``tolerance``."""
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0 (got {tolerance!r})")
    p = profile.p_secondary_first
    q = profile.q_malicious_first
    u_s1, u_s2, u_m1, u_m2 = strategy_utilities(game, profile)
    gain_row = max(u_s1, u_s2) - (p * u_s1 + (1.0 - p) * u_s2)
    gain_col = max(u_m1, u_m2) - (q * u_m1 + (1.0 - q) * u_m2)
    return gain_row <= tolerance and gain_col <= tolerance


def profile_from_pure(pure: tuple[int, int]) -> MixedProfile:
    """Degenerate mixture playing the given 1-based pure strategy pair."""
    row, col = pure
    if row not in (1, 2) or col not in (1, 2):
        raise ValueError(f"pure profile indices must be 1 or 2 (got {pure!r})")
    return MixedProfile(
        p_secondary_first=1.0 if row == 1 else 0.0,
        q_malicious_first=1.0 if col == 1 else 0.0,
    )
