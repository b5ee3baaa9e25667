"""Mixed and pure Nash equilibria of 2x2 bimatrix games.

The interior mixed equilibrium comes from the indifference construction:
pick q so the row player is indifferent between its rows, and p so the
column player is indifferent between its columns. Degenerate games (zero
indifference denominators, or probabilities falling outside [0, 1]) are
flagged and reported through exhaustive pure-profile enumeration instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

from .games import BimatrixGame

__all__ = [
    "MixedProfile",
    "EquilibriumReport",
    "strategy_utilities",
    "pure_equilibria",
    "mixed_equilibrium",
    "verify_equilibrium",
]

#: |a - c + d - b| below this counts as a vanishing indifference denominator.
DEGENERATE_DENOMINATOR_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class MixedProfile:
    """Strategy-1 probabilities: p for the secondary (row), q for the jammer."""

    p_secondary_first: float
    q_malicious_first: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_secondary_first <= 1.0:
            raise ValueError(f"p_secondary_first must lie in [0, 1] (got {self.p_secondary_first!r})")
        if not 0.0 <= self.q_malicious_first <= 1.0:
            raise ValueError(f"q_malicious_first must lie in [0, 1] (got {self.q_malicious_first!r})")


class EquilibriumReport(NamedTuple):
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


_PROFILES = ((1, 1), (1, 2), (2, 1), (2, 2))


def pure_equilibria(game: BimatrixGame) -> tuple[tuple[int, int], ...]:
    """All pure profiles where neither player gains by a unilateral move,
    in (row, col) order."""
    a, b, c, d, e, f, g, h = game.a, game.b, game.c, game.d, game.e, game.f, game.g, game.h
    stable = (a >= c and e >= f, b >= d and f >= e, c >= a and g >= h, d >= b and h >= g)
    return tuple(compress(_PROFILES, stable))


def mixed_equilibrium(game: BimatrixGame) -> EquilibriumReport:
    """Indifference-based equilibrium report.

    q = (d - b) / (a - c + d - b) and p = (h - g) / (e - f + h - g).
    If either denominator vanishes or a result leaves [0, 1], the game is
    reported degenerate with pure equilibria only. Pure equilibria are
    always enumerated and included. A game without a pure equilibrium
    has exactly one, fully mixed, equilibrium, so its nonzero denominators
    are used however small its payoffs are. The residuals are
    :func:`strategy_utilities`' differences, computed inline.
    """
    pure = pure_equilibria(game)
    a, b, c, d, e, f, g, h = game.a, game.b, game.c, game.d, game.e, game.f, game.g, game.h
    denom_q = a - c + d - b
    denom_p = e - f + h - g
    vanishing = abs(denom_q) < DEGENERATE_DENOMINATOR_TOL or abs(denom_p) < DEGENERATE_DENOMINATOR_TOL
    if vanishing and (pure or denom_q == 0.0 or denom_p == 0.0):
        return EquilibriumReport(None, pure, None, True)
    q = (d - b) / denom_q
    p = (h - g) / denom_p
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        return EquilibriumReport(None, pure, None, True)
    residuals = (
        abs((a * q + b * (1.0 - q)) - (c * q + d * (1.0 - q))),
        abs((e * p + g * (1.0 - p)) - (f * p + h * (1.0 - p))),
    )
    return EquilibriumReport(MixedProfile(p, q), pure, residuals, False)


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
