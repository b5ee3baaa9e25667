"""Mixed and pure Nash equilibria of 2x2 bimatrix games.

The interior mixed equilibrium comes from the indifference construction:
pick q so the row player is indifferent between its rows, and p so the
column player is indifferent between its columns. Degenerate games (zero
indifference denominators, or probabilities falling outside [0, 1]) are
flagged and reported through exhaustive pure-profile enumeration instead.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple

from .games import BimatrixGame

__all__ = [
    "EquilibriumReport",
    "strategy_utilities",
    "pure_equilibria",
    "mixed_equilibrium",
    "verify_equilibrium",
]

#: |a - c + d - b| below this counts as a vanishing indifference denominator.
DEGENERATE_DENOMINATOR_TOL = 1e-12

_NAN = float("nan")


class EquilibriumReport(NamedTuple):
    """Mixed equilibrium (p, q), the secondary's (row) and the jammer's
    (column) strategy-1 probabilities, plus all pure equilibria, as (row,
    col) pairs of 1-based indices. The residuals are |u_s1 - u_s2| and
    |u_m1 - u_m2| at (p, q). ``degenerate`` marks games where the
    indifference construction left [0, 1] or failed; exactly then p, q
    and both residuals are nan.
    """

    p: float
    q: float
    pure: tuple[tuple[int, int], ...]
    residual_secondary: float
    residual_malicious: float
    degenerate: bool


def strategy_utilities(game: BimatrixGame, p: float, q: float) -> tuple[float, float, float, float]:
    """Each pure strategy's expected payoff when the secondary plays
    strategy 1 with probability ``p`` and the jammer with ``q``.

    Returns ``(u_s1, u_s2, u_m1, u_m2)``: the secondary's two rows against
    the jammer's mixture, then the jammer's two columns against the
    secondary's.
    """
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
    a, b, c, d, e, f, g, h = game
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
    :func:`strategy_utilities`' differences.
    """
    pure = pure_equilibria(game)
    a, b, c, d, e, f, g, h = game
    denom_q = a - c + d - b
    denom_p = e - f + h - g
    vanishing = abs(denom_q) < DEGENERATE_DENOMINATOR_TOL or abs(denom_p) < DEGENERATE_DENOMINATOR_TOL
    if vanishing and (pure or denom_q == 0.0 or denom_p == 0.0):
        return EquilibriumReport(_NAN, _NAN, pure, _NAN, _NAN, True)
    q = (d - b) / denom_q
    p = (h - g) / denom_p
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        return EquilibriumReport(_NAN, _NAN, pure, _NAN, _NAN, True)
    u_s1, u_s2, u_m1, u_m2 = strategy_utilities(game, p, q)
    return EquilibriumReport(p, q, pure, abs(u_s1 - u_s2), abs(u_m1 - u_m2), False)


def verify_equilibrium(game: BimatrixGame, p: float, q: float, tolerance: float = 1e-6) -> bool:
    """Whether no pure deviation from (p, q) gains either player more than
    ``tolerance``; ``p`` and ``q`` are strategy-1 probabilities."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1] (got {p!r})")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1] (got {q!r})")
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0 (got {tolerance!r})")
    u_s1, u_s2, u_m1, u_m2 = strategy_utilities(game, p, q)
    gain_row = max(u_s1, u_s2) - (p * u_s1 + (1.0 - p) * u_s2)
    gain_col = max(u_m1, u_m2) - (q * u_m1 + (1.0 - q) * u_m2)
    return gain_row <= tolerance and gain_col <= tolerance
