"""Mixed and pure Nash equilibria of 2x2 bimatrix games.

The interior mixed equilibrium comes from the indifference construction:
pick q so the row player is indifferent between its rows, and p so the
column player is indifferent between its columns. Degenerate games (zero
indifference denominators, or probabilities falling outside [0, 1]) are
flagged. :func:`pure_equilibria` enumerates a game's pure equilibria, and
the differences of :func:`strategy_utilities` are a profile's residuals.
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

_NAN = float("nan")


class EquilibriumReport(NamedTuple):
    """Mixed equilibrium (p, q), the secondary's (row) and the jammer's
    (column) strategy-1 probabilities. ``degenerate`` marks games where
    the indifference construction left [0, 1] or failed; exactly then p
    and q are nan.
    """

    p: float
    q: float
    degenerate: bool


# the generated __new__ binds its arguments by name, and _make adds a Python call and a length check
_new = tuple.__new__
_DEGENERATE = EquilibriumReport(_NAN, _NAN, True)


def strategy_utilities(game: BimatrixGame, p: float, q: float) -> tuple[float, float, float, float]:
    """Each pure strategy's expected payoff when the secondary plays
    strategy 1 with probability ``p`` and the jammer with ``q``.

    Returns ``(u_s1, u_s2, u_m1, u_m2)``: the secondary's two rows against
    the jammer's mixture, then the jammer's two columns against the
    secondary's.
    """
    a, b, c, d, e, f, g, h = game
    return (a * q + b * (1.0 - q), c * q + d * (1.0 - q), e * p + g * (1.0 - p), f * p + h * (1.0 - p))


_PROFILES = ((1, 1), (1, 2), (2, 1), (2, 2))


def pure_equilibria(game: BimatrixGame) -> tuple[tuple[int, int], ...]:
    """All pure profiles where neither player gains by a unilateral move,
    in (row, col) order."""
    a, b, c, d, e, f, g, h = game
    stable = (a >= c and e >= f, b >= d and f >= e, c >= a and g >= h, d >= b and h >= g)
    return tuple(compress(_PROFILES, stable))


def mixed_equilibrium(game: BimatrixGame) -> EquilibriumReport:
    """Indifference-based equilibrium report.

    q = (d - b) / (a - c + d - b) and p = (h - g) / (e - f + h - g), each
    denominator the sum of two payoff differences. If either denominator
    is zero or a result leaves [0, 1], the game is reported degenerate.
    No tolerance enters, as the signs of the differences decide: without a
    pure equilibrium both of a player's differences have one strict sign,
    so their sum cannot cancel and the result is interior; with opposite
    signs the result lies outside [0, 1] or is exactly 0 or 1, and rounding
    keeps those signs. So the flag does not depend on the payoff scale. A
    denominator that overflows is solved once more with its player's four
    payoffs quartered: that keeps the player's indifference point, is exact
    for normal floats, and leaves no sum of four quarters that can overflow.
    """
    a, b, c, d, e, f, g, h = game
    quartered = False
    while True:
        num_q = d - b
        num_p = h - g
        denom_q = a - c + num_q
        denom_p = e - f + num_p
        if denom_q == 0.0 or denom_p == 0.0:
            return _DEGENERATE
        q = num_q / denom_q
        p = num_p / denom_p
        if 0.0 < p < 1.0 and 0.0 < q < 1.0:
            return _new(EquilibriumReport, (p, q, False))
        # a denominator that overflowed (inf or nan; it holds its numerator)
        # leaves q at ±0, nan or |q| > 1, likewise p: only this path looks
        if quartered or (denom_q - denom_q == 0.0 and denom_p - denom_p == 0.0):
            return _new(EquilibriumReport, (p, q, False)) if 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0 else _DEGENERATE
        quartered = True
        if denom_q - denom_q != 0.0:
            a, b, c, d = a * 0.25, b * 0.25, c * 0.25, d * 0.25
        if denom_p - denom_p != 0.0:
            e, f, g, h = e * 0.25, f * 0.25, g * 0.25, h * 0.25


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
