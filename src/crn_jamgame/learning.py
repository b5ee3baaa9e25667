"""Best-response learning from observed opponent action counts.

Each player tallies how often the rival has picked each strategy and,
every stage, plays the strategy with the higher count-weighted expected
payoff; exact-enough ties are broken uniformly at random. The running
action frequencies (p*, q*) approach the game's mixed equilibrium as the
history grows.

Determinism contract: one seeded generator drives a run, and on ties the
secondary's coin is flipped before the jammer's, so identical
(game, iterations, seed) inputs replay identical traces.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from functools import cached_property

import numpy as np

from .games import BimatrixGame

__all__ = ["FpTrace", "best_response", "run_fp"]

#: Relative tie tolerance for best responses: utilities closer than this
#: fraction of ``max(1, |u1|, |u2|)`` count as equal.
TIE_REL_TOL = 1e-9


def best_response(u1: float, u2: float, rand: Callable[[], float]) -> int:
    """Index (1 or 2) of the larger utility; ties break on a fair coin.

    ``u1`` and ``u2`` are a player's two strategies' payoffs weighted by
    the rival's observed counts (raw counts, not frequencies: normalizing
    changes no best response). The tie window is relative (a
    :data:`TIE_REL_TOL` share of ``max(1, |u1|, |u2|)``) so the rule is
    stable across payoff scales. ``rand`` is called only on ties.
    """
    if abs(u1 - u2) <= TIE_REL_TOL * max(1.0, abs(u1), abs(u2)):
        return 1 if rand() < 0.5 else 2
    return 1 if u1 > u2 else 2


class FpTrace:
    """Column-oriented record of a learning run.

    Stores the two action streams (strategy indices 1 and 2); running
    frequencies and stage payoffs are derived on demand.
    """

    def __init__(self, game: BimatrixGame, actions_secondary: np.ndarray, actions_malicious: np.ndarray):
        if actions_secondary.shape != actions_malicious.shape:
            raise ValueError("action streams must have equal length")
        self.game = game
        self.actions_secondary = actions_secondary
        self.actions_malicious = actions_malicious

    def __len__(self) -> int:
        return int(self.actions_secondary.shape[0])

    @cached_property
    def iterations(self) -> np.ndarray:
        """1-based iteration indices."""
        return np.arange(1, len(self) + 1)

    @cached_property
    def p_star(self) -> np.ndarray:
        """Secondary's running strategy-1 frequency after each iteration."""
        return np.cumsum(self.actions_secondary == 1) / self.iterations

    @cached_property
    def q_star(self) -> np.ndarray:
        """Jammer's running strategy-1 frequency after each iteration."""
        return np.cumsum(self.actions_malicious == 1) / self.iterations

    @cached_property
    def secondary_payoffs(self) -> np.ndarray:
        table = np.array([[self.game.a, self.game.b], [self.game.c, self.game.d]])
        return table[self.actions_secondary - 1, self.actions_malicious - 1]

    @cached_property
    def malicious_payoffs(self) -> np.ndarray:
        table = np.array([[self.game.e, self.game.f], [self.game.g, self.game.h]])
        return table[self.actions_secondary - 1, self.actions_malicious - 1]

    def final_frequencies(self) -> tuple[float, float]:
        """(p*, q*) after the last iteration."""
        if len(self) == 0:
            raise ValueError("empty trace has no frequencies")
        return float(self.p_star[-1]), float(self.q_star[-1])


def run_fp(game: BimatrixGame, iterations: int, seed: int) -> FpTrace:
    """Learning run of ``iterations`` stages from an empty history.

    Every stage both players best-respond to the rival's counts so far,
    the secondary first, then both actions are counted.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1 (got {iterations!r})")
    rand = random.Random(seed).random
    a, b, c, d = game.a, game.b, game.c, game.d
    e, f, g, h = game.e, game.f, game.g, game.h
    # bytearray stores are cheaper than NumPy item assignment in the loop
    act_s = bytearray(iterations)
    act_m = bytearray(iterations)
    hs1 = hs2 = hm1 = hm2 = 0
    for t in range(iterations):
        s = best_response(a * hm1 + b * hm2, c * hm1 + d * hm2, rand)
        m = best_response(e * hs1 + g * hs2, f * hs1 + h * hs2, rand)
        act_s[t] = s
        act_m[t] = m
        if s == 1:
            hs1 += 1
        else:
            hs2 += 1
        if m == 1:
            hm1 += 1
        else:
            hm2 += 1
    return FpTrace(game, np.frombuffer(act_s, np.uint8), np.frombuffer(act_m, np.uint8))
