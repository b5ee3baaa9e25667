"""Best-response learning from observed opponent action counts.

Each player tallies how often the rival has picked each strategy and,
every stage, plays the strategy with the higher count-weighted expected
payoff; exact-enough ties are broken uniformly at random. The running
action frequencies (p*, q*) approach the game's mixed equilibrium as the
history grows.

``run_fp`` works in runs, stretches of stages in which both players keep
their actions. Within a run the counts grow by one per stage, so a NumPy
screen checks a window of the following stages at once and fills every
stage whose preference is strict by a clear margin; the scalar kernel
``best_response`` runs only at run ends, near-ties and ties, and stays
the one implementation of the tie rule.

Determinism contract: one seeded generator drives a run, and on ties the
secondary's coin is flipped before the jammer's, so identical
(game, iterations, seed) inputs replay identical traces.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable

import numpy as np

from .games import BimatrixGame

__all__ = ["FpTrace", "best_response", "fit_to_counts", "run_fp"]

#: Relative tie tolerance for best responses: utilities closer than this
#: fraction of ``max(1, |u1|, |u2|)`` count as equal.
TIE_REL_TOL = 1e-9

#: Stages in a row with unchanged actions after which ``run_fp`` screens
#: the stages ahead; the threshold doubles after a screen that skips none.
RUN_MIN = 16
#: Stages in the first window of a screen; each full window doubles the
#: next, up to ``WINDOW_MAX``.
WINDOW_MIN = 64
WINDOW_MAX = 1024
#: The screen skips a stage only when the kept strategy leads by more
#: than this share of ``max(1, |u1|, |u2|)``, twice the tie window.
SCREEN_REL_MARGIN = 2 * TIE_REL_TOL


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


def fit_to_counts(game: BimatrixGame, stages: int) -> BimatrixGame:
    """``game``, scaled by a power of two if its entries weighted by counts
    summing to at most ``stages`` could pass 2**1020, so that no weighted
    sum or difference overflows. The scaling is exact and keeps the order
    of every weighted sum; any other game is returned as it is."""
    top = max(map(abs, game))
    if top * stages <= 2.0**1020:
        return game
    shift = math.frexp(top)[1] + math.frexp(stages)[1] - 1020
    return BimatrixGame(*(math.ldexp(x, -shift) for x in game))


class FpTrace:
    """Column-oriented record of a learning run.

    Stores the two action streams (strategy indices 1 and 2); running
    frequencies are derived on demand.
    """

    def __init__(self, game: BimatrixGame, actions_secondary: np.ndarray, actions_malicious: np.ndarray):
        if actions_secondary.shape != actions_malicious.shape:
            raise ValueError("action streams must have equal length")
        self.game = game
        self.actions_secondary = actions_secondary
        self.actions_malicious = actions_malicious

    def __len__(self) -> int:
        return int(self.actions_secondary.shape[0])

    def running_frequencies(self, size: int):
        """Yield ``(lo, p_star, q_star)`` for consecutive slices of at most
        ``size`` iterations: each player's running strategy-1 frequency
        after iterations lo+1, lo+2, ... The counts are carried from slice
        to slice, so the values equal those of one pass over the run."""
        count_s = count_m = 0
        for lo in range(0, len(self), size):
            run_s = count_s + np.cumsum(self.actions_secondary[lo : lo + size] == 1)
            run_m = count_m + np.cumsum(self.actions_malicious[lo : lo + size] == 1)
            count_s, count_m = int(run_s[-1]), int(run_m[-1])
            stage = np.arange(lo + 1, lo + len(run_s) + 1)
            yield lo, run_s / stage, run_m / stage

    def final_frequencies(self) -> tuple[float, float]:
        """(p*, q*) after the last iteration, from the strategy-1 counts."""
        n = len(self)
        if n == 0:
            raise ValueError("empty trace has no frequencies")
        # actions are 1 or 2, so a stream of n sums to 2n minus its 1s
        return (
            (2 * n - int(self.actions_secondary.sum(dtype=np.int64))) / n,
            (2 * n - int(self.actions_malicious.sum(dtype=np.int64))) / n,
        )


def _leads(u1: np.ndarray, u2: np.ndarray, keep: int) -> np.ndarray:
    """Where strategy ``keep`` (1 or 2) leads by more than the screen margin.

    A nan or infinite utility never leads, so such stages go to the
    scalar kernel.
    """
    gap = u1 - u2 if keep == 1 else u2 - u1
    scale = np.maximum(np.abs(u1), np.abs(u2))
    return gap > SCREEN_REL_MARGIN * np.maximum(scale, 1.0)


def _screen(game: BimatrixGame, s: int, m: int, counts: tuple[int, int, int, int], span: int) -> int:
    """Stages, of the next ``span``, that keep (s, m) by a clear margin.

    ``counts`` are (hs1, hs2, hm1, hm2) before the first of them. While
    both players keep their actions, each stage adds one to count ``s``
    of the secondary and to count ``m`` of the jammer, so the weighted
    utilities of every stage of the window are evaluated at once.
    """
    hs1, hs2, hm1, hm2 = counts
    steps = np.arange(span, dtype=float)
    w1, w2 = (hm1 + steps, hm2) if m == 1 else (hm1, hm2 + steps)
    keep = _leads(game.a * w1 + game.b * w2, game.c * w1 + game.d * w2, s)
    v1, v2 = (hs1 + steps, hs2) if s == 1 else (hs1, hs2 + steps)
    keep &= _leads(game.e * v1 + game.g * v2, game.f * v1 + game.h * v2, m)
    first = int(np.argmin(keep))  # the first stage not kept, or 0
    return first if not keep[first] else span


def run_fp(game: BimatrixGame, iterations: int, seed: int) -> FpTrace:
    """Learning run of ``iterations`` stages from an empty history.

    Every stage both players best-respond to the rival's counts so far,
    the secondary first, then both actions are counted. Once the actions
    have held for ``RUN_MIN`` stages, :func:`_screen` fills the following
    stages that keep them by a clear margin, in windows; the stage that
    ends the run goes to ``best_response`` as before. Skipped stages are
    never ties, so they draw nothing from the generator. Counts weight
    ``fit_to_counts(game, iterations)``.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1 (got {iterations!r})")
    rand = random.Random(seed).random
    weights = fit_to_counts(game, iterations)
    a, b, c, d = weights.a, weights.b, weights.c, weights.d
    e, f, g, h = weights.e, weights.f, weights.g, weights.h
    # bytearray stores are cheaper than NumPy item assignment in the loop
    act_s = bytearray(iterations)
    act_m = bytearray(iterations)
    hs1 = hs2 = hm1 = hm2 = 0
    s = m = 0  # the previous stage's actions
    streak = 0  # stages in a row that repeated them
    patience = RUN_MIN
    t = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while t < iterations:
            for t in range(t, iterations):  # scalar stages until a run is long
                s_t = best_response(a * hm1 + b * hm2, c * hm1 + d * hm2, rand)
                m_t = best_response(e * hs1 + g * hs2, f * hs1 + h * hs2, rand)
                act_s[t] = s_t
                act_m[t] = m_t
                if s_t == 1:
                    hs1 += 1
                else:
                    hs2 += 1
                if m_t == 1:
                    hm1 += 1
                else:
                    hm2 += 1
                if s_t != s or m_t != m:
                    s, m, streak = s_t, m_t, 0
                    continue
                streak += 1
                if streak >= patience:
                    break
            else:
                break  # every stage is done
            t += 1  # past the stage that ended the scalar loop
            skipped = 0
            window = WINDOW_MIN
            while t < iterations:
                span = min(window, iterations - t)
                n = _screen(weights, s, m, (hs1, hs2, hm1, hm2), span)
                act_s[t : t + n] = bytes((s,)) * n
                act_m[t : t + n] = bytes((m,)) * n
                t += n
                skipped += n
                if s == 1:
                    hs1 += n
                else:
                    hs2 += n
                if m == 1:
                    hm1 += n
                else:
                    hm2 += n
                if n < span:
                    break
                window = min(2 * window, WINDOW_MAX)
            # a screen that skips nothing (nan utilities, a lasting
            # near-tie) makes the next one wait twice as long
            patience = RUN_MIN if skipped else 2 * patience
    return FpTrace(game, np.frombuffer(act_s, np.uint8), np.frombuffer(act_m, np.uint8))
