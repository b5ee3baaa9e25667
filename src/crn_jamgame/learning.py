"""Best-response learning from observed opponent action counts.

Each player tallies how often the rival has picked each strategy and,
every stage, plays the strategy with the higher count-weighted expected
payoff; exact-enough ties are broken uniformly at random. The running
action frequencies (p*, q*) approach the game's mixed equilibrium as the
history grows. ``running_share`` and ``final_share`` are the one rule
for them, which ``FpTrace`` and the simulator's record both read.

``run_fp`` works in runs, stretches of stages in which both players keep
their actions. Within a run the counts grow by one per stage, so each
player's lead for its kept strategy is linear in the stage, and the end
of the stages it keeps by a clear margin is found in closed form: a
guess where the lead falls to zero, checked by one evaluation of the
margin and bisected only when it is too late. Those stages are filled at
once; the scalar kernel ``best_response`` runs only at run ends,
near-ties and ties, and stays the one implementation of the tie rule.

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

__all__ = ["FpTrace", "best_response", "final_share", "fit_to_counts", "run_fp", "running_share"]

#: Relative tie tolerance for best responses: utilities closer than this
#: fraction of ``max(1, |u1|, |u2|)`` count as equal.
TIE_REL_TOL = 1e-9

#: Stages in a row with unchanged actions after which ``run_fp`` skips
#: to the run's end; the threshold doubles after a try that skips none.
RUN_MIN = 2
#: ``run_fp`` skips a stage only when the kept strategy leads by more
#: than this share of ``max(1, |u1|, |u2|)``, twice the tie window.
RUN_REL_MARGIN = 2 * TIE_REL_TOL
#: Moves that :func:`final_share` counts at a time.
COUNT_SLICE = 1 << 14


def best_response(u1: float, u2: float, rand: Callable[[], float]) -> int:
    """Index (1 or 2) of the larger utility; ties break on a fair coin.

    ``u1`` and ``u2`` are a player's two strategies' payoffs weighted by
    the rival's observed counts (raw counts, not frequencies: normalizing
    changes no best response). The tie window is relative (a
    :data:`TIE_REL_TOL` share of ``max(1, |u1|, |u2|)``) so the rule is
    stable across payoff scales. ``rand`` is called only on ties.

    The test is ``abs(u1 - u2) <= TIE_REL_TOL * max(1.0, abs(u1),
    abs(u2))`` without its builtin calls, the same decision for every pair
    of floats: a nan utility makes the gap nan, so the scale's handling of
    nan never decides.
    """
    gap = u1 - u2
    if gap < 0.0:
        gap = -gap
    a1 = -u1 if u1 < 0.0 else u1
    a2 = -u2 if u2 < 0.0 else u2
    scale = a1 if a1 > a2 else a2
    if scale < 1.0:
        scale = 1.0
    if gap <= TIE_REL_TOL * scale:
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


def _tallies(moves: np.ndarray, first, recorded: np.ndarray | None, size: int):
    """Yield, for consecutive slices of at most ``size`` moves, where a
    recorded move is ``first`` and where a move is recorded (None when
    ``recorded`` is None: every move is)."""
    for lo in range(0, len(moves), size):
        seen = None if recorded is None else recorded[lo : lo + size]
        hit = moves[lo : lo + size] == first
        yield (hit if seen is None else hit & seen), seen


def running_share(moves: np.ndarray, first, recorded: np.ndarray | None, size: int):
    """Yield, for consecutive slices of at most ``size`` moves, the share
    of ``first`` among the recorded moves so far after each move of the
    slice; nan before the first record. ``recorded`` marks the moves that
    count (None: every move). The counts are carried from slice to slice,
    so the values equal those of one pass over the column."""
    hits = seen = 0
    for hit, mask in _tallies(moves, first, recorded, size):
        hit_count = hits + np.cumsum(hit)
        seen_count = np.arange(seen + 1, seen + len(hit) + 1) if mask is None else seen + np.cumsum(mask)
        hits, seen = int(hit_count[-1]), int(seen_count[-1])
        with np.errstate(invalid="ignore"):  # 0/0 before the first record
            share = hit_count / seen_count
        yield share


def final_share(moves: np.ndarray, first, recorded: np.ndarray | None) -> float:
    """The last value of :func:`running_share`, from the counts of
    :data:`COUNT_SLICE` moves at a time; nan when no move is recorded."""
    hits = seen = 0
    for hit, mask in _tallies(moves, first, recorded, COUNT_SLICE):
        hits += int(np.count_nonzero(hit))
        seen += len(hit) if mask is None else int(np.count_nonzero(mask))
    return hits / seen if seen else math.nan


class FpTrace:
    """Column-oriented record of a learning run.

    Stores the two action streams (strategy indices 1 and 2); running
    frequencies are derived on demand by :func:`running_share`.
    """

    def __init__(self, actions_secondary: np.ndarray, actions_malicious: np.ndarray):
        if actions_secondary.shape != actions_malicious.shape:
            raise ValueError("action streams must have equal length")
        self.actions_secondary = actions_secondary
        self.actions_malicious = actions_malicious

    def __len__(self) -> int:
        return int(self.actions_secondary.shape[0])

    def running_frequencies(self, size: int):
        """Yield ``(lo, p_star, q_star)`` for consecutive slices of at most
        ``size`` iterations: each player's running strategy-1 frequency
        after iterations lo+1, lo+2, ..., equal to those of one pass."""
        streams = (self.actions_secondary, self.actions_malicious)
        p_star, q_star = (running_share(actions, 1, None, size) for actions in streams)
        return zip(range(0, len(self), size), p_star, q_star)

    def final_frequencies(self) -> tuple[float, float]:
        """(p*, q*) after the last iteration, from the strategy-1 counts."""
        if len(self) == 0:
            raise ValueError("empty trace has no frequencies")
        return final_share(self.actions_secondary, 1, None), final_share(self.actions_malicious, 1, None)


def _lead(u1: float, u2: float, keep: int) -> float:
    """How far strategy ``keep`` (1 or 2) leads, or 0.0 unless by more than
    the margin, a :data:`RUN_REL_MARGIN` share of ``max(1, |u1|, |u2|)``.

    A nan or infinite utility never leads.
    """
    gap = u1 - u2 if keep == 1 else u2 - u1
    return gap if gap > RUN_REL_MARGIN * max(1.0, abs(u1), abs(u2)) else 0.0


def _run_length(game: BimatrixGame, s: int, m: int, counts: tuple[int, int, int, int], cap: int) -> int:
    """Stages, of the next ``cap``, that keep (s, m) by a clear margin.

    ``counts`` are (hs1, hs2, hm1, hm2) before the first of them. While
    both players keep their actions, stage j of the run adds j to count
    ``s`` of the secondary and to count ``m`` of the jammer, so each
    player's lead is linear in j and its lead less the margin is concave:
    the stages kept form an interval from j = 0, and every stage inside
    it leads by the margin, twice the kernel's tie window, up to the
    rounding of its weighted sums. The interval's end is guessed where
    the first falling lead reaches zero, checked at the stage before the
    guess, and bisected only when the guess is too late. A guess that is
    too soon only ends the skip early: the stage after it goes to
    ``best_response``, which keeps (s, m) without a coin, and the run
    goes on.
    """
    a, b, c, d, e, f, g, h = game
    hs1, hs2, hm1, hm2 = counts

    def leads(j: int) -> tuple[float, float]:
        # the kernel's own float expressions, with the counts of stage j
        w1, w2 = (hm1 + j, hm2) if m == 1 else (hm1, hm2 + j)
        v1, v2 = (hs1 + j, hs2) if s == 1 else (hs1, hs2 + j)
        return _lead(a * w1 + b * w2, c * w1 + d * w2, s), _lead(e * v1 + g * v2, f * v1 + h * v2, m)

    first = leads(0)
    if not all(first):
        return 0
    # each lead's change per stage: the rival's kept column or row
    rise_s = (a - c if m == 1 else b - d) * (1 if s == 1 else -1)
    rise_m = (e - f if s == 1 else g - h) * (1 if m == 1 else -1)
    n = cap
    for lead, rise in zip(first, (rise_s, rise_m)):
        if rise < 0 and lead < -rise * n:  # this lead reaches zero within n stages
            n = min(n, math.ceil(lead / -rise))
    if n < 2 or all(leads(n - 1)):
        return n
    kept, past = 0, n - 1  # the guess ends the run too late
    while past - kept > 1:  # stage ``kept`` keeps (s, m); stage ``past`` does not, or is the cap
        mid = (kept + past) // 2
        if all(leads(mid)):
            kept = mid
        else:
            past = mid
    return past


def run_fp(game: BimatrixGame, iterations: int, seed: int) -> FpTrace:
    """Learning run of ``iterations`` stages from an empty history.

    Every stage both players best-respond to the rival's counts so far,
    the secondary first, then both actions are counted. Once the actions
    have held for ``RUN_MIN`` stages, :func:`_run_length` finds in closed
    form how many of the following stages keep them by a clear margin,
    and they are filled at once; the stage that ends the run goes to
    ``best_response`` as before. Skipped stages are never ties, so they
    draw nothing from the generator. Counts weight
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
        n = _run_length(weights, s, m, (hs1, hs2, hm1, hm2), iterations - t)
        act_s[t : t + n] = bytes((s,)) * n
        act_m[t : t + n] = bytes((m,)) * n
        t += n
        if s == 1:
            hs1 += n
        else:
            hs2 += n
        if m == 1:
            hm1 += n
        else:
            hm2 += n
        # a try that skips nothing (a lasting near-tie) makes the next try
        # wait twice as long
        patience = RUN_MIN if n else 2 * patience
    return FpTrace(np.frombuffer(act_s, np.uint8), np.frombuffer(act_m, np.uint8))
