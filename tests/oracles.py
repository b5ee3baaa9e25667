"""Independent oracles the tests check the library against.

Everything here recomputes results from first principles (grid search,
direct Monte Carlo placement, stage-by-stage replay, an exact Markov
chain, exact rational arithmetic) without going through the code paths
under test.
"""

import math
import random
from fractions import Fraction

import numpy as np

GRID_STEP = 1e-3
GRID_GAIN_TOL = 1e-2


def row_payoff(game, row, col):
    """The secondary's payoff in cell (row, col), 1-based indices."""
    return ((game.a, game.b), (game.c, game.d))[row - 1][col - 1]


def col_payoff(game, row, col):
    """The jammer's payoff in cell (row, col), 1-based indices."""
    return ((game.e, game.f), (game.g, game.h))[row - 1][col - 1]


def deviation_gains(game, p, q):
    """Best-response gains at (p, q), computed straight from the payoffs.

    Accepts scalars or broadcastable arrays. Returns (row gain, col gain):
    how much each player could add by deviating to its better pure
    strategy.
    """
    u_s1 = game.a * q + game.b * (1.0 - q)
    u_s2 = game.c * q + game.d * (1.0 - q)
    u_m1 = game.e * p + game.g * (1.0 - p)
    u_m2 = game.f * p + game.h * (1.0 - p)
    gain_row = np.maximum(u_s1, u_s2) - (p * u_s1 + (1.0 - p) * u_s2)
    gain_col = np.maximum(u_m1, u_m2) - (q * u_m1 + (1.0 - q) * u_m2)
    return gain_row, gain_col


def grid_equilibria(game, step=GRID_STEP, gain_tol=GRID_GAIN_TOL):
    """Full brute-force sweep of the (p, q) grid.

    Returns the (p, q) coordinates of every grid point whose larger
    deviation gain is below ``gain_tol``.
    """
    n = round(1.0 / step) + 1
    values = np.linspace(0.0, 1.0, n)
    gain_row, gain_col = deviation_gains(game, values[:, None], values[None, :])
    rows, cols = np.nonzero((gain_row < gain_tol) & (gain_col < gain_tol))
    return values[rows], values[cols]


def grid_accepts_near(game, p, q, step=GRID_STEP, gain_tol=GRID_GAIN_TOL):
    """Whether some grid point within one grid step of (p, q) is accepted.

    This is the full sweep restricted to the only cells that could witness
    agreement with (p, q); gains are evaluated by the same independent
    arithmetic as :func:`grid_equilibria`.
    """
    n_max = round(1.0 / step)

    def candidates(x):
        base = int(np.floor(x / step))
        out = []
        for i in (base - 1, base, base + 1, base + 2):
            if 0 <= i <= n_max and abs(i * step - x) <= step + 1e-15:
                out.append(i * step)
        return out

    for gp in candidates(p):
        for gq in candidates(q):
            gain_row, gain_col = deviation_gains(game, gp, gq)
            if gain_row < gain_tol and gain_col < gain_tol:
                return True
    return False


def brute_force_pure_equilibria(entries):
    """Pure Nash equilibria of the 2x2 game with payoff entries
    ``(a, b, c, d, e, f, g, h)`` (cells (1,1), (1,2), (2,1), (2,2); the
    secondary is paid the first four, the jammer the last four), in
    (row, col) order: every cell where each player's payoff is at least
    its best over all of its own strategies against the rival's."""
    a, b, c, d, e, f, g, h = entries
    secondary = {(1, 1): a, (1, 2): b, (2, 1): c, (2, 2): d}
    jammer = {(1, 1): e, (1, 2): f, (2, 1): g, (2, 2): h}
    cells = [(row, col) for row in (1, 2) for col in (1, 2)]
    return tuple(
        (row, col)
        for row, col in cells
        if secondary[row, col] >= max(secondary[other, col] for other in (1, 2))
        and jammer[row, col] >= max(jammer[row, other] for other in (1, 2))
    )


def mc_switch_target_occupancy(n_bands, n_primary, trials, seed):
    """Monte Carlo for the switch-target occupancy probabilities.

    From a shared origin band 0, the switcher and the rival each pick a
    uniform band among the others, and ``n_primary`` licensed users land
    on distinct uniform bands. Returns the observed frequencies of
    (target clean and rival elsewhere, target clean and rival there),
    i.e. estimates of the just-secondary and secondary-plus-jammer
    probabilities.
    """
    rng = np.random.default_rng(seed)
    target = rng.integers(1, n_bands, size=trials)
    rival = rng.integers(1, n_bands, size=trials)
    scores = rng.random((trials, n_bands))
    target_score = scores[np.arange(trials), target]
    rank = (scores < target_score[:, None]).sum(axis=1)
    primary_on_target = rank < n_primary  # target among the n_primary smallest scores
    clean = ~primary_on_target
    just_secondary = clean & (rival != target)
    both = clean & (rival == target)
    return just_secondary.mean(), both.mean()


def formula_best_response(u1, u2, rand):
    """The best response by its formula: totals within ``1e-9 * max(1,
    |u1|, |u2|)`` of each other tie, and a tie is a fair coin
    (``rand() < 0.5`` picks strategy 1); otherwise the larger total."""
    if abs(u1 - u2) <= 1e-9 * max(1.0, abs(u1), abs(u2)):
        return 1 if rand() < 0.5 else 2
    return 1 if u1 > u2 else 2


def fp_replay(game, iterations, seed):
    """Best-response learning replayed stage by stage from the payoff cells.

    The documented rule: each stage a player weights its payoff in every
    cell by how often the rival has played that cell's rival strategy,
    and plays the strategy with the larger total. Totals within
    ``1e-9 * max(1, |u1|, |u2|)`` of each other tie, and a tie is a fair
    coin (``random() < 0.5`` picks strategy 1) on one ``random.Random(seed)``,
    the secondary's coin before the jammer's. When max|payoff| x
    iterations exceeds 2**1020, every payoff is first multiplied by
    2**-k, k = (binary exponent of max|payoff|) + (that of iterations) -
    1020, exponents as ``math.frexp`` gives them, so no weighted total
    can overflow. Returns the two action lists.
    """
    rng = random.Random(seed)
    cells = [(row, col) for row in (1, 2) for col in (1, 2)]
    top = max(abs(x) for cell in cells for x in (row_payoff(game, *cell), col_payoff(game, *cell)))
    scale = 1.0
    if top * iterations > 2.0**1020:
        scale = 2.0 ** -(math.frexp(top)[1] + math.frexp(iterations)[1] - 1020)

    def pick(u1, u2):
        return formula_best_response(u1, u2, rng.random)

    played_s = {1: 0, 2: 0}
    played_m = {1: 0, 2: 0}
    actions_s, actions_m = [], []
    for _ in range(iterations):
        u_s = [
            sum(row_payoff(game, row, col) * scale * played_m[col] for col in (1, 2))
            for row in (1, 2)
        ]
        u_m = [
            sum(col_payoff(game, row, col) * scale * played_s[row] for row in (1, 2))
            for col in (1, 2)
        ]
        action_s = pick(*u_s)
        action_m = pick(*u_m)
        played_s[action_s] += 1
        played_m[action_m] += 1
        actions_s.append(action_s)
        actions_m.append(action_m)
    return actions_s, actions_m


def interior_equilibrium(a, b, c, d, e, f, g, h):
    """Strategy-1 probabilities (p, q) of a 2x2 game's fully mixed equilibrium.

    Entries are laid out as in the package: the secondary's payoffs
    (a, b; c, d) and the jammer's (e, f; g, h) for cells (1,1), (1,2),
    (2,1), (2,2). p makes the jammer indifferent, q the secondary. Returns
    None unless both lie strictly inside (0, 1).
    """
    den_p = e - f - g + h
    den_q = a - b - c + d
    if den_p == 0 or den_q == 0:
        return None
    p = (h - g) / den_p
    q = (d - b) / den_q
    return (p, q) if 0 < p < 1 and 0 < q < 1 else None


def slot_chain(n_bands, n_primary, switch_a, switch_b):
    """Transition matrix of the slot process when every move is an
    independent draw given the slot's category (fixed or Nash play).

    States: A, B, C with the players on one band, C with them apart.
    ``switch_a`` and ``switch_b`` are (secondary, jammer) switch
    probabilities in categories A and B. A switcher lands uniformly on
    one of the other bands (u = 1/(n_bands - 1)), except the jammer in B,
    which jumps to the secondary's band. Licensed users are placed afresh
    every slot, so the next slot is C with probability
    rho = n_primary / n_bands whatever the moves; nobody moves in C.
    """
    rho = n_primary / n_bands
    u = 1.0 / (n_bands - 1)
    s, m = switch_a
    together_after_a = (1 - s) * (1 - m) + s * m * u
    s, m = switch_b
    together_after_b = (1 - s) * m + s * (1 - m) * u
    chain = np.zeros((4, 4))
    for state, together in enumerate((together_after_a, together_after_b, 1.0, 0.0)):
        chain[state] = (
            (1 - rho) * together,
            (1 - rho) * (1 - together),
            rho * together,
            rho * (1 - together),
        )
    return chain


#: Indicators of categories A, B and C on the states of ``slot_chain``.
CHAIN_CATEGORIES = {"A": (1, 0, 0, 0), "B": (0, 1, 0, 0), "C": (0, 0, 1, 1)}


def long_run_share(chain, indicator, slots, z):
    """Stationary share of the states in ``indicator`` and a CLT band for
    its average over ``slots`` slots from any start.

    Returns ``(share, half_width)``. With the fundamental matrix
    Z = (I - P + 1 pi)^-1 and g = Z (f - pi f), the asymptotic variance of
    the slot average is sum_i pi_i fbar_i (2 g_i - fbar_i); the band is
    ``z`` of its standard errors plus the start's bias, at most
    2 max|g| / slots.
    """
    n = len(chain)
    coefficients = np.vstack([(np.asarray(chain) - np.eye(n)).T, np.ones(n)])
    pi = np.linalg.lstsq(coefficients, np.r_[np.zeros(n), 1.0], rcond=None)[0]
    f = np.asarray(indicator, float)
    share = float(pi @ f)
    fbar = f - share
    g = np.linalg.solve(np.eye(n) - chain + np.outer(np.ones(n), pi), fbar)
    variance = max(float(np.sum(pi * fbar * (2 * g - fbar))), 0.0)
    return share, z * (variance / slots) ** 0.5 + 2 * float(np.max(np.abs(g))) / slots


def csv_line(row):
    """One CSV line written cell by cell: bools as 0/1, floats as
    ``format(x, '.6g')``, anything else through ``str``."""
    cells = []
    for value in row:
        if isinstance(value, bool):
            cells.append("1" if value else "0")
        elif isinstance(value, float):
            cells.append(format(value, ".6g"))
        else:
            cells.append(str(value))
    return ",".join(cells) + "\n"


class _NextDraw(Exception):
    """A draw was asked for past the scripted values; ``args[0]`` is its bit count."""


class _ScriptedRandom:
    """Stand-in generator that has only ``getrandbits``: it returns the
    scripted values in turn, then raises :class:`_NextDraw`."""

    def __init__(self, values):
        self._values = iter(values)

    def getrandbits(self, k):
        value = next(self._values, None)
        if value is None:
            raise _NextDraw(k)
        return value


def enumerate_draws(fn):
    """Every result of ``fn(rng)`` over all values of its ``rng.getrandbits``
    draws, with its exact probability: a list of ``(Fraction weight, result)``,
    one per accepted tuple of draw values.

    ``fn`` must draw only through ``getrandbits``, each draw in a rejection
    loop (draw again while the value is at least n >= 1) whose bound and
    whose entry do not depend on the values drawn. ``fn`` is re-run on each
    prefix of values, depth first, each next draw of k bits branching over
    all 2**k values. The all-zero path, which every such loop accepts at
    once, makes one draw per loop; a path that needs more draws redrew in
    some loop and is dropped. Every kept path then draws the same bits, so
    normalizing over the kept paths gives each its exact probability.
    """

    def attempt(values):
        try:
            return True, fn(_ScriptedRandom(values))
        except _NextDraw as draw:
            return False, draw.args[0]

    loops = 0
    while not attempt((0,) * loops)[0]:
        loops += 1
    paths = []

    def walk(values, bits):
        done, got = attempt(values)
        if done:
            paths.append((bits, got))
        elif len(values) < loops:
            for value in range(2**got):
                walk((*values, value), bits + got)

    walk((), 0)
    total = sum(Fraction(1, 2**bits) for bits, _result in paths)
    return [(Fraction(1, 2**bits) / total, result) for bits, result in paths]


def exact_equilibrium(entries):
    """The indifference construction's (p, q) of a 2x2 game in exact
    rational arithmetic, each a ``Fraction``, or None where its
    denominator is zero. Every float is exactly a ``Fraction``, so no sum
    here rounds or overflows. Entries are laid out as in
    :func:`interior_equilibrium`."""
    a, b, c, d, e, f, g, h = map(Fraction, entries)
    den_p = e - f + h - g
    den_q = a - c + d - b
    return (h - g) / den_p if den_p else None, (d - b) / den_q if den_q else None
