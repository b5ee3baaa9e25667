"""Independent oracles the tests check the library against.

Everything here recomputes results from first principles (grid search,
direct Monte Carlo placement, stage-by-stage replay) without going
through the code paths under test.
"""

import random

import numpy as np

GRID_STEP = 1e-3
GRID_GAIN_TOL = 1e-2


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


def fp_replay(game, iterations, seed):
    """Best-response learning replayed stage by stage from the payoff cells.

    The documented rule: each stage a player weights its payoff in every
    cell by how often the rival has played that cell's rival strategy,
    and plays the strategy with the larger total. Totals within
    ``1e-9 * max(1, |u1|, |u2|)`` of each other tie, and a tie is a fair
    coin (``random() < 0.5`` picks strategy 1) on one ``random.Random(seed)``,
    the secondary's coin before the jammer's. Returns the two action lists.
    """
    rng = random.Random(seed)

    def pick(u1, u2):
        if abs(u1 - u2) <= 1e-9 * max(1.0, abs(u1), abs(u2)):
            return 1 if rng.random() < 0.5 else 2
        return 1 if u1 > u2 else 2

    played_s = {1: 0, 2: 0}
    played_m = {1: 0, 2: 0}
    actions_s, actions_m = [], []
    for _ in range(iterations):
        u_s = [sum(game.row_payoff(row, col) * played_m[col] for col in (1, 2)) for row in (1, 2)]
        u_m = [sum(game.col_payoff(row, col) * played_s[row] for row in (1, 2)) for col in (1, 2)]
        action_s = pick(*u_s)
        action_m = pick(*u_m)
        played_s[action_s] += 1
        played_m[action_m] += 1
        actions_s.append(action_s)
        actions_m.append(action_m)
    return actions_s, actions_m
