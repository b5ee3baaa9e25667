"""Discrete-time band-hopping simulation of the jammer-vs-secondary network.

Slot loop: the current state's category is A (players share a band and
the jam revealed both positions), B (jammer elsewhere but has sensed the
secondary's band) or C (a licensed user silences the secondary); draw
both players' moves from their policies, settle movement against freshly
placed licensed users, classify the new state (the category the slot
settles into, the next slot's), then update the per-category observation
histories. The loop runs on plain ints and fills one row of the
preallocated columns of :class:`SimulationResult` per slot.

The policies the players follow are declared in :mod:`games`
(:class:`games.FixedPolicy`, :class:`games.NashPolicy`,
:class:`games.FictitiousPlayPolicy`) and imported here;
:func:`plan_policies` resolves them into draws once per run.

Payoffs are not kept: :func:`slot_payoffs` derives a slot's from its
categories before and after it and both moves, vectorized over any slice
of the record. Settlement realizes each slot from actual band positions,
never from the analytic payoff tables; the tables are reproduced as
Monte Carlo averages of these ground-truth outcomes.
Switching costs mirror the analytic tables' cost structure exactly,
including the category-B (switch, switch) cell that charges the
secondary nothing (see :func:`games.build_game`).

Observability is asymmetric: after an A or B slot whose successor is again
A or B, the jammer always learns the secondary's move (it senses every
band), while the secondary learns the jammer's move only if it stayed put
(its only sensor is whether it got jammed). Nothing is learned into or
out of category C. Observed moves are counted in the bucket of the
category they were chosen in.

Randomness per run, in draw order: initial secondary band, initial jammer
band, then the initial state, settled as a slot in which both players
stay (so only its licensed-user draw); then per slot: secondary action
draw, jammer action draw, licensed-user draw, secondary target band,
jammer target band (a policy whose strategy is certain -- fixed play with
probability 0 or 1, or Nash play of a pure equilibrium -- draws no
action, fictitious play draws only on ties, and no licensed-user draw is made
when ``n_primary`` is 0 or ``n_bands``). Licensed users are placed afresh
every slot, independent of the players; a slot needs of them only
whether one sits on the secondary's settled band (silenced: category C,
no jam), which has probability exactly ``n_primary / n_bands`` whatever
that band, so one draw below ``n_bands`` gives the process the law of
placing them all. Every draw below ``n`` (the initial bands, the licensed
user, the target bands) goes through one kernel, ``_below``:
``randrange(n)``'s own rejection sampler over ``getrandbits``, written
out: ``n.bit_length()`` bits, drawn again while at least ``n``, so it
consumes the same words and gives the same values as ``randrange(n)``.
Identical (config, policies, slots, seed) inputs replay identical runs.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .games import (
    FIRST_IS_SWITCH, BimatrixGame, Category, FictitiousPlayPolicy, FixedPolicy, NashPolicy, NetworkConfig, Policy,
    build_game,
)
from .learning import COUNT_SLICE, best_response, final_share, fit_to_counts, running_share
from .nash import EquilibriumReport, mixed_equilibrium, pure_equilibria

__all__ = [
    "A",
    "B",
    "C",
    "SimulationResult",
    "classify_state",
    "plan_policies",
    "choose_actions",
    "settle_slot",
    "slot_payoffs",
    "update_histories",
    "run_simulation",
]

#: Category codes of the slot loop and of ``SimulationResult.category``:
#: plain ints equal to the ``Category`` codes, whose compares and tuple
#: indexing the interpreter specialises, as it does not for an IntEnum.
A, B, C = map(int, Category)


def _below(n: int, rng: random.Random) -> int:
    """A uniform draw below ``n``: ``randrange(n)``'s rejection sampler over
    ``getrandbits``, written out, so the same words and the same value. Each
    try draws a word, even for ``n`` 1."""
    k = n.bit_length()
    pick = rng.getrandbits(k)
    while pick >= n:
        pick = rng.getrandbits(k)
    return pick


def classify_state(secondary_band: int, malicious_band: int, silenced: bool) -> int:
    """Category code: C if a licensed user silences the secondary (the
    jammer senses nothing), else A if co-located (a jam reveals both),
    else B (the jammer senses the secondary's band, unseen)."""
    if silenced:
        return C
    if malicious_band == secondary_band:
        return A
    return B


#: A resolved policy: (the category's per-move counts, generator) -> switch flag.
Draw = Callable[[list[int], random.Random], bool]


def _plan(
    policy: Policy, secondary: bool, order: tuple[bool, bool], game: BimatrixGame,
    equilibrium: EquilibriumReport, slots: int,
) -> Draw:
    own_first, rival_first = order if secondary else order[::-1]  # strategy 1 is a switch
    switch = (None, own_first, not own_first)  # by strategy index
    if isinstance(policy, FictitiousPlayPolicy):
        # the rival's strategies as offsets into the per-move counts
        # [secondary switch, secondary stay, jammer switch, jammer stay]
        base = 2 if secondary else 0
        i1, i2 = (base, base + 1) if rival_first else (base + 1, base)
        w = fit_to_counts(game, slots)
        x1, x2, y1, y2 = (w.a, w.b, w.c, w.d) if secondary else (w.e, w.g, w.f, w.h)

        def learn(counts: list[int], rng: random.Random) -> bool:
            n1, n2 = counts[i1], counts[i2]
            return switch[best_response(x1 * n1 + x2 * n2, y1 * n1 + y2 * n2, rng.random)]

        return learn
    if isinstance(policy, FixedPolicy):
        first = policy.probability_first
    elif not isinstance(policy, NashPolicy):
        raise TypeError(f"a policy must be a FixedPolicy, NashPolicy or FictitiousPlayPolicy (got {policy!r})")
    elif not equilibrium.degenerate:
        first = equilibrium.p if secondary else equilibrium.q
    else:  # a degenerate game has a pure equilibrium
        first = 1.0 if pure_equilibria(game)[0][0 if secondary else 1] == 1 else 0.0
    if first in (0.0, 1.0):  # a certain strategy draws nothing
        fixed = switch[1 if first else 2]
        return lambda counts, rng: fixed
    return lambda counts, rng: switch[1] if rng.random() < first else switch[2]


def plan_policies(
    policies: tuple[Policy, Policy], games: tuple[BimatrixGame, BimatrixGame], slots: int
) -> tuple[tuple[Draw, Draw], tuple[Draw, Draw]]:
    """The (secondary, jammer) ``policies`` in the games of category codes
    A and B, resolved once per run into (secondary, jammer) pairs of
    switch-flag draws, by :data:`games.FIRST_IS_SWITCH`.

    Fixed play, and Nash play of a mixed equilibrium, draw strategy 1
    with its probability; a probability of 0 or 1, like Nash play of a
    pure equilibrium, draws nothing. Fictitious play weights
    ``fit_to_counts(game, slots)`` by counts below ``slots``. Others raise TypeError.
    """
    policy_s, policy_m = policies
    return tuple(
        (_plan(policy_s, True, order, game, eq, slots), _plan(policy_m, False, order, game, eq, slots))
        for order, game, eq in zip(FIRST_IS_SWITCH, games, map(mixed_equilibrium, games))
    )


def choose_actions(
    category: int,
    plans: tuple[tuple[Draw, Draw], tuple[Draw, Draw]],
    histories: tuple[list[int], list[int]],
    rng: random.Random,
) -> tuple[bool, bool]:
    """Both players' switch flags for the slot, the secondary's drawn
    first. ``plans`` (from :func:`plan_policies`) and ``histories`` are
    indexed by category code (A, B); category C forces (stay, stay)."""
    if category == C:
        return (False, False)
    draw_s, draw_m = plans[category]
    counts = histories[category]
    return draw_s(counts, rng), draw_m(counts, rng)


def settle_slot(
    category: int,
    secondary_band: int,
    malicious_band: int,
    actions: tuple[bool, bool],
    config: NetworkConfig,
    rng: random.Random,
) -> tuple[int, int, bool]:
    """Resolve movement and fresh licensed users.

    Returns ``(secondary_band, malicious_band, silenced)`` after the slot,
    where ``silenced`` says a licensed user sits on the secondary's settled
    band; :func:`classify_state` decides a jam. Draw order, each draw
    below ``n`` made by :func:`_below`: the licensed-user draw first (below
    ``n_bands``, silenced if below ``n_primary``; none when ``n_primary``
    is 0 or ``n_bands``), then the secondary's target band if it switches
    (below ``n_bands - 1``, skipping its own band), then the jammer's
    (category A only; in category B a switching jammer goes straight to
    the secondary's prior band). In category C both players stay, as
    :func:`choose_actions` decides; :func:`run_simulation` settles the
    initial state as such a slot.
    """
    switch_s, switch_m = actions
    n_bands, n_primary = config.n_bands, config.n_primary
    silenced = _below(n_bands, rng) < n_primary if 0 < n_primary < n_bands else n_primary > 0
    sec_band = secondary_band
    mal_band = malicious_band
    if switch_s:
        pick = _below(n_bands - 1, rng)
        sec_band = pick + (pick >= secondary_band)
    if switch_m:
        if category == A:
            pick = _below(n_bands - 1, rng)
            mal_band = pick + (pick >= malicious_band)
        else:
            mal_band = secondary_band
    return sec_band, mal_band, silenced


def slot_payoffs(
    config: NetworkConfig,
    category: np.ndarray,
    settled: np.ndarray,
    secondary_switch: np.ndarray,
    malicious_switch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The secondary's and the jammer's realized payoff in each slot of
    equal-length columns, as :class:`SimulationResult` holds them.

    By the settled category, the secondary loses the jam loss in A, earns
    its gain in B and zero in C (silenced); the jammer earns its gain in A.
    Switch costs mirror the analytic tables: each switch pays its cost,
    except that in category B a switching secondary pays nothing when the
    jammer switches too (onto the band the secondary left). An uncharged
    slot's payoff is never touched. The fields are taken as floats, so an
    int field counts as its float; each is at most 2**1020, so every payoff
    is finite.
    """
    cost_s, cost_m, gain_s, gain_m, loss_s = map(float, config[2:])
    # tables indexed by category code (A, B, C)
    payoff_s = np.array((-loss_s, gain_s, 0.0)).take(settled)
    charged = secondary_switch & ((category == A) | ~malicious_switch)
    np.subtract(payoff_s, cost_s, out=payoff_s, where=charged)
    payoff_m = np.array((gain_m, 0.0, 0.0)).take(settled)
    np.subtract(payoff_m, cost_m, out=payoff_m, where=malicious_switch)
    return payoff_s, payoff_m


def update_histories(
    prev_category: int,
    actions: tuple[bool, bool],
    next_category: int,
    histories: tuple[list[int], list[int]],
) -> tuple[bool, bool]:
    """Count the slot's observations in place.

    ``histories`` holds one list per category code (A, B): how often the
    jammer saw the secondary switch and stay, then how often the
    secondary saw the jammer switch and stay. Returns whether the jammer
    recorded the secondary's move and whether the secondary recorded the
    jammer's.

    Observations require an A/B slot whose successor is again A or B: a
    category-C endpoint on either side means the secondary was silent, so
    there was no transmission to sense and no jam to feel. Within that
    window the jammer always records the secondary's move (it senses every
    band). The secondary's only evidence is a jam / no-jam on its own
    band, which identifies the jammer's move in exactly two cases: when
    the secondary stayed put, and when the outcome is a jam (category A
    next) -- a jam after switching can only mean the jammer followed it
    (from A) or sat on the band it landed on (from B). A switch that ends
    unjammed is uninformative, so nothing is recorded then. Counts land in
    the bucket of the category the actions were chosen in.
    """
    if prev_category == C or next_category == C:
        return (False, False)
    switch_s, switch_m = actions
    counts = histories[prev_category]
    counts[0 if switch_s else 1] += 1
    if switch_s and next_category != A:
        return (True, False)
    counts[2 if switch_m else 3] += 1
    return (True, True)


@dataclass(eq=False)
class SimulationResult:
    """Column-oriented record of a run of ``config``: row ``t`` is slot ``t``.

    ``category`` holds each slot's category code before its moves and
    ``settled`` the one it settles into (A on a jam, C when silenced):
    views of one buffer, ``settled[t]`` being ``category[t + 1]``.
    ``secondary_band`` and ``malicious_band`` are the pre-action state;
    the switch flags are the players' moves.
    ``seen_by_malicious`` marks the slots whose secondary move the jammer
    recorded, ``seen_by_secondary`` those whose jammer move the secondary
    recorded. Payoffs, running and final frequencies and the cumulative
    payoffs are derived on demand.
    """

    config: NetworkConfig
    category: np.ndarray
    settled: np.ndarray
    secondary_band: np.ndarray
    malicious_band: np.ndarray
    secondary_switch: np.ndarray
    malicious_switch: np.ndarray
    seen_by_malicious: np.ndarray
    seen_by_secondary: np.ndarray

    def __len__(self) -> int:
        return int(self.category.shape[0])

    def payoffs(self, part: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """The secondary's and the jammer's payoff in each slot of ``part``
        (every slot by default), by :func:`slot_payoffs`."""
        return slot_payoffs(
            self.config, self.category[part], self.settled[part], self.secondary_switch[part],
            self.malicious_switch[part],
        )

    def _observed(self, category: int):
        """``(moves, first, recorded)`` of the secondary's, then the
        jammer's, moves in category code A or B, for :func:`running_share`:
        the switch flags, the flag of strategy 1
        (:data:`games.FIRST_IS_SWITCH`) and the moves the rival recorded
        there."""
        here = self.category == category
        first_s, first_m = FIRST_IS_SWITCH[category]
        return (
            (self.secondary_switch, first_s, self.seen_by_malicious & here),
            (self.malicious_switch, first_m, self.seen_by_secondary & here),
        )

    def running_frequencies(self, category: int, size: int):
        """Yield ``(lo, p_star, q_star)`` for consecutive slices of at most
        ``size`` slots: the running (p*, q*) of category code A or B after
        slots lo, lo+1, ..., equal to those of one pass.

        p* is the secondary's strategy-1 share among its moves the jammer
        recorded in that category, q* the jammer's among its moves the
        secondary recorded; nan until the first such record.
        """
        p_star, q_star = (running_share(*read, size) for read in self._observed(category))
        return zip(range(0, len(self), size), p_star, q_star)

    def final_frequencies(self, category: int) -> tuple[float, float]:
        """(p*, q*) of category code A or B after the last slot, as
        :meth:`running_frequencies` ends; nan without a record."""
        p_star, q_star = (final_share(*read) for read in self._observed(category))
        return p_star, q_star

    def cumulative_payoffs(self) -> tuple[float, float]:
        """The secondary's and the jammer's payoffs summed over the run, left
        to right from 0.0, :data:`learning.COUNT_SLICE` slots at a time: ±inf
        when a sum overflows, never nan, as every slot's payoff is finite."""
        totals = (0.0, 0.0)
        with np.errstate(over="ignore"):
            for lo in range(0, len(self), COUNT_SLICE):
                # carried into a running sum, which np.sum's pairwise one is not
                totals = tuple(
                    np.cumsum(np.concatenate(([total], payoff)))[-1]
                    for total, payoff in zip(totals, self.payoffs(slice(lo, lo + COUNT_SLICE)))
                )
        return float(totals[0]), float(totals[1])


def run_simulation(
    config: NetworkConfig,
    policies: tuple[Policy, Policy],
    slots: int,
    seed: int,
) -> SimulationResult:
    """Run the slot loop from a uniformly random initial state, the
    secondary playing ``policies[0]`` and the jammer ``policies[1]``.

    Per slot: record the state, choose actions, settle, classify the new
    state, update histories. Deterministic in (config, policies, slots,
    seed).
    """
    if slots < 1:
        raise ValueError(f"slots must be >= 1 (got {slots!r})")
    rng = random.Random(seed)
    games = (build_game(config, Category.A), build_game(config, Category.B))
    plans = plan_policies(policies, games, slots)
    # the band columns stay NumPy arrays: past 2**64 bands they hold objects
    band = np.min_scalar_type(config.n_bands - 1)
    secondary_band = np.empty(slots, band)
    malicious_band = np.empty(slots, band)
    # one-byte columns fill bytearrays: their item stores cost a third of NumPy's
    secondary_switch, malicious_switch, seen_by_malicious, seen_by_secondary = (bytearray(slots) for _ in range(4))
    states = bytearray(slots + 1)  # each slot's category, then the one the last slot settles into

    sec = _below(config.n_bands, rng)
    mal = _below(config.n_bands, rng)
    cat = classify_state(*settle_slot(C, sec, mal, (False, False), config, rng))
    histories = ([0, 0, 0, 0], [0, 0, 0, 0])
    for t in range(slots):
        states[t] = cat
        secondary_band[t] = sec
        malicious_band[t] = mal
        actions = choose_actions(cat, plans, histories, rng)
        secondary_switch[t], malicious_switch[t] = actions
        sec, mal, silenced = settle_slot(cat, sec, mal, actions, config, rng)
        next_cat = classify_state(sec, mal, silenced)
        seen_by_malicious[t], seen_by_secondary[t] = update_histories(
            cat, actions, next_cat, histories
        )
        cat = next_cat
    states[slots] = cat
    view = np.frombuffer
    codes = view(states, np.int8)
    return SimulationResult(
        config, codes[:-1], codes[1:], secondary_band, malicious_band,
        view(secondary_switch, bool), view(malicious_switch, bool),
        view(seen_by_malicious, bool), view(seen_by_secondary, bool),
    )
