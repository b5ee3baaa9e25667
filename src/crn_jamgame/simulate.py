"""Discrete-time band-hopping simulation of the jammer-vs-secondary network.

Slot loop: the current state's category is A (players share a band and
the jam revealed both positions), B (jammer elsewhere but has sensed the
secondary's band) or C (a licensed user silences the secondary); draw
both players' moves from their policies, settle movement and payoffs
against freshly placed licensed users, classify the new state (the next
slot's category), then update the per-category observation histories.
The loop runs on plain ints and fills one row of the preallocated
columns of :class:`SimulationResult` per slot.

Settlement realizes each slot from actual band positions, never from the
analytic payoff tables; the tables are reproduced as Monte Carlo averages
of these ground-truth outcomes. Switching costs mirror the analytic
tables' cost structure exactly, including the category-B (switch, switch)
cell that charges the secondary nothing (see :func:`games.build_game`).

Observability is asymmetric: after an A or B slot whose successor is again
A or B, the jammer always learns the secondary's move (it senses every
band), while the secondary learns the jammer's move only if it stayed put
(its only sensor is whether it got jammed). Nothing is learned into or
out of category C. Observed moves are counted in the bucket of the
category they were chosen in.

Randomness per run, in draw order: initial secondary band, initial jammer
band, initial licensed-user draw; then per slot: secondary action draw,
jammer action draw, licensed-user draw, secondary target band, jammer
target band (a policy whose strategy is certain -- fixed play with
probability 0 or 1, or Nash play of a pure equilibrium -- draws no
action, fictitious play draws only on ties, and no licensed-user draw is made
when ``n_primary`` is 0 or ``n_bands``). Licensed users are placed afresh
every slot, independent of the players; a slot needs of them only
whether one sits on the secondary's settled band (silenced: category C,
no jam), which has probability exactly ``n_primary / n_bands`` whatever
that band, so one draw (:func:`draw_silenced`) gives the process the law
of placing them all. Identical (config, policies, slots, seed) inputs
replay identical runs.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .games import FIRST_IS_SWITCH, BimatrixGame, Category, NetworkConfig, build_game
from .learning import best_response, fit_to_counts
from .nash import EquilibriumReport, mixed_equilibrium

__all__ = [
    "A",
    "B",
    "C",
    "FixedPolicy",
    "NashPolicy",
    "FictitiousPlayPolicy",
    "PolicySpec",
    "SimulationSummary",
    "SimulationResult",
    "draw_silenced",
    "classify_state",
    "plan_policies",
    "choose_actions",
    "settle_slot",
    "update_histories",
    "run_simulation",
]

#: Category codes of the slot loop and of ``SimulationResult.category``.
A, B, C = Category


@dataclass(frozen=True, slots=True)
class FixedPolicy:
    """Play strategy 1 with a set probability, in every category."""

    probability_first: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability_first <= 1.0:
            raise ValueError(
                f"probability_first must lie in [0, 1] (got {self.probability_first!r})"
            )


@dataclass(frozen=True, slots=True)
class NashPolicy:
    """Sample the analytic mixed equilibrium of the current category's game.

    Falls back to the first pure equilibrium (or a fair coin if there is
    none) when the game has no mixed equilibrium.
    """


@dataclass(frozen=True, slots=True)
class FictitiousPlayPolicy:
    """Best-respond to the opponent counts observed in the current category."""


Policy = FixedPolicy | NashPolicy | FictitiousPlayPolicy


@dataclass(frozen=True, slots=True)
class PolicySpec:
    """Which decision rule each player uses in categories A and B."""

    secondary: Policy
    malicious: Policy


def draw_silenced(config: NetworkConfig, rng: random.Random) -> bool:
    """Whether a licensed user sits on the secondary's band: one
    ``randrange(n_bands) < n_primary`` draw, none when that is certain."""
    if 0 < config.n_primary < config.n_bands:
        return rng.randrange(config.n_bands) < config.n_primary
    return config.n_primary > 0


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
    elif not equilibrium.degenerate:
        first = equilibrium.p if secondary else equilibrium.q
    elif equilibrium.pure:
        first = 1.0 if equilibrium.pure[0][0 if secondary else 1] == 1 else 0.0
    else:
        first = 0.5
    if first in (0.0, 1.0):  # a certain strategy draws nothing
        fixed = switch[1 if first else 2]
        return lambda counts, rng: fixed
    return lambda counts, rng: switch[1] if rng.random() < first else switch[2]


def plan_policies(
    policies: PolicySpec, games: tuple[BimatrixGame, BimatrixGame], slots: int
) -> tuple[tuple[Draw, Draw], tuple[Draw, Draw]]:
    """Both players' policies in the games of category codes A and B,
    resolved once per run into (secondary, jammer) pairs of switch-flag
    draws, by :data:`games.FIRST_IS_SWITCH`.

    Fixed play, and Nash play of a mixed equilibrium, draw strategy 1
    with its probability; a probability of 0 or 1, like Nash play of a
    pure equilibrium, draws nothing. Fictitious play weights
    ``fit_to_counts(game, slots)`` by counts below ``slots``.
    """
    policy_s, policy_m = policies.secondary, policies.malicious
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


def _other_band(current: int, n_bands: int, rng: random.Random) -> int:
    """Uniform draw over all bands except ``current``."""
    pick = rng.randrange(n_bands - 1)
    return pick + 1 if pick >= current else pick


def settle_slot(
    category: int,
    secondary_band: int,
    malicious_band: int,
    actions: tuple[bool, bool],
    config: NetworkConfig,
    rng: random.Random,
) -> tuple[int, int, bool, bool, float, float]:
    """Resolve movement, fresh licensed users, jam and realized payoffs.

    Returns ``(secondary_band, malicious_band, silenced, jam, payoff_s,
    payoff_m)`` after the slot, where ``silenced`` says a licensed user
    sits on the secondary's settled band. Draw order: the licensed-user
    draw first (:func:`draw_silenced`), then the secondary's target band
    (if it switches), then the jammer's (category A only; in category B a
    switching jammer goes straight to the secondary's prior band). In
    category C nobody moves.

    Payoffs come from the post-move occupancy: the secondary earns its
    gain when transmitting unjammed, loses the jam loss when co-located
    with the jammer on a licensed-user-free band, and earns zero under a
    licensed user; the jammer earns its gain exactly on a jam. Switch
    costs mirror the analytic tables: normal in category A, and in
    category B the secondary's cost applies only when the jammer stays.
    """
    switch_s, switch_m = actions
    silenced = draw_silenced(config, rng)
    sec_band = secondary_band
    mal_band = malicious_band
    if category != C:
        if switch_s:
            sec_band = _other_band(secondary_band, config.n_bands, rng)
        if switch_m:
            if category == A:
                mal_band = _other_band(malicious_band, config.n_bands, rng)
            else:
                mal_band = secondary_band
    jam = (not silenced) and mal_band == sec_band
    payoff_s = 0.0 if silenced else (-config.loss_secondary if jam else config.gain_secondary)
    payoff_m = config.gain_malicious if jam else 0.0
    if category != C:
        if switch_s and (category == A or not switch_m):
            payoff_s -= config.cost_secondary_switch
        if switch_m:
            payoff_m -= config.cost_malicious_switch
    return sec_band, mal_band, silenced, jam, payoff_s, payoff_m


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


def _running_frequency(hits: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """Share of hits among the observations so far; nan before the first."""
    with np.errstate(invalid="ignore"):
        return np.cumsum(hits) / np.cumsum(seen)


def _final_frequency(hits: np.ndarray, seen: np.ndarray) -> float:
    """The last value of ``_running_frequency``, from the two counts."""
    n = int(np.count_nonzero(seen))
    return int(np.count_nonzero(hits)) / n if n else float("nan")


def _total(payoffs: np.ndarray) -> float:
    """Left-to-right sum from 0.0, the same float a running total gives."""
    return 0.0 + float(np.cumsum(payoffs)[-1])


@dataclass(frozen=True, slots=True)
class SimulationSummary:
    """Run-level aggregates."""

    slots: int
    cumulative_secondary_payoff: float
    cumulative_malicious_payoff: float
    category_counts: dict[Category, int]
    jam_count: int
    malicious_observations: int
    secondary_observations: int
    p_star_a: float
    q_star_a: float
    p_star_b: float
    q_star_b: float


@dataclass(eq=False)
class SimulationResult:
    """Column-oriented record of a run: row ``t`` is slot ``t``.

    ``category`` holds category codes (C exactly when a licensed user
    silenced the secondary). ``secondary_band`` and ``malicious_band``
    are the pre-action state; the switch flags are the players' moves;
    ``jam`` and the payoffs are the settled outcome.
    ``seen_by_malicious`` marks the slots whose secondary move the jammer
    recorded, ``seen_by_secondary`` those whose jammer move the secondary
    recorded. Observation totals, running frequencies and the
    summary are derived on demand.
    """

    games: tuple[BimatrixGame, BimatrixGame]
    category: np.ndarray
    secondary_band: np.ndarray
    malicious_band: np.ndarray
    secondary_switch: np.ndarray
    malicious_switch: np.ndarray
    jam: np.ndarray
    secondary_payoff: np.ndarray
    malicious_payoff: np.ndarray
    seen_by_malicious: np.ndarray
    seen_by_secondary: np.ndarray

    def __len__(self) -> int:
        return int(self.category.shape[0])

    def observation_totals(self) -> tuple[np.ndarray, np.ndarray]:
        """Moves recorded so far, both categories: (by the jammer, by the secondary)."""
        return np.cumsum(self.seen_by_malicious), np.cumsum(self.seen_by_secondary)

    def _observed(self, category: int):
        """Yield ``(hits, seen)`` masks of the secondary's, then the
        jammer's, recorded moves in category code A or B: ``seen`` marks
        the moves the rival recorded there, ``hits`` those of them that
        are strategy 1 (:data:`games.FIRST_IS_SWITCH`)."""
        here = self.category == category
        first_s, first_m = FIRST_IS_SWITCH[category]
        for seen_by_rival, switch, first_is_switch in (
            (self.seen_by_malicious, self.secondary_switch, first_s),
            (self.seen_by_secondary, self.malicious_switch, first_m),
        ):
            seen = seen_by_rival & here
            yield seen & (switch == first_is_switch), seen

    def frequencies(self, category: int) -> tuple[np.ndarray, np.ndarray]:
        """Running (p*, q*) of category code A or B after each slot.

        p* is the secondary's strategy-1 share among its moves the jammer
        recorded in that category, q* the jammer's among its moves the
        secondary recorded; nan until the first such record.
        """
        p_star, q_star = (_running_frequency(*masks) for masks in self._observed(category))
        return p_star, q_star

    @cached_property
    def summary(self) -> SimulationSummary:
        p_a, q_a = (_final_frequency(*masks) for masks in self._observed(A))
        p_b, q_b = (_final_frequency(*masks) for masks in self._observed(B))
        dwell = np.bincount(self.category, minlength=len(Category))
        return SimulationSummary(
            slots=len(self),
            cumulative_secondary_payoff=_total(self.secondary_payoff),
            cumulative_malicious_payoff=_total(self.malicious_payoff),
            category_counts={cat: int(n) for cat, n in zip(Category, dwell)},
            jam_count=int(np.count_nonzero(self.jam)),
            malicious_observations=int(np.count_nonzero(self.seen_by_malicious)),
            secondary_observations=int(np.count_nonzero(self.seen_by_secondary)),
            p_star_a=p_a,
            q_star_a=q_a,
            p_star_b=p_b,
            q_star_b=q_b,
        )


def run_simulation(
    config: NetworkConfig,
    policies: PolicySpec,
    slots: int,
    seed: int,
) -> SimulationResult:
    """Run the slot loop from a uniformly random initial state.

    Per slot: record the state, choose actions, settle, classify the new
    state, update histories. Deterministic in (config, policies, slots,
    seed).
    """
    if slots < 1:
        raise ValueError(f"slots must be >= 1 (got {slots!r})")
    rng = random.Random(seed)
    games = (build_game(config, Category.A), build_game(config, Category.B))
    plans = plan_policies(policies, games, slots)
    band = np.min_scalar_type(config.n_bands - 1)
    secondary_band = np.empty(slots, band)
    malicious_band = np.empty(slots, band)
    secondary_payoff = np.empty(slots)
    malicious_payoff = np.empty(slots)
    # one-byte columns fill bytearrays: their item stores cost a third of NumPy's
    category, secondary_switch, malicious_switch, jam, seen_by_malicious, seen_by_secondary = (
        bytearray(slots) for _ in range(6)
    )

    sec = rng.randrange(config.n_bands)
    mal = rng.randrange(config.n_bands)
    cat = classify_state(sec, mal, draw_silenced(config, rng))
    histories = ([0, 0, 0, 0], [0, 0, 0, 0])
    for t in range(slots):
        category[t] = cat
        secondary_band[t] = sec
        malicious_band[t] = mal
        actions = choose_actions(cat, plans, histories, rng)
        secondary_switch[t], malicious_switch[t] = actions
        sec, mal, silenced, jam[t], secondary_payoff[t], malicious_payoff[t] = settle_slot(
            cat, sec, mal, actions, config, rng
        )
        next_cat = classify_state(sec, mal, silenced)
        seen_by_malicious[t], seen_by_secondary[t] = update_histories(
            cat, actions, next_cat, histories
        )
        cat = next_cat
    view = np.frombuffer
    return SimulationResult(
        games, view(category, np.int8), secondary_band, malicious_band,
        view(secondary_switch, bool), view(malicious_switch, bool), view(jam, bool),
        secondary_payoff, malicious_payoff,
        view(seen_by_malicious, bool), view(seen_by_secondary, bool),
    )
