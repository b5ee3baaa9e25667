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
band, initial licensed users; then per slot: secondary action draw,
jammer action draw, next licensed users, secondary target band, jammer
target band. Identical (config, policies, slots, seed) inputs replay
identical runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .games import BimatrixGame, Category, NetworkConfig, build_game
from .learning import best_response
from .nash import EquilibriumReport, mixed_equilibrium

__all__ = [
    "A",
    "B",
    "C",
    "CATEGORIES",
    "FixedPolicy",
    "NashPolicy",
    "FictitiousPlayPolicy",
    "PolicySpec",
    "SimulationSummary",
    "SimulationResult",
    "place_primaries",
    "classify_state",
    "choose_actions",
    "settle_slot",
    "update_histories",
    "run_simulation",
]

#: Category codes of the slot loop and of ``SimulationResult.category``;
#: each indexes its :class:`Category` in ``CATEGORIES``.
A, B, C = range(3)
CATEGORIES = (Category.A, Category.B, Category.C)


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


def place_primaries(config: NetworkConfig, rng: random.Random) -> list[int]:
    """Uniformly place the licensed users on distinct bands.

    Sampling without replacement makes each band's marginal occupancy
    exactly ``n_primary / n_bands``.
    """
    if config.n_primary > config.n_bands:
        raise ValueError("cannot place more licensed users than bands")
    return rng.sample(range(config.n_bands), config.n_primary)


def classify_state(secondary_band: int, malicious_band: int, primaries: list[int]) -> int:
    """Category code of an occupancy.

    A licensed user on the secondary's band silences it, leaving the
    jammer nothing to sense: category C. Otherwise the secondary
    transmits, and co-location means a jam revealing both positions
    (category A); in any other case the jammer senses the secondary's
    band while staying invisible itself (category B).
    """
    if secondary_band in primaries:
        return C
    if malicious_band == secondary_band:
        return A
    return B


#: Offset of each move in a per-move count list: [secondary switch,
#: secondary stay, jammer switch, jammer stay].
_MOVE = {"switch": 0, "stay": 1}


def _draw_strategy(
    policy: Policy,
    is_secondary: bool,
    game: BimatrixGame,
    counts: list[int],
    equilibrium: EquilibriumReport,
    rng: random.Random,
) -> int:
    if isinstance(policy, FixedPolicy):
        return 1 if rng.random() < policy.probability_first else 2
    if isinstance(policy, NashPolicy):
        if equilibrium.mixed is not None:
            prob = (
                equilibrium.mixed.p_secondary_first
                if is_secondary
                else equilibrium.mixed.q_malicious_first
            )
            return 1 if rng.random() < prob else 2
        if equilibrium.pure:
            row, col = equilibrium.pure[0]
            return row if is_secondary else col
        return 1 if rng.random() < 0.5 else 2
    # count-weighted utilities against the rival's moves in its strategy order
    if is_secondary:
        n1 = counts[2 + _MOVE[game.col_labels[0]]]
        n2 = counts[2 + _MOVE[game.col_labels[1]]]
        return best_response(game.a * n1 + game.b * n2, game.c * n1 + game.d * n2, rng.random)
    n1 = counts[_MOVE[game.row_labels[0]]]
    n2 = counts[_MOVE[game.row_labels[1]]]
    return best_response(game.e * n1 + game.g * n2, game.f * n1 + game.h * n2, rng.random)


def choose_actions(
    category: int,
    policies: PolicySpec,
    games: tuple[BimatrixGame, BimatrixGame],
    histories: tuple[list[int], list[int]],
    rng: random.Random,
    equilibria: tuple[EquilibriumReport, EquilibriumReport] | None = None,
) -> tuple[bool, bool]:
    """Both players' switch flags for the slot.

    ``games``, ``histories`` and ``equilibria`` are indexed by category
    code (A, B). Category C forces (stay, stay) with no policy or
    randomness involved. In A and B the secondary's draw precedes the
    jammer's, and each drawn strategy index becomes a move through the
    game's labels.
    """
    if category == C:
        return (False, False)
    game = games[category]
    counts = histories[category]
    if equilibria is not None:
        equilibrium = equilibria[category]
    else:
        equilibrium = mixed_equilibrium(game)
    strat_s = _draw_strategy(policies.secondary, True, game, counts, equilibrium, rng)
    strat_m = _draw_strategy(policies.malicious, False, game, counts, equilibrium, rng)
    return (
        game.row_labels[strat_s - 1] == "switch",
        game.col_labels[strat_m - 1] == "switch",
    )


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
) -> tuple[int, int, list[int], bool, float, float]:
    """Resolve movement, fresh licensed users, jam and realized payoffs.

    Returns ``(secondary_band, malicious_band, primaries, jam, payoff_s,
    payoff_m)`` after the slot. Draw order: licensed users first, then the
    secondary's target band (if it switches), then the jammer's (category
    A only; in category B a switching jammer goes straight to the
    secondary's prior band). In category C nobody moves.

    Payoffs come from the post-move occupancy: the secondary earns its
    gain when transmitting unjammed, loses the jam loss when co-located
    with the jammer on a licensed-user-free band, and earns zero under a
    licensed user; the jammer earns its gain exactly on a jam. Switch
    costs mirror the analytic tables: normal in category A, and in
    category B the secondary's cost applies only when the jammer stays.
    """
    switch_s, switch_m = actions
    primaries = place_primaries(config, rng)
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
    silenced = sec_band in primaries
    jam = (not silenced) and mal_band == sec_band
    payoff_s = 0.0 if silenced else (-config.loss_secondary if jam else config.gain_secondary)
    payoff_m = config.gain_malicious if jam else 0.0
    if category != C:
        if switch_s and (category == A or not switch_m):
            payoff_s -= config.cost_secondary_switch
        if switch_m:
            payoff_m -= config.cost_malicious_switch
    return sec_band, mal_band, primaries, jam, payoff_s, payoff_m


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

    def dwell_fraction(self, category: Category) -> float:
        return self.category_counts[category] / self.slots if self.slots else float("nan")


@dataclass(eq=False)
class SimulationResult:
    """Column-oriented record of a run: row ``t`` is slot ``t``.

    ``category`` holds category codes. ``secondary_band``,
    ``malicious_band`` and ``primary_bands`` (one row of ``n_primary``
    licensed-user bands per slot) are the pre-action state; the switch
    flags are the players' moves; ``jam`` and the payoffs are the settled
    outcome. ``seen_by_malicious`` marks the slots whose secondary move
    the jammer recorded, ``seen_by_secondary`` those whose jammer move the
    secondary recorded. Observation totals, running frequencies and the
    summary are derived on demand.
    """

    games: tuple[BimatrixGame, BimatrixGame]
    category: np.ndarray
    secondary_band: np.ndarray
    malicious_band: np.ndarray
    primary_bands: np.ndarray
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

    def frequencies(self, category: int) -> tuple[np.ndarray, np.ndarray]:
        """Running (p*, q*) of category code A or B after each slot.

        p* is the secondary's strategy-1 share among its moves the jammer
        recorded in that category, q* the jammer's among its moves the
        secondary recorded; nan until the first such record.
        """
        game = self.games[category]
        here = self.category == category
        seen_s = self.seen_by_malicious & here
        seen_m = self.seen_by_secondary & here
        first_s = self.secondary_switch == (game.row_labels[0] == "switch")
        first_m = self.malicious_switch == (game.col_labels[0] == "switch")
        return (
            _running_frequency(seen_s & first_s, seen_s),
            _running_frequency(seen_m & first_m, seen_m),
        )

    @cached_property
    def summary(self) -> SimulationSummary:
        p_a, q_a = self.frequencies(A)
        p_b, q_b = self.frequencies(B)
        dwell = np.bincount(self.category, minlength=len(CATEGORIES))
        return SimulationSummary(
            slots=len(self),
            cumulative_secondary_payoff=_total(self.secondary_payoff),
            cumulative_malicious_payoff=_total(self.malicious_payoff),
            category_counts={cat: int(n) for cat, n in zip(CATEGORIES, dwell)},
            jam_count=int(np.count_nonzero(self.jam)),
            malicious_observations=int(np.count_nonzero(self.seen_by_malicious)),
            secondary_observations=int(np.count_nonzero(self.seen_by_secondary)),
            p_star_a=float(p_a[-1]),
            q_star_a=float(q_a[-1]),
            p_star_b=float(p_b[-1]),
            q_star_b=float(q_b[-1]),
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
    equilibria = (mixed_equilibrium(games[A]), mixed_equilibrium(games[B]))
    band = np.min_scalar_type(config.n_bands - 1)
    category = np.empty(slots, np.int8)
    secondary_band = np.empty(slots, band)
    malicious_band = np.empty(slots, band)
    primary_bands = np.empty((slots, config.n_primary), band)
    secondary_switch = np.empty(slots, bool)
    malicious_switch = np.empty(slots, bool)
    jam = np.empty(slots, bool)
    secondary_payoff = np.empty(slots)
    malicious_payoff = np.empty(slots)
    seen_by_malicious = np.empty(slots, bool)
    seen_by_secondary = np.empty(slots, bool)

    sec = rng.randrange(config.n_bands)
    mal = rng.randrange(config.n_bands)
    primaries = place_primaries(config, rng)
    cat = classify_state(sec, mal, primaries)
    histories = ([0, 0, 0, 0], [0, 0, 0, 0])
    for t in range(slots):
        category[t] = cat
        secondary_band[t] = sec
        malicious_band[t] = mal
        primary_bands[t] = primaries
        actions = choose_actions(cat, policies, games, histories, rng, equilibria)
        secondary_switch[t], malicious_switch[t] = actions
        sec, mal, primaries, jam[t], secondary_payoff[t], malicious_payoff[t] = settle_slot(
            cat, sec, mal, actions, config, rng
        )
        next_cat = classify_state(sec, mal, primaries)
        seen_by_malicious[t], seen_by_secondary[t] = update_histories(
            cat, actions, next_cat, histories
        )
        cat = next_cat
    return SimulationResult(
        games, category, secondary_band, malicious_band, primary_bands,
        secondary_switch, malicious_switch, jam, secondary_payoff, malicious_payoff,
        seen_by_malicious, seen_by_secondary,
    )
