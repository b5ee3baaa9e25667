"""Band-occupancy probabilities and the per-category 2x2 payoff games.

The network has ``n_bands`` spectrum bands, ``n_primary`` licensed users
(at most one per band, placed uniformly each slot), one opportunistic
secondary transmitter and one jammer. Every slot falls into one of three
information regimes:

* category A -- both players know the rival's band (they collided),
* category B -- only the jammer has located the secondary,
* category C -- a licensed user silences the secondary, so neither side
  learns anything and both stay put.

Categories A and B each induce a 2x2 bimatrix game over {switch, stay}
decisions; :func:`build_game` assembles their payoff entries from the
switching costs, the transmission gain, and the jamming gain/loss.

A :class:`NetworkConfig` raises :class:`ConfigError` for an invalid field;
a payoff field lies in ``[0, 2**1020]``, so each entry of its games
lies in ``[-2**1021, 2**1021]``, as every :class:`BimatrixGame` entry
must: no sum of four entries, and no slot payoff, overflows a float.

A player's policy in these games (:class:`FixedPolicy`, :class:`NashPolicy`
or :class:`FictitiousPlayPolicy`) is declared here, beside the categories
and :data:`FIRST_IS_SWITCH` that give its strategies their moves, so that
the CLI builds one without loading the simulator that plays it.
"""

from __future__ import annotations

import enum
import functools
import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "Category",
    "ConfigError",
    "FIRST_IS_SWITCH",
    "NetworkConfig",
    "DerivedProbabilities",
    "BimatrixGame",
    "derived_probabilities",
    "build_game",
    "FixedPolicy",
    "NashPolicy",
    "FictitiousPlayPolicy",
]


class Category(enum.IntEnum):
    """Information regime of a slot: who knows the rival's band. The values
    are the simulator's category codes; ``.name`` is the label."""

    A = 0  # both players located each other (jam happened)
    B = 1  # jammer knows the secondary's band, not vice versa
    C = 2  # secondary silenced by a licensed user; nobody knows anything


# build_game tests identity against these, not the enum class's attributes
_A, _B = Category.A, Category.B

#: Whether strategy 1 is a switch (strategy 2 being the other move), by
#: category code (A, B), then player (secondary, jammer). Only B's jammer
#: lists staying first.
FIRST_IS_SWITCH = ((True, True), (True, False))


_FLOAT_MAX = sys.float_info.max

#: Largest payoff entry magnitude, 2**1021: a sum of four entries is at
#: most 2**1023, below the largest float, and a payoff field, at most half
#: of it, makes no entry larger (IEEE rounding being monotone).
_MAX_ENTRY = 2.0**1021


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field or payoff
    entry, and is what the CLI reports."""


@dataclass(frozen=True, slots=True)
class FixedPolicy:
    """Play strategy 1 with a set probability, in every category. A
    probability outside [0, 1], or nan, is a ConfigError."""

    probability_first: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability_first <= 1.0:
            raise ConfigError(f"fixed probability must lie in [0, 1] (got {self.probability_first!r})")


@dataclass(frozen=True, slots=True)
class NashPolicy:
    """Sample the analytic mixed equilibrium of the current category's game.

    Plays the game's first :func:`nash.pure_equilibria` profile when the
    game is degenerate, which only a game with a pure equilibrium is.
    """


@dataclass(frozen=True, slots=True)
class FictitiousPlayPolicy:
    """Best-respond to the opponent counts observed in the current category."""


Policy = FixedPolicy | NashPolicy | FictitiousPlayPolicy


class NetworkConfig(
    namedtuple(
        "NetworkConfig",
        "n_bands n_primary cost_secondary_switch cost_malicious_switch"
        " gain_secondary gain_malicious loss_secondary",
        defaults=(10, 5, 5.0, 2.0, 50.0, 75.0, 100.0),
    )
):
    """Static network parameters. Defaults are the reference scenario.

    A checked named tuple: the constructor, ``_make`` and ``_replace`` raise
    ConfigError for an invalid field. A payoff field lies in [0, 2**1020].
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> NetworkConfig:
        self = super().__new__(cls, *args, **kwargs)
        n_bands, n_primary = self[:2]
        if not isinstance(n_bands, int) or n_bands < 2:
            raise ConfigError(
                f"n_bands must be an integer >= 2 (got {n_bands!r}); "
                "switching needs at least one other band"
            )
        if n_bands > _FLOAT_MAX:  # the games divide by n_bands - 1 as a float
            raise ConfigError(f"n_bands must be finite as a float (got {n_bands!r})")
        if not isinstance(n_primary, int) or not 0 <= n_primary <= n_bands:
            raise ConfigError(f"n_primary must be an integer in [0, n_bands] (got {n_primary!r})")
        for name, value in zip(self._fields[2:], self[2:]):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a number (got {value!r})")
            # false for NaN, infinities and an int past the bound alike
            if not 0 <= value <= _MAX_ENTRY / 2:
                raise ConfigError(f"{name} must lie in [0, 2**1020] (got {value!r})")
        return self

    @classmethod
    def _make(cls, iterable) -> NetworkConfig:
        return cls(*iterable)  # so that _replace checks the fields too


class DerivedProbabilities(NamedTuple):
    """Per-band occupancy probabilities seen by a player switching bands.

    ``p_primary`` is the chance any given band holds a licensed user.
    ``p_just_secondary`` is the chance the secondary's switch target holds
    neither a licensed user nor the jammer; ``p_secondary_and_malicious``
    the chance it holds the jammer but no licensed user.
    """

    p_primary: float
    p_just_secondary: float
    p_secondary_and_malicious: float


def derived_probabilities(config: NetworkConfig) -> DerivedProbabilities:
    """Occupancy probabilities for a uniformly chosen switch target.

    With both roamers picking uniformly among the ``n_bands - 1`` other
    bands and licensed users occupying each band with probability
    ``n_primary / n_bands``:

    * ``p_primary = n_primary / n_bands``
    * ``p_just_secondary = 1 - (1/(n-1) + p_primary - p_primary/(n-1))``
    * ``p_secondary_and_malicious = (1/(n-1)) * (1 - p_primary)``

    They depend only on ``(n_bands, n_primary)`` and are computed once per pair.
    """
    return _occupancy(config.n_bands, config.n_primary)


@functools.lru_cache(maxsize=1024)
def _occupancy(n_bands: int, n_primary: int) -> DerivedProbabilities:
    p_primary = n_primary / n_bands
    other = n_bands - 1
    p_just_secondary = 1.0 - (1.0 / other + p_primary - p_primary / other)
    p_secondary_and_malicious = (1.0 / other) * (1.0 - p_primary)
    return DerivedProbabilities(p_primary, p_just_secondary, p_secondary_and_malicious)


class BimatrixGame(namedtuple("BimatrixGame", "a b c d e f g h")):
    """2x2 bimatrix game: the secondary picks the row, the jammer the column.

    Strategies are indexed 1 and 2. Cell layout: (1,1) -> (a, e),
    (1,2) -> (b, f), (2,1) -> (c, g), (2,2) -> (d, h), with the first
    component paid to the secondary and the second to the jammer.
    Which strategy is a switch is :data:`FIRST_IS_SWITCH`'s to say.
    Every entry must lie in [-2**1021, 2**1021] (else ConfigError,
    naming the first that does not; nan and infinities never do). An
    immutable named tuple: a frozen dataclass would pay a guarded setattr
    per field on every build. :func:`build_game` skips this check, as a
    NetworkConfig's fields keep its entries in range.
    """

    __slots__ = ()

    def __new__(
        cls, a: float, b: float, c: float, d: float, e: float, f: float, g: float, h: float
    ) -> BimatrixGame:
        entries = (a, b, c, d, e, f, g, h)
        for name, x in zip("abcdefgh", entries):
            if not -_MAX_ENTRY <= x <= _MAX_ENTRY:
                raise ConfigError(f"payoff entry {name} must lie in [-2**1021, 2**1021] (got {x!r})")
        return tuple.__new__(cls, entries)

    @classmethod
    def _make(cls, iterable) -> BimatrixGame:
        return cls(*iterable)  # so that _replace checks the entries too


def build_game(config: NetworkConfig, category: Category) -> BimatrixGame:
    """Payoff game for ``Category.A`` or ``Category.B``; category C has no
    game, and any other value (the code 0, the label "A") is not a category.

    Category A (row = secondary, col = jammer, both over (switch, stay)):
    a switcher pays its switching cost and lands uniformly on one of the
    other bands; co-located players with no licensed user present realize
    the jam loss/gain; a licensed user on the secondary's band zeroes the
    slot for both.

    Category B (secondary rows (switch, stay); jammer columns
    (stay, switch-to-secondary's-band)): same outcome rules, except the
    (switch, switch) cell carries no secondary switching cost. That
    asymmetry is deliberate and load-bearing: the simulator's payoff rule,
    ``simulate.slot_payoffs``, mirrors this exact cost structure so that
    simulated slot averages reproduce these entries.

    ``config`` is a NetworkConfig, or its seven values in field order (a
    sweep cell, which ``cli._check_grid`` checked); unpacking it and calling
    the cached ``_occupancy`` does the float arithmetic of attribute reads.

    No entry is checked: each is a field times a probability in [0, 1], the
    sum of two such terms, or ``a``, with ``|a| <= cost_secondary_switch +
    max(gain_secondary, loss_secondary)``; so no field above 2**1020 means
    no entry above 2**1021 in magnitude.
    """
    n_bands, n_primary, c_s, c_m, g_s, g_m, l_s = config
    p_primary, p_just_secondary, p_secondary_and_malicious = _occupancy(n_bands, n_primary)
    clear = 1.0 - p_primary  # no licensed user on a given band
    # -c_s + roam, roam the expected outcome of a blind switch: clean band vs. landing on the jammer
    a = -c_s + (g_s * p_just_secondary - l_s * p_secondary_and_malicious)

    # entries in the order a, b, c, d (secondary), e, f, g, h (jammer)
    if category is _A:
        entries = (
            a, -c_s + g_s * clear, g_s * clear, -l_s * clear,
            -c_m + g_m * p_secondary_and_malicious, 0.0, -c_m, g_m * clear,
        )
    elif category is _B:
        entries = (
            a, g_s * clear, g_s * clear, -l_s * clear,
            g_m * p_secondary_and_malicious, -c_m, 0.0, g_m * clear - c_m,
        )
    elif category is Category.C:
        raise ValueError("category C has no game: both players stay")
    else:
        raise ValueError(f"category must be Category.A or Category.B (got {category!r})")
    return tuple.__new__(BimatrixGame, entries)
