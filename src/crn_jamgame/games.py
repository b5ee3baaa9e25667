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
"""

from __future__ import annotations

import enum
import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "Category",
    "NetworkConfig",
    "DerivedProbabilities",
    "BimatrixGame",
    "derived_probabilities",
    "build_game",
]


class Category(enum.Enum):
    """Information regime of a slot: who knows the rival's band."""

    A = "A"  # both players located each other (jam happened)
    B = "B"  # jammer knows the secondary's band, not vice versa
    C = "C"  # secondary silenced by a licensed user; nobody knows anything


@dataclass(frozen=True, slots=True)
class NetworkConfig:
    """Static network parameters. Defaults are the reference scenario."""

    n_bands: int = 10
    n_primary: int = 5
    cost_secondary_switch: float = 5.0
    cost_malicious_switch: float = 2.0
    gain_secondary: float = 50.0
    gain_malicious: float = 75.0
    loss_secondary: float = 100.0

    def __post_init__(self) -> None:
        if not isinstance(self.n_bands, int) or self.n_bands < 2:
            raise ValueError(
                f"n_bands must be an integer >= 2 (got {self.n_bands!r}); "
                "switching needs at least one other band"
            )
        if not isinstance(self.n_primary, int) or not 0 <= self.n_primary <= self.n_bands:
            raise ValueError(
                f"n_primary must be an integer in [0, n_bands] (got {self.n_primary!r})"
            )
        for name in (
            "cost_secondary_switch",
            "cost_malicious_switch",
            "gain_secondary",
            "gain_malicious",
            "loss_secondary",
        ):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number (got {value!r})")
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0 (got {value!r})")


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


class BimatrixGame(namedtuple("BimatrixGame", "a b c d e f g h row_labels col_labels")):
    """2x2 bimatrix game: the secondary picks the row, the jammer the column.

    Strategies are indexed 1 and 2. Cell layout: (1,1) -> (a, e),
    (1,2) -> (b, f), (2,1) -> (c, g), (2,2) -> (d, h), with the first
    component paid to the secondary and the second to the jammer;
    ``row_labels`` and ``col_labels`` name each side's two strategies.
    Every entry must be finite. An immutable named tuple: a frozen
    dataclass would pay a guarded setattr per field on every build.
    """

    __slots__ = ()

    def __new__(
        cls, a: float, b: float, c: float, d: float, e: float, f: float, g: float, h: float,
        row_labels: tuple[str, str] = ("s1", "s2"), col_labels: tuple[str, str] = ("m1", "m2"),
    ) -> BimatrixGame:
        entries = (a, b, c, d, e, f, g, h)
        if not all(map(math.isfinite, entries)):
            bad = "abcdefgh"[[math.isfinite(x) for x in entries].index(False)]
            raise ValueError(f"payoff entry {bad} must be finite")
        return tuple.__new__(cls, (*entries, row_labels, col_labels))

    @classmethod
    def _make(cls, iterable) -> BimatrixGame:
        return cls(*iterable)  # so that _replace checks the entries too

    def row_payoff(self, row: int, col: int) -> float:
        """Secondary's payoff in cell (row, col), 1-based indices."""
        return ((self.a, self.b), (self.c, self.d))[row - 1][col - 1]

    def col_payoff(self, row: int, col: int) -> float:
        """Jammer's payoff in cell (row, col), 1-based indices."""
        return ((self.e, self.f), (self.g, self.h))[row - 1][col - 1]


_MOVES = ("switch", "stay")  # the secondary's rows in A and B, the jammer's columns in A
_B_COLUMNS = ("stay", "switch")  # the jammer's columns in B


def build_game(config: NetworkConfig, category: Category) -> BimatrixGame:
    """Payoff game for category A or B; category C has no game.

    Category A (row = secondary, col = jammer, both over (switch, stay)):
    a switcher pays its switching cost and lands uniformly on one of the
    other bands; co-located players with no licensed user present realize
    the jam loss/gain; a licensed user on the secondary's band zeroes the
    slot for both.

    Category B (secondary rows (switch, stay); jammer columns
    (stay, switch-to-secondary's-band)): same outcome rules, except the
    (switch, switch) cell carries no secondary switching cost. That
    asymmetry is deliberate and load-bearing: the network simulator
    mirrors this exact cost structure so that simulated slot averages
    reproduce these entries.
    """
    p_primary, p_just_secondary, p_secondary_and_malicious = derived_probabilities(config)
    clear = 1.0 - p_primary  # no licensed user on a given band
    c_s = config.cost_secondary_switch
    c_m = config.cost_malicious_switch
    g_s = config.gain_secondary
    g_m = config.gain_malicious
    l_s = config.loss_secondary
    # expected outcome of a blind switch: clean band vs. landing on the jammer
    roam = g_s * p_just_secondary - l_s * p_secondary_and_malicious

    # entries in the order a, b, c, d (secondary), e, f, g, h (jammer)
    if category is Category.A:
        return BimatrixGame(
            -c_s + roam, -c_s + g_s * clear, g_s * clear, -l_s * clear,
            -c_m + g_m * p_secondary_and_malicious, 0.0, -c_m, g_m * clear,
            _MOVES, _MOVES,
        )
    if category is Category.B:
        return BimatrixGame(
            -c_s + roam, g_s * clear, g_s * clear, -l_s * clear,
            g_m * p_secondary_and_malicious, -c_m, 0.0, g_m * clear - c_m,
            _MOVES, _B_COLUMNS,
        )
    raise ValueError("category C has no game: both players stay")
