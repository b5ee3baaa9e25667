"""Anti-jamming band-hopping toolkit.

Models the interaction between an opportunistic (secondary) transmitter
and a jammer in a multi-band network as per-category 2x2 games, solves
them for mixed Nash equilibria, learns them through best-response play
on observed action counts, and simulates the full discrete-time
band-hopping network.
"""

from .games import Category, NetworkConfig, build_game, derived_probabilities
from .learning import run_fp
from .nash import mixed_equilibrium, verify_equilibrium
from .simulate import (
    FictitiousPlayPolicy,
    FixedPolicy,
    NashPolicy,
    PolicySpec,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "NetworkConfig",
    "Category",
    "build_game",
    "derived_probabilities",
    "mixed_equilibrium",
    "verify_equilibrium",
    "run_fp",
    "PolicySpec",
    "FictitiousPlayPolicy",
    "FixedPolicy",
    "NashPolicy",
    "run_simulation",
    "__version__",
]
