"""Anti-jamming band-hopping toolkit.

Models the interaction between an opportunistic (secondary) transmitter
and a jammer in a multi-band network as per-category 2x2 games, solves
them for mixed Nash equilibria, learns them through best-response play
on observed action counts, and simulates the full discrete-time
band-hopping network.
"""

from .games import (
    Category,
    FictitiousPlayPolicy,
    FixedPolicy,
    NashPolicy,
    NetworkConfig,
    build_game,
    derived_probabilities,
)
from .nash import mixed_equilibrium, verify_equilibrium

__version__ = "0.1.0"

__all__ = [
    "NetworkConfig",
    "Category",
    "build_game",
    "derived_probabilities",
    "mixed_equilibrium",
    "verify_equilibrium",
    "run_fp",
    "FictitiousPlayPolicy",
    "FixedPolicy",
    "NashPolicy",
    "run_simulation",
    "__version__",
]


def __getattr__(name: str):
    # run_fp and run_simulation import their modules on first access, so
    # that a command which runs neither never compiles them
    if name == "run_fp":
        from .learning import run_fp as value
    elif name == "run_simulation":
        from .simulate import run_simulation as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return value
