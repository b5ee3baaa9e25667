"""Anti-jamming band-hopping toolkit.

Models the interaction between an opportunistic (secondary) transmitter
and a jammer in a multi-band network as per-category 2x2 games, solves
them for mixed Nash equilibria, learns them through best-response play
on observed action counts, and simulates the full discrete-time
band-hopping network.
"""

from .games import (
    BimatrixGame,
    Category,
    DerivedProbabilities,
    NetworkConfig,
    build_game,
    derived_probabilities,
)
from .learning import (
    EmpiricalFrequencies,
    ExpectedUtilities,
    FpRecord,
    FpTrace,
    HistoryCounters,
    best_response,
    convergence_error,
    empirical_frequencies,
    fp_expected_utilities,
    fp_step,
    run_fp,
)
from .nash import (
    DeviationCheck,
    EquilibriumReport,
    MixedProfile,
    StrategyUtilities,
    mixed_equilibrium,
    profile_from_pure,
    pure_equilibria,
    strategy_utilities,
    verify_equilibrium,
)
from .simulate import (
    FictitiousPlayPolicy,
    FixedPolicy,
    NashPolicy,
    PolicySpec,
    SimulationResult,
    SimulationSummary,
    choose_actions,
    classify_state,
    place_primaries,
    run_simulation,
    settle_slot,
    update_histories,
)

__version__ = "0.1.0"

__all__ = [
    "BimatrixGame",
    "Category",
    "DerivedProbabilities",
    "NetworkConfig",
    "build_game",
    "derived_probabilities",
    "EmpiricalFrequencies",
    "ExpectedUtilities",
    "FpRecord",
    "FpTrace",
    "HistoryCounters",
    "best_response",
    "convergence_error",
    "empirical_frequencies",
    "fp_expected_utilities",
    "fp_step",
    "run_fp",
    "DeviationCheck",
    "EquilibriumReport",
    "MixedProfile",
    "StrategyUtilities",
    "mixed_equilibrium",
    "profile_from_pure",
    "pure_equilibria",
    "strategy_utilities",
    "verify_equilibrium",
    "FictitiousPlayPolicy",
    "FixedPolicy",
    "NashPolicy",
    "PolicySpec",
    "SimulationResult",
    "SimulationSummary",
    "choose_actions",
    "classify_state",
    "place_primaries",
    "run_simulation",
    "settle_slot",
    "update_histories",
    "__version__",
]
