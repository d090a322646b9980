"""Incentive analysis toolkit for leader-based blockchain fee splitting:
closed-form attack bounds, a selfish-mining decision-process solver, a Monte
Carlo simulator, pair-concentration bounds, and fee-dataset utilities."""

from .closedform import (
    FeasibleInterval,
    RatioBounds,
    extension_attack_revenue,
    extension_bound,
    feasible_interval,
    inclusion_attack_revenue,
    inclusion_bound_original,
    inclusion_bound_yin,
    optimal_extension_revenue,
    optimal_inclusion_revenue,
    ratio_bounds,
)
from .concentration import (
    empirical_pair_summary,
    pair_deviation_bound,
)
from .mdp import (
    Fork,
    LastMicro,
    MdpAction,
    SolveResult,
    build_transitions,
    solve,
)
from .model import (
    ParameterError,
    ProtocolParams,
    RewardWeights,
)
from .simulator import (
    Extension,
    Honest,
    Inclusion,
    MdpPolicy,
    SimConfig,
    SimReport,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "FeasibleInterval",
    "RatioBounds",
    "extension_attack_revenue",
    "extension_bound",
    "feasible_interval",
    "inclusion_attack_revenue",
    "inclusion_bound_original",
    "inclusion_bound_yin",
    "optimal_extension_revenue",
    "optimal_inclusion_revenue",
    "ratio_bounds",
    "empirical_pair_summary",
    "pair_deviation_bound",
    "Fork",
    "LastMicro",
    "MdpAction",
    "SolveResult",
    "build_transitions",
    "solve",
    "ParameterError",
    "ProtocolParams",
    "RewardWeights",
    "Extension",
    "Honest",
    "Inclusion",
    "MdpPolicy",
    "SimConfig",
    "SimReport",
    "run",
    "__version__",
]
