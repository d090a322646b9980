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
    PairCounts,
    count_pairs,
    empirical_pair_summary,
    pair_deviation_bound,
)
from .mdp import (
    Fork,
    LastMicro,
    MdpAction,
    MdpState,
    SolveResult,
    build_transitions,
    solve,
)
from .model import (
    ParameterError,
    ProtocolParams,
    RewardWeights,
    load_config,
    params_from_config,
    parse_config_text,
    validate,
)
from .simulator import (
    Extension,
    Honest,
    Inclusion,
    MdpPolicy,
    SimConfig,
    SimReport,
    run,
    sweep,
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
    "PairCounts",
    "count_pairs",
    "empirical_pair_summary",
    "pair_deviation_bound",
    "Fork",
    "LastMicro",
    "MdpAction",
    "MdpState",
    "SolveResult",
    "build_transitions",
    "solve",
    "ParameterError",
    "ProtocolParams",
    "RewardWeights",
    "load_config",
    "params_from_config",
    "parse_config_text",
    "validate",
    "Extension",
    "Honest",
    "Inclusion",
    "MdpPolicy",
    "SimConfig",
    "SimReport",
    "run",
    "sweep",
    "__version__",
]
