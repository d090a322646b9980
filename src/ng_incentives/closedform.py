"""Closed-form split-ratio bounds and microblock-attack revenue formulas.

Everything here is a pure function of scalars.  ``alpha`` is the selfish
mining-power fraction, ``r`` the fee split ratio paid to the issuing leader,
``rho`` the fraction of microblocks withheld (inclusion attack) or rejected
(extension attack) per interval.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import require, require_fractions


def inclusion_bound_original(alpha: float) -> float:
    """Lower bound on r that deters withholding of whale-carrying microblocks."""
    require_fractions(alpha=alpha)
    require(alpha < 1.0, "alpha must be < 1")
    return 1.0 - (1.0 - alpha) / (1.0 + alpha - alpha * alpha)


def inclusion_bound_yin(alpha: float) -> float:
    """Corrected inclusion lower bound accounting for leader re-election."""
    require_fractions(alpha=alpha)
    require(alpha < 1.0, "alpha must be < 1")
    return alpha / (1.0 - alpha)


def extension_bound(alpha: float) -> float:
    """Upper bound on r that deters skipping whale-carrying microblocks."""
    require_fractions(alpha=alpha)
    return (1.0 - alpha) / (2.0 - alpha)


@dataclass(frozen=True)
class RatioBounds:
    """All split-ratio bounds at one value of alpha."""

    inclusion_lower_v1: float
    inclusion_lower_v2: float
    extension_upper: float
    capacity_lower: float
    capacity_upper: float


def ratio_bounds(alpha: float) -> RatioBounds:
    return RatioBounds(
        inclusion_lower_v1=inclusion_bound_original(alpha),
        inclusion_lower_v2=inclusion_bound_yin(alpha),
        extension_upper=extension_bound(alpha),
        capacity_lower=alpha,
        capacity_upper=1.0 - alpha,
    )


@dataclass(frozen=True)
class FeasibleInterval:
    """Open interval of split ratios deterring the given attack class."""

    lower: float
    upper: float
    empty: bool


TRANSACTION_CLASSES = ("whale", "regular", "all")


def feasible_interval(alpha: float, transaction_class: str = "all") -> FeasibleInterval:
    """Feasible split-ratio interval for a transaction class.

    whale: both inclusion lower bounds against the extension upper bound.
    regular: the capacity-constrained interval (alpha, 1 - alpha).
    all: intersection of the two.
    """
    known = transaction_class in TRANSACTION_CLASSES
    require(known, f"unknown transaction class {transaction_class!r}")
    b = ratio_bounds(alpha)
    if transaction_class == "whale":
        lower = max(b.inclusion_lower_v1, b.inclusion_lower_v2)
        upper = b.extension_upper
    elif transaction_class == "regular":
        lower, upper = b.capacity_lower, b.capacity_upper
    else:
        lower = max(b.inclusion_lower_v1, b.inclusion_lower_v2, b.capacity_lower)
        upper = min(b.extension_upper, b.capacity_upper)
    return FeasibleInterval(lower=lower, upper=upper, empty=lower >= upper)


def inclusion_attack_revenue(alpha: float, r: float, rho: float) -> float:
    """Long-run relative revenue under the microblock-withholding attack."""
    require_fractions(alpha=alpha, r=r, rho=rho)
    beta = 1.0 - alpha
    return (alpha - r * alpha * beta * rho) / (1.0 - alpha * beta * rho)


def extension_attack_revenue(alpha: float, r: float, rho: float) -> float:
    """Long-run relative revenue under the microblock-rejection attack."""
    require_fractions(alpha=alpha, r=r, rho=rho)
    beta = 1.0 - alpha
    return (alpha - (1.0 - r) * alpha * beta * rho) / (1.0 - alpha * beta * rho)


def optimal_inclusion_revenue(alpha: float, r: float) -> tuple[float, float]:
    """Best inclusion-attack revenue and the withholding fraction achieving it.

    Withholding everything pays exactly when r <= alpha; otherwise honest
    behaviour (rho = 0) is optimal and the revenue is the fair share alpha.
    Ties at r = alpha resolve to rho = 1 with value alpha.
    """
    require_fractions(alpha=alpha, r=r)
    if r <= alpha:
        return r + (alpha - r) / (1.0 - alpha * (1.0 - alpha)), 1.0
    return alpha, 0.0


def optimal_extension_revenue(alpha: float, r: float) -> tuple[float, float]:
    """Best extension-attack revenue and the rejection fraction achieving it.

    Rejecting everything pays exactly when r >= 1 - alpha; otherwise honest
    behaviour is optimal.  Ties at r = 1 - alpha resolve to rho = 1.
    """
    require_fractions(alpha=alpha, r=r)
    beta = 1.0 - alpha
    if r >= beta:
        return (1.0 - r) + (r - beta) / (1.0 - alpha * beta), 1.0
    return alpha, 0.0
