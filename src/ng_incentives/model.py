"""Shared protocol parameters, reward-weight types and range checks.

All types here are immutable values; construction checks every
invariant so downstream code never sees an out-of-range parameter.
Every module checks its parameters with require, require_fractions and
require_seed, so any parameter outside its documented range raises
ParameterError.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields


class ParameterError(ValueError):
    """A parameter is outside its documented range."""


class SolverError(RuntimeError):
    """Value iteration or policy evaluation failed to converge; carries the
    iteration count and the last value span or distribution change."""

    def __init__(self, message: str, iterations: int, span: float):
        super().__init__(f"{message} (iterations={iterations}, span={span:.3e})")
        self.iterations = iterations
        self.span = span


MAX_KEYBLOCKS = 10**10  # longest horizon or pair trial: ~20 min of policy rollout


def require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterError(message)


def require_fractions(**values: float) -> None:
    """Raise ParameterError naming the first value outside [0, 1] or NaN."""
    for name, value in values.items():
        if not 0.0 <= value <= 1.0:
            raise ParameterError(f"{name} out of [0,1]")


def require_seed(seed: int) -> None:
    """Raise ParameterError unless seed is an integer >= 0, as numpy's
    generators take."""
    require(
        isinstance(seed, numbers.Integral) and seed >= 0,
        f"seed must be a non-negative integer, got {seed!r}",
    )


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol and attacker parameters.

    alpha: selfish fraction of total mining power, in [0, 1].
    gamma: fraction of honest power mining the selfish branch during a tie.
    split_ratio: fee fraction paid to the first (issuing) leader; the next
        key-block miner gets the remaining 1 - split_ratio.
    """

    alpha: float = 0.3
    gamma: float = 0.5
    split_ratio: float = 0.4

    def __post_init__(self) -> None:
        for f in fields(self):
            require(math.isfinite(getattr(self, f.name)), f"{f.name} must be finite")
        require_fractions(alpha=self.alpha, gamma=self.gamma, split_ratio=self.split_ratio)


# Reward regimes by name, as (key_weight, fee_weight).
_REGIME_WEIGHTS = {"fee": (0.0, 1.0), "equal": (1.0, 1.0), "key": (1.0, 0.0)}
REGIMES = tuple(_REGIME_WEIGHTS)


@dataclass(frozen=True)
class RewardWeights:
    """Scalar weights turning a reward tuple into a single revenue number.

    key_weight multiplies key-block reward counts; fee_weight multiplies fee
    units (one unit = total fees of the microblocks in one key-block
    interval).  from_regime gives the exact pair of each evaluation regime
    in REGIMES.
    """

    key_weight: float
    fee_weight: float

    def __post_init__(self) -> None:
        for f in fields(self):
            require(math.isfinite(getattr(self, f.name)), f"{f.name} must be finite")
        require(self.key_weight >= 0.0, "key_weight must be nonnegative")
        require(self.fee_weight >= 0.0, "fee_weight must be nonnegative")
        require(self.key_weight + self.fee_weight > 0.0, "weights cannot both be zero")

    @classmethod
    def from_regime(cls, name: str) -> "RewardWeights":
        try:
            return cls(*_REGIME_WEIGHTS[name])
        except KeyError:
            raise ParameterError(f"unknown reward regime {name!r}") from None
