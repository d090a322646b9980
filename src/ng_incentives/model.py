"""Shared protocol parameters and reward-weight types.

All types here are immutable values; construction checks every
invariant so downstream code never sees an out-of-range parameter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields


class ParameterError(ValueError):
    """A protocol parameter is outside its valid range."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterError(message)


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
            _require(math.isfinite(getattr(self, f.name)), f"{f.name} must be finite")
        _require(0.0 <= self.alpha <= 1.0, "alpha out of [0,1]")
        _require(0.0 <= self.gamma <= 1.0, "gamma out of [0,1]")
        _require(0.0 <= self.split_ratio <= 1.0, "split_ratio out of [0,1]")


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
            _require(math.isfinite(getattr(self, f.name)), f"{f.name} must be finite")
        _require(self.key_weight >= 0.0, "key_weight must be nonnegative")
        _require(self.fee_weight >= 0.0, "fee_weight must be nonnegative")
        _require(self.key_weight + self.fee_weight > 0.0, "weights cannot both be zero")

    @classmethod
    def from_regime(cls, name: str) -> "RewardWeights":
        try:
            return cls(*_REGIME_WEIGHTS[name])
        except KeyError:
            raise ParameterError(f"unknown reward regime {name!r}") from None
