"""Shared protocol parameters and reward-weight types.

All types here are immutable values; construction checks every
invariant so downstream code never sees an out-of-range parameter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path


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


# Reward regimes by name; RewardWeights.from_regime maps each to its weights.
REGIMES = ("fee", "equal", "key")


@dataclass(frozen=True)
class RewardWeights:
    """Scalar weights turning a reward tuple into a single revenue number.

    key_weight multiplies key-block reward counts; fee_weight multiplies fee
    units (one unit = total fees of the microblocks in one key-block
    interval).  The three evaluation regimes are exact weight pairs:
    fee-dominated (0, 1), equal (1, 1), key-dominated (1, 0).
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
    def fee_dominated(cls) -> "RewardWeights":
        return cls(0.0, 1.0)

    @classmethod
    def equal(cls) -> "RewardWeights":
        return cls(1.0, 1.0)

    @classmethod
    def key_dominated(cls) -> "RewardWeights":
        return cls(1.0, 0.0)

    @classmethod
    def from_regime(cls, name: str) -> "RewardWeights":
        try:
            return {
                "fee": cls.fee_dominated(),
                "equal": cls.equal(),
                "key": cls.key_dominated(),
            }[name]
        except KeyError:
            raise ParameterError(f"unknown reward regime {name!r}") from None


_PARAM_FIELDS = {f.name for f in fields(ProtocolParams)}
_ALIASES = {"r": "split_ratio"}


def parse_config_text(text: str) -> dict[str, float]:
    """Parse a flat ``name = value`` config into a field dict.

    Lines starting with '#' and blank lines are skipped.  The short alias r
    maps to split_ratio.
    """
    out: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"config line {lineno}: expected 'name = value'")
        name, _, value = line.partition("=")
        name = _ALIASES.get(name.strip(), name.strip())
        if name not in _PARAM_FIELDS:
            raise ParameterError(f"config line {lineno}: unknown parameter {name!r}")
        try:
            out[name] = float(value)
        except ValueError:
            raise ParameterError(
                f"config line {lineno}: non-numeric value for {name!r}"
            ) from None
    return out


def load_config(path: str | Path) -> dict[str, float]:
    return parse_config_text(Path(path).read_text())


def params_from_config(
    config: dict[str, float], base: ProtocolParams | None = None
) -> ProtocolParams:
    base = base if base is not None else ProtocolParams()
    return replace(base, **config)
