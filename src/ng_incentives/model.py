"""Shared protocol parameters and reward-weight types.

All types here are immutable values; construction validates every
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
    key_rate: key blocks per second (> 0).
    micro_rate: microblocks per second (>= 0).
    key_block_reward: reward for one key block.
    microblock_fee: total fee carried by one regular microblock.
    expected_microblock_fee: optional whale-adjusted mean microblock fee;
        must be >= microblock_fee when given.
    """

    alpha: float = 0.3
    gamma: float = 0.5
    split_ratio: float = 0.4
    key_rate: float = 0.01
    micro_rate: float = 0.05
    key_block_reward: float = 12.5
    microblock_fee: float = 2.5
    expected_microblock_fee: float | None = None

    def __post_init__(self) -> None:
        validate(self)

    @property
    def beta(self) -> float:
        """Honest fraction of mining power; alpha + beta = 1 exactly."""
        return 1.0 - self.alpha


def validate(params: ProtocolParams) -> ProtocolParams:
    """Check every parameter invariant; return params unchanged if valid."""
    for f in fields(params):
        value = getattr(params, f.name)
        _require(value is None or math.isfinite(value), f"{f.name} must be finite")
    _require(0.0 <= params.alpha <= 1.0, "alpha out of [0,1]")
    _require(0.0 <= params.gamma <= 1.0, "gamma out of [0,1]")
    _require(0.0 <= params.split_ratio <= 1.0, "split_ratio out of [0,1]")
    _require(params.key_rate > 0.0, "key_rate must be positive")
    _require(params.micro_rate >= 0.0, "micro_rate must be nonnegative")
    _require(params.key_block_reward >= 0.0, "key_block_reward must be nonnegative")
    _require(params.microblock_fee >= 0.0, "microblock_fee must be nonnegative")
    if params.expected_microblock_fee is not None:
        _require(
            params.expected_microblock_fee >= params.microblock_fee,
            "expected_microblock_fee must be >= microblock_fee",
        )
    return params


def interval_fee_ratio(params: ProtocolParams) -> float:
    """Ratio of one key-block reward to the fees of one key-block interval.

    An interval carries micro_rate/key_rate microblocks.  With a whale-adjusted
    expected_microblock_fee present, that mean is used in place of the regular
    microblock fee, which lowers the ratio.
    """
    if params.micro_rate == 0.0:
        raise ParameterError("micro_rate must be positive to form the fee ratio")
    fee = (
        params.expected_microblock_fee
        if params.expected_microblock_fee is not None
        else params.microblock_fee
    )
    if fee == 0.0:
        raise ParameterError("microblock fee must be positive to form the fee ratio")
    return params.key_block_reward * params.key_rate / (params.micro_rate * fee)


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
_ALIASES = {"r": "split_ratio", "f": "key_rate", "v": "micro_rate"}


def parse_config_text(text: str) -> dict[str, float]:
    """Parse a flat ``name = value`` config into a field dict.

    Lines starting with '#' and blank lines are skipped.  Short aliases
    r/f/v map to split_ratio/key_rate/micro_rate.
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
