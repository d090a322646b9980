import math

import pytest

from ng_incentives.model import ParameterError, ProtocolParams, RewardWeights


def test_defaults_are_valid():
    p = ProtocolParams()
    assert (p.alpha, p.gamma, p.split_ratio) == (0.3, 0.5, 0.4)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha": -0.1},
        {"alpha": 1.5},
        {"gamma": 2.0},
        {"split_ratio": -0.01},
        {"alpha": math.nan},
        {"gamma": math.inf},
        {"gamma": math.nan},
        {"split_ratio": math.inf},
        {"split_ratio": math.nan},
        {"gamma": -0.1},
        {"split_ratio": 1.01},
        {"alpha": math.inf},
        {"alpha": -math.inf},
        {"gamma": -math.inf},
        {"split_ratio": -math.inf},
    ],
)
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(ParameterError):
        ProtocolParams(**kwargs)


def test_regime_weights_exact():
    assert RewardWeights.from_regime("fee") == RewardWeights(0.0, 1.0)
    assert RewardWeights.from_regime("equal") == RewardWeights(1.0, 1.0)
    assert RewardWeights.from_regime("key") == RewardWeights(1.0, 0.0)
    with pytest.raises(ParameterError):
        RewardWeights.from_regime("bogus")
    with pytest.raises(ParameterError):
        RewardWeights(0.0, 0.0)
    for key, fee in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ParameterError, match="must be finite"):
            RewardWeights(key, fee)

