import math

import pytest

from ng_incentives.model import (
    ParameterError,
    ProtocolParams,
    RewardWeights,
    params_from_config,
    parse_config_text,
    validate,
)


def test_defaults_are_valid():
    p = ProtocolParams()
    assert validate(p) is p
    assert math.isclose(p.alpha + p.beta, 1.0)


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


def test_parse_config_text_with_aliases_and_comments():
    cfg = parse_config_text(
        """
        # protocol setup
        alpha = 0.25
        r = 0.4
        gamma = 0.7
        """
    )
    assert cfg == {"alpha": 0.25, "split_ratio": 0.4, "gamma": 0.7}
    p = params_from_config(cfg)
    assert p.alpha == 0.25 and p.split_ratio == 0.4


@pytest.mark.parametrize(
    "text", ["alpha 0.2", "nonsense = 1", "alpha = not_a_number", "key_rate = 0.01"]
)
def test_parse_config_text_errors(text):
    with pytest.raises(ParameterError):
        parse_config_text(text)
