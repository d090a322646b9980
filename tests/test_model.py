import math

import pytest

from ng_incentives.model import (
    ParameterError,
    ProtocolParams,
    RewardWeights,
    interval_fee_ratio,
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
        {"key_rate": 0.0},
        {"micro_rate": -1.0},
        {"key_block_reward": -1.0},
        {"microblock_fee": -0.5},
        {"expected_microblock_fee": 1.0, "microblock_fee": 2.5},
        {"key_rate": math.inf},
        {"micro_rate": math.inf},
        {"key_block_reward": math.inf},
        {"microblock_fee": math.inf},
        {"expected_microblock_fee": math.inf},
        {"alpha": math.nan},
    ],
)
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(ParameterError):
        ProtocolParams(**kwargs)


def test_interval_fee_ratio_default():
    # 12.5 reward vs 5 microblocks/interval * 2.5 fee = 12.5 -> ratio 1
    assert interval_fee_ratio(ProtocolParams()) == pytest.approx(1.0)


def test_interval_fee_ratio_whale_adjusted_mean_lowers_ratio():
    p = ProtocolParams(expected_microblock_fee=5.0)
    assert interval_fee_ratio(p) == pytest.approx(0.5)


def test_interval_fee_ratio_requires_fees():
    with pytest.raises(ParameterError):
        interval_fee_ratio(ProtocolParams(micro_rate=0.0))
    with pytest.raises(ParameterError):
        interval_fee_ratio(ProtocolParams(microblock_fee=0.0))


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
        f = 0.01
        v = 0.05
        """
    )
    assert cfg == {
        "alpha": 0.25,
        "split_ratio": 0.4,
        "key_rate": 0.01,
        "micro_rate": 0.05,
    }
    p = params_from_config(cfg)
    assert p.alpha == 0.25 and p.split_ratio == 0.4


@pytest.mark.parametrize(
    "text", ["alpha 0.2", "nonsense = 1", "alpha = not_a_number"]
)
def test_parse_config_text_errors(text):
    with pytest.raises(ParameterError):
        parse_config_text(text)
