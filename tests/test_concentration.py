import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ng_incentives import concentration as cc


def test_count_pairs_basic():
    pc = cc.count_pairs([0, 1, 0, 0, 1, 1, 0])
    assert (pc.z, pc.k, pc.m) == (2, 2, 7)


def test_count_pairs_short_sequence_rejected():
    with pytest.raises(cc.SequenceError):
        cc.count_pairs([1])


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=200))
def test_pair_counts_differ_by_at_most_one(bits):
    # (1,0) and (0,1) pairs alternate along any sequence.
    pc = cc.count_pairs(bits)
    assert abs(pc.z - pc.k) <= 1
    assert pc.z + pc.k <= pc.m - 1


def test_pair_deviation_bound_explicit_constant():
    alpha, m, delta = 0.3, 10_001, 0.1
    expected = 4.0 * math.exp(-(0.1**2) * 0.3 * 0.7 * 10_000 / 4.0)
    assert cc.pair_deviation_bound(alpha, m, delta) == pytest.approx(expected)


def test_pair_deviation_bound_domain():
    with pytest.raises(cc.SequenceError):
        cc.pair_deviation_bound(0.0, 100, 0.1)
    with pytest.raises(cc.SequenceError):
        cc.pair_deviation_bound(0.3, 1, 0.1)
    with pytest.raises(cc.SequenceError):
        cc.pair_deviation_bound(0.3, 100, 0.0)


def test_empirical_summary_deterministic_and_centered():
    a = cc.empirical_pair_summary(0.3, 1000, 0.2, trials=500, seed=42)
    b = cc.empirical_pair_summary(0.3, 1000, 0.2, trials=500, seed=42)
    assert a == b
    assert a.expected_pairs == pytest.approx(0.3 * 0.7 * 999)
    # mean Z concentrates near its expectation
    assert abs(a.mean_z - a.expected_pairs) < 0.05 * a.expected_pairs


def test_empirical_summary_degenerate_alpha():
    s = cc.empirical_pair_summary(0.0, 100, 0.5, trials=50, seed=0)
    assert s.deviation_fraction == 0.0 and s.mean_z == 0.0


def test_empirical_deviation_matches_direct_counting():
    # Cross-check the batched trial loop against count_pairs over one draw
    # of all trials at once; more trials than one batch, so the result must
    # not depend on where the batches split.
    alpha, m, delta, seed, trials = 0.4, 60, 0.3, 7, 1_100
    summary = cc.empirical_pair_summary(alpha, m, delta, trials=trials, seed=seed)
    rng = np.random.default_rng(seed)
    center = alpha * (1 - alpha) * (m - 1)
    hits = z_sum = 0
    x = rng.random((trials, m)) < alpha
    x[:, 0] = False
    for row in x:
        z = cc.count_pairs(row.astype(int)).z
        hits += abs(z - center) > delta * center
        z_sum += z
    assert summary.deviation_fraction == hits / trials
    assert summary.mean_z == z_sum / trials
