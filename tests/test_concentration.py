import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chi2

from ng_incentives import concentration as cc
from ng_incentives.model import MAX_KEYBLOCKS, ParameterError

from oracles import count_pairs, ownership, pair_moments, per_bit_segment_stats


def test_count_pairs_basic():
    pc = count_pairs([0, 1, 0, 0, 1, 1, 0])
    assert (pc.z, pc.k, pc.m) == (2, 2, 7)


def test_count_pairs_short_sequence_rejected():
    with pytest.raises(ParameterError):
        count_pairs([1])


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=200))
def test_pair_counts_differ_by_at_most_one(bits):
    # (1,0) and (0,1) pairs alternate along any sequence.
    pc = count_pairs(bits)
    assert abs(pc.z - pc.k) <= 1
    assert pc.z + pc.k <= pc.m - 1


def test_pair_deviation_bound_explicit_constant():
    alpha, m, delta = 0.3, 10_001, 0.1
    expected = 4.0 * math.exp(-(0.1**2) * 0.3 * 0.7 * 10_000 / 4.0)
    assert cc.pair_deviation_bound(alpha, m, delta) == pytest.approx(expected)


def test_pair_deviation_bound_domain():
    # At alpha in {0, 1} no pair can occur: the bound is the bare constant.
    assert cc.pair_deviation_bound(0.0, 100, 0.1) == 4.0
    assert cc.pair_deviation_bound(1.0, 100, 0.1) == 4.0
    for alpha in (-0.1, 1.1, math.nan):
        with pytest.raises(ParameterError, match="alpha"):
            cc.pair_deviation_bound(alpha, 100, 0.1)
    with pytest.raises(ParameterError):
        cc.pair_deviation_bound(0.3, 1, 0.1)
    with pytest.raises(ParameterError):
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


@pytest.mark.parametrize("m", [3, 11, 1000])
@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5])
def test_empirical_mean_z_matches_exact_mean(alpha, m):
    """mean_z lies within 4 standard errors sqrt(Var Z / trials) of E[Z] =
    alpha * beta * (m - 2), both exact (oracles.pair_moments): Z sums
    m - 2 Bernoulli(alpha * beta) indicators, adjacent ones with
    covariance -(alpha * beta)^2, the others independent."""
    trials = 20_000
    mean, var = pair_moments(alpha, m)
    summary = cc.empirical_pair_summary(alpha, m, 0.5, trials=trials, seed=3)
    assert abs(summary.mean_z - mean) < 4 * math.sqrt(var / trials)


def test_empirical_mean_z_is_exact_without_pairs():
    # m = 2 has one pair position, and bit 0 is 0; alpha = 1 makes every
    # other bit 1, so no (1,0) pair can occur at any m.
    assert cc.empirical_pair_summary(0.3, 2, 0.5, trials=100, seed=0).mean_z == 0.0
    for m in (2, 3, 61, 10_001):
        s = cc.empirical_pair_summary(1.0, m, 0.5, trials=70, seed=0)
        assert (s.mean_z, s.deviation_fraction) == (0.0, 0.0)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("delta", [math.nan, 0.0, 1.0, 5.0])
def test_empirical_summary_rejects_delta(alpha, delta):
    with pytest.raises(ParameterError, match="delta"):
        cc.empirical_pair_summary(alpha, 100, delta, trials=10, seed=0)


def _exhaustive_law(alpha: float, n: int) -> dict:
    """Probability of each (ones, runs of ones, first bit, last bit) of n
    Bernoulli(alpha) bits, summed over all 2**n sequences."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1 == 1
    ones = bits.sum(axis=1)
    runs = bits[:, 0] + (~bits[:, :-1] & bits[:, 1:]).sum(axis=1)
    law: dict = {}
    for key, k in zip(zip(ones, runs, bits[:, 0], bits[:, -1]), ones):
        key = tuple(int(v) for v in key)
        law[key] = law.get(key, 0.0) + alpha**k * (1.0 - alpha) ** (n - k)
    return law


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.8])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
def test_segment_stats_matches_exhaustive_law(n, alpha):
    # A chi-square test of 100k draws against the enumerated law, bins
    # expected to hold fewer than 5 draws pooled into one; a draw outside
    # the law's support fails at once.
    draws = 100_000
    law = _exhaustive_law(alpha, n)
    rng = np.random.default_rng(100 * n + round(10 * alpha))
    stats = cc.segment_stats(rng, alpha, np.full(draws, n))
    seen: dict = {}
    for key in zip(*(np.asarray(x, np.int64).tolist() for x in stats)):
        seen[key] = seen.get(key, 0) + 1
    assert set(seen) <= set(law), set(seen) - set(law)
    expected = np.array([draws * law[key] for key in law])
    observed = np.array([seen.get(key, 0) for key in law])
    small = expected < 5
    expected = np.append(expected[~small], expected[small].sum())
    observed = np.append(observed[~small], observed[small].sum())
    if not small.any():
        expected, observed = expected[:-1], observed[:-1]
    stat = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2.sf(stat, len(expected) - 1) > 1e-3, stat


@pytest.mark.parametrize("n", [0, 1, 2, 7, cc._SEGMENT])
def test_segment_stats_is_exact_at_alpha_0_and_1(n):
    rng = np.random.default_rng(0)
    lengths = np.full(3, n)
    ones, runs, first, last = cc.segment_stats(rng, 0.0, lengths)
    assert not (ones.any() or runs.any() or first.any() or last.any())
    ones, runs, first, last = cc.segment_stats(rng, 1.0, lengths)
    assert (ones == n).all() and (runs == min(n, 1)).all()
    assert (first == (n > 0)).all() and (last == (n > 0)).all()


def test_segment_stats_mean_runs_at_a_million_bits():
    # E[runs] = alpha + (n - 1) * alpha * beta: bit 0 starts a run when it
    # is 1, bit i > 0 when it is 1 and bit i - 1 is 0.
    alpha, n, draws = 0.3, 10**6, 20_000
    _, runs, _, _ = cc.segment_stats(np.random.default_rng(4), alpha, np.full(draws, n))
    mean = alpha + (n - 1) * alpha * (1 - alpha)
    assert abs(runs.mean() - mean) < 4 * runs.std(ddof=1) / math.sqrt(draws)


def _direct_summary(alpha, m, delta, trials, seed):
    # count_pairs over each trial, a 0 bit then m - 1 ownership bits, the
    # trials' bits drawn in trial order from one stream.
    rng = np.random.default_rng(seed)
    center = alpha * (1 - alpha) * (m - 1)
    hits = z_sum = 0
    x = np.zeros((trials, m), dtype=bool)
    x[:, 1:] = ownership(rng, alpha, trials * (m - 1)).reshape(trials, m - 1)
    for row in x:
        z = count_pairs(row.astype(int)).z
        hits += abs(z - center) > delta * center
        z_sum += z
    return cc.PairDeviationSummary(hits / trials, z_sum / trials, center)


def test_empirical_deviation_matches_direct_counting(monkeypatch):
    # With segment_stats counted from bits (the per-bit stand-in), the
    # kernel's sum over segments must be count_pairs' Z exactly.
    monkeypatch.setattr(cc, "segment_stats", per_bit_segment_stats)
    alpha, m, delta, seed, trials = 0.4, 60, 0.3, 7, 1_100
    summary = cc.empirical_pair_summary(alpha, m, delta, trials=trials, seed=seed)
    assert summary == _direct_summary(alpha, m, delta, trials, seed)


@pytest.mark.parametrize("segment, chunk", [(cc._SEGMENT, cc._CHUNK), (7, 5), (1, 1)])
@pytest.mark.parametrize(
    "trials, m",
    [
        (7, 500),
        (2, 500),
        (1, 500),
        (50, 2),  # one pair position
        (700, 60),
        (7, 3),
        (700, 61),
    ],
)
def test_pair_segments_and_chunks_match_direct_counting(monkeypatch, trials, m, segment, chunk):
    # Trials cut into segments of at most `segment` bits and drawn
    # `chunk` segments at a time: with the per-bit stand-in every junction
    # between segments and every chunk edge must leave Z exact.
    monkeypatch.setattr(cc, "segment_stats", per_bit_segment_stats)
    monkeypatch.setattr(cc, "_SEGMENT", segment)
    monkeypatch.setattr(cc, "_CHUNK", chunk)
    alpha, delta, seed = 0.4, 0.3, 11
    summary = cc.empirical_pair_summary(alpha, m, delta, trials=trials, seed=seed)
    assert summary == _direct_summary(alpha, m, delta, trials, seed)


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize(
    "trials, m",
    [
        (7, 500),  # not divisible by 2, 3 or 5
        (2, 500),  # fewer trials than workers
        (1, 500),
        (50, 2),  # one pair position
        (700, 60),
        (7, 3),  # odd m
        (700, 61),
    ],
)
def test_empirical_summary_does_not_depend_on_worker_count(workers, trials, m):
    # The kernel holds no state between calls, so `workers` threads running
    # it at once, their switches interleaved as finely as possible, must
    # each return what a lone call returns.
    alpha, delta, seed = 0.4, 0.3, 11
    alone = cc.empirical_pair_summary(alpha, m, delta, trials=trials, seed=seed)
    start = threading.Barrier(workers)
    results = [None] * workers

    def work(i):
        start.wait(10)
        results[i] = cc.empirical_pair_summary(alpha, m, delta, trials=trials, seed=seed)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [alone] * workers


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_empirical_summary_rejects_seed(seed):
    # Checked before anything is drawn, not by numpy.
    with pytest.raises(ParameterError, match="seed must be"):
        cc.empirical_pair_summary(0.3, 100, 0.1, trials=10, seed=seed)


def test_empirical_summary_rejects_trials_longer_than_the_cap():
    with pytest.raises(ParameterError, match="m must be between 2 and"):
        cc.empirical_pair_summary(0.3, MAX_KEYBLOCKS + 1, 0.1, trials=1, seed=0)


def test_empirical_summary_memory_is_bounded():
    # No per-bit array is held: 10k x 10,001 draws are 800 MB.
    tracemalloc.start()
    try:
        cc.empirical_pair_summary(0.3, 10_001, 0.1, 10_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_empirical_summary_memory_is_bounded_by_bits():
    # No per-bit array is held at any m: 64 rows of 4M bits would be 1.5 GB.
    tracemalloc.start()
    try:
        cc.empirical_pair_summary(0.3, 4_000_000, 0.1, 64, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_empirical_summary_memory_is_bounded_in_trials():
    # Trials are drawn _CHUNK segments at a time, so no array grows with
    # the trials: 2**21 trials' run counts alone would be 16 MB.
    tracemalloc.start()
    try:
        cc.empirical_pair_summary(0.3, 10_001, 0.1, 2**21, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
