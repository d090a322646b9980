import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ng_incentives import concentration as cc

from oracles import lanes, pair_moments


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
    # At alpha in {0, 1} no pair can occur: the bound is the bare constant.
    assert cc.pair_deviation_bound(0.0, 100, 0.1) == 4.0
    assert cc.pair_deviation_bound(1.0, 100, 0.1) == 4.0
    for alpha in (-0.1, 1.1, math.nan):
        with pytest.raises(cc.SequenceError, match="alpha"):
            cc.pair_deviation_bound(alpha, 100, 0.1)
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
    with pytest.raises(cc.SequenceError, match="delta"):
        cc.empirical_pair_summary(alpha, 100, delta, trials=10, seed=0)


def test_empirical_deviation_matches_direct_counting():
    # Cross-check the batched trial loop against count_pairs over one draw
    # of all trials at once, trial t from raw output t * ceil(m / 2); more
    # trials than one batch, so the result must not depend on where the
    # batches split.
    alpha, m, delta, seed, trials = 0.4, 60, 0.3, 7, 1_100
    summary = cc.empirical_pair_summary(alpha, m, delta, trials=trials, seed=seed)
    rng = np.random.default_rng(seed)
    center = alpha * (1 - alpha) * (m - 1)
    hits = z_sum = 0
    x = lanes(rng, trials * m).reshape(trials, m) * 2.0**-32 < alpha
    x[:, 0] = False
    for row in x:
        z = cc.count_pairs(row.astype(int)).z
        hits += abs(z - center) > delta * center
        z_sum += z
    assert summary.deviation_fraction == hits / trials
    assert summary.mean_z == z_sum / trials


def _direct_summary(alpha, m, delta, trials, seed):
    # count_pairs over one row-major draw of all trials from one stream:
    # ceil(m / 2) raw outputs per trial, the last lane unused for odd m.
    rng = np.random.default_rng(seed)
    center = alpha * (1 - alpha) * (m - 1)
    hits = z_sum = 0
    words = (m + 1) // 2
    x = lanes(rng, trials * 2 * words).reshape(trials, 2 * words)[:, :m] * 2.0**-32 < alpha
    x[:, 0] = False
    for row in x:
        z = cc.count_pairs(row.astype(int)).z
        hits += abs(z - center) > delta * center
        z_sum += z
    return cc.PairDeviationSummary(hits / trials, z_sum / trials, center)


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize(
    "trials, m",
    [
        (7, 500),  # not divisible by 2, 3 or 5
        (2, 500),  # fewer trials than workers
        (1, 500),
        (50, 2),  # one pair position
        (700, 60),  # more than one batch per worker
        (7, 3),  # odd m: each trial discards its last lane
        (700, 61),
    ],
)
def test_empirical_summary_does_not_depend_on_worker_count(monkeypatch, workers, trials, m):
    monkeypatch.setattr(cc, "_cpus", lambda: workers)
    alpha, delta, seed = 0.4, 0.3, 11
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads as finely as possible
    try:
        summary = cc.empirical_pair_summary(alpha, m, delta, trials=trials, seed=seed)
    finally:
        sys.setswitchinterval(switch)
    assert summary == _direct_summary(alpha, m, delta, trials, seed)


def test_failing_part_stops_its_sibling_at_the_next_batch(monkeypatch):
    # The first part to start waits until its sibling has started too, so
    # the two run on two threads at once, then fails.  The sibling blocks
    # until the stop event is set and only then runs its real batch loop,
    # which must return before drawing a single row.
    count_trials = cc._count_trials
    lock = threading.Lock()
    calls = []
    sibling_started = threading.Event()
    sibling = []

    def patched(*args):
        stop = args[-1]
        with lock:
            calls.append(None)
            first = len(calls) == 1
        if first:
            assert sibling_started.wait(10)
            raise MemoryError("injected")
        sibling_started.set()
        sibling.append(stop.wait(10))
        sibling.append(count_trials(*args))
        return sibling[-1]

    monkeypatch.setattr(cc, "_cpus", lambda: 2)
    monkeypatch.setattr(cc, "_count_trials", patched)
    before = set(threading.enumerate())
    with pytest.raises(MemoryError, match="injected"):
        cc.empirical_pair_summary(0.3, 101, 0.2, trials=100, seed=0)
    assert sibling == [True, (0, 0)]
    assert set(threading.enumerate()) == before


def test_empirical_summary_memory_is_bounded():
    # Only one batch of draws is held at a time: 10k x 10,001 draws are 800 MB.
    tracemalloc.start()
    try:
        cc.empirical_pair_summary(0.3, 10_001, 0.1, 10_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_empirical_summary_memory_is_bounded_by_bits():
    # A batch holds at most _BATCH_BITS bits unless one trial is longer, so
    # long trials run one row at a time: 64 rows of 4M bits would be 1.5 GB.
    tracemalloc.start()
    try:
        cc.empirical_pair_summary(0.3, 4_000_000, 0.1, 64, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
