"""Adjacent-pair statistics of key-block ownership sequences and their
concentration bounds, with Monte Carlo verification helpers.

An ownership sequence is a 0/1 list: 1 marks a selfish key block.  The first
element is 0 by convention (the starting ancestor block is honest).  Z counts
adjacent (1,0) pairs, K counts adjacent (0,1) pairs; deviations are measured
from the centre alpha*beta*(m-1), not from the mean.

Both Monte Carlo kernels, the pair Monte Carlo here and the interval
simulator, read a run of ownership bits only through four numbers: its ones,
its runs of ones, and its first and last bit.  segment_stats draws those four
from their exact joint law, a few variates per run of bits whatever its
length, instead of drawing every bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MAX_KEYBLOCKS, require, require_fractions, require_seed


def pair_deviation_bound(alpha: float, m: int, delta: float) -> float:
    """The reported bound 4 * exp(-delta^2 * ab * (m-1) / 4) on
    Pr(|Z - ab(m-1)| > delta * ab(m-1)), ab = alpha*beta.

    The centre ab(m-1), expected_pairs, is a reference, not the mean: the
    first bit is 0, so the first pair indicator is 0 and E[Z] = ab(m-2).
    Proved: indicators of one parity share no block, so Z is two sums of
    independent Bernoulli(ab) terms, and the Chernoff tails exp(-delta^2
    mu/3) above and exp(-delta^2 mu/2) below each sum's mean mu bound
    Pr(|Z - E[Z]| > delta * E[Z]) by their total.  Only scanned: the
    returned constant, the lower-tail form at mu = ab(m-1)/2 for all four
    tails about the centre.  Against the exact law of Z (ROADMAP direction
    6: alpha in [0.02, 0.98], m <= 1,500, 8 deltas) the exact tail was at
    most 0.021 times it wherever it is below 1.  At alpha in {0, 1} ab is
    0, the event is empty and the bound is exactly 4.0.
    """
    require(0.0 < delta < 1.0, "delta must be in (0,1)")
    require(m >= 2, "m must be at least 2")
    require_fractions(alpha=alpha)
    ab = alpha * (1.0 - alpha)
    return 4.0 * math.exp(-delta * delta * ab * (m - 1) / 4.0)


def segment_stats(
    rng: np.random.Generator, alpha: float, n: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ones, the runs of ones, the first bit and the last bit of
    independent segments of n[i] Bernoulli(alpha) bits each, drawn from
    their exact joint law with a few variates per segment.

    Returns four arrays of n's shape: two int64 arrays, then two bool
    arrays (a segment of no bits has all four 0).  Every length must be
    below 999,999,999: numpy's hypergeometric takes counts below 10**9.

    The law.  A segment of n bits has s ones and k = n - s zeros, s being
    Binomial(n, alpha).  Given s, every arrangement of the bits is equally
    likely.  Its runs of ones sit in the k + 1 gaps around the zeros, at
    most one run per gap, the two end gaps included.  Choosing r of the
    gaps and cutting the s ones into r non-empty runs gives
    C(k + 1, r) * C(s - 1, r - 1) of the C(n, s) arrangements, so for
    0 < s < n, r - 1 is Hypergeometric(ngood = s - 1, nbad = k + 1,
    nsample = k) (Mood, "The Distribution Theory of Runs", Ann. Math.
    Stat. 1940); r = 0 if s = 0 and r = 1 if k = 0.  Every one of the
    C(k + 1, r) choices of gaps has the same C(s - 1, r - 1) arrangements,
    so given r the occupied gaps are a uniform r-subset: the number of end
    gaps among them is Hypergeometric(2, k - 1, r), and when it is one,
    it is the first or the last gap with probability 1/2 each.  The first
    bit is 1 when the first gap is occupied, the last bit when the last
    one is.  At k = 0 the one gap is both ends.

    The draws, each over all segments in C order: the binomials, then the
    run counts, then the end-gap counts, then one coin per segment.  alpha
    enters only the binomial, at full double precision.
    """
    n = np.asarray(n, dtype=np.int64)
    ones = rng.binomial(n, alpha)
    zeros = n - ones
    runs = rng.hypergeometric(np.maximum(ones - 1, 0), zeros + 1, zeros)
    runs = np.where(ones > 0, runs + 1, 0)
    ends = rng.hypergeometric(2, np.maximum(zeros - 1, 0), runs)
    ends = np.where(zeros > 0, ends, 2 * runs)
    coin = rng.integers(0, 2, n.shape, dtype=bool)
    first = (ends == 2) | ((ends == 1) & coin)
    last = (ends == 2) | ((ends == 1) & ~coin)
    return ones, runs, first, last


# Bits per segment of a pair trial (segment_stats needs fewer than 10**9)
# and segments drawn at once.  The longest trial, MAX_KEYBLOCKS bits, is 19
# segments, so a trial's cost stays bounded.
_SEGMENT = 1 << 29
_CHUNK = 1 << 16


@dataclass(frozen=True)
class PairDeviationSummary:
    deviation_fraction: float
    mean_z: float
    expected_pairs: float  # the centre alpha * beta * (m - 1); E[Z] = alpha * beta * (m - 2)


def empirical_pair_summary(
    alpha: float,
    m: int,
    delta: float,
    trials: int,
    seed: int,
) -> PairDeviationSummary:
    """Monte Carlo estimate of how often Z deviates from alpha*beta*(m-1)
    by more than the delta fraction, plus the mean of Z itself.

    Each trial is a 0 bit followed by m - 1 Bernoulli(alpha) bits, cut into
    the fewest near-equal segments of at most _SEGMENT bits.  Within a
    segment every run of ones but a final one is followed by a 0, so the
    segment holds runs - last (1,0) pairs; a pair across two segments is a
    segment ending in 1 followed by one starting with 0; the leading 0 bit
    starts no pair.  So Z is a sum over segment_stats draws, and a trial
    costs a few variates per segment whatever m is.  The trials are drawn
    in chunks of max(1, _CHUNK // segments per trial) from one PCG64 stream
    seeded with ``seed``: each chunk makes one segment_stats call over its
    trials' segments in trial order.  Memory is a few arrays of one chunk,
    whatever m and the number of trials.  Every parameter, m and trials at
    most MAX_KEYBLOCKS included, is checked before anything is drawn.
    """
    require(
        1 <= trials <= MAX_KEYBLOCKS, f"trials must be between 1 and {MAX_KEYBLOCKS}, got {trials}"
    )
    require_fractions(alpha=alpha)
    require(2 <= m <= MAX_KEYBLOCKS, f"m must be between 2 and {MAX_KEYBLOCKS}, got {m}")
    require(0.0 < delta < 1.0, "delta must be in (0,1)")
    require_seed(seed)
    center = alpha * (1.0 - alpha) * (m - 1)
    threshold = delta * center
    parts = -(-(m - 1) // _SEGMENT)
    lengths = np.diff(np.arange(parts + 1) * (m - 1) // parts)
    rows = max(1, _CHUNK // parts)
    rng = np.random.default_rng(seed)
    hits = z_sum = 0
    for done in range(0, trials, rows):
        n = np.broadcast_to(lengths, (min(rows, trials - done), parts))
        _, runs, first, last = segment_stats(rng, alpha, n)
        z = (runs - last).sum(axis=1) + (last[:, :-1] & ~first[:, 1:]).sum(axis=1)
        hits += int(np.count_nonzero(np.abs(z - center) > threshold))
        z_sum += int(z.sum())
    return PairDeviationSummary(
        deviation_fraction=hits / trials,
        mean_z=z_sum / trials,
        expected_pairs=center,
    )
