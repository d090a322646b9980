"""Adjacent-pair statistics of key-block ownership sequences and their
concentration bounds, with Monte Carlo verification helpers.

An ownership sequence is a 0/1 list: 1 marks a selfish key block.  The first
element is 0 by convention (the starting ancestor block is honest).  Z counts
adjacent (1,0) pairs, K counts adjacent (0,1) pairs; both concentrate around
alpha*beta*(m-1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class SequenceError(ValueError):
    """Invalid ownership sequence or bound parameter."""


@dataclass(frozen=True)
class PairCounts:
    z: int  # adjacent (1, 0) pairs
    k: int  # adjacent (0, 1) pairs
    m: int  # sequence length


def count_pairs(bits: Sequence[int]) -> PairCounts:
    """Count adjacent (1,0) and (0,1) pairs over the m-1 adjacent positions."""
    if len(bits) < 2:
        raise SequenceError("ownership sequence needs at least 2 elements")
    x = np.asarray(bits, dtype=bool)
    z = int(np.count_nonzero(x[:-1] & ~x[1:]))
    k = int(np.count_nonzero(~x[:-1] & x[1:]))
    return PairCounts(z=z, k=k, m=len(bits))


def pair_deviation_bound(alpha: float, m: int, delta: float) -> float:
    """Two-sided bound on Pr(|Z - ab(m-1)| > delta * ab(m-1)), ab = alpha*beta.

    The pair indicators split into two interleaved sums (odd and even
    positions), each i.i.d. with mean ab(m-1)/2.  Applying the per-class
    bound to the upper and lower tail of each class gives the explicit
    constant 4 * exp(-delta^2 * ab * (m-1) / 4).  The same bound holds for K
    by the symmetry 1 <-> 0 with alpha <-> beta.
    """
    if not 0.0 < delta < 1.0:
        raise SequenceError("delta must be in (0,1)")
    if m < 2:
        raise SequenceError("m must be at least 2")
    if not 0.0 < alpha < 1.0:
        raise SequenceError("alpha must be in (0,1)")
    ab = alpha * (1.0 - alpha)
    return 4.0 * math.exp(-delta * delta * ab * (m - 1) / 4.0)


# Trials per vectorized batch; bounds the (batch, m) draw array.
_BATCH = 512


@dataclass(frozen=True)
class PairDeviationSummary:
    deviation_fraction: float
    mean_z: float
    expected_pairs: float  # alpha * beta * (m - 1)
    trials: int


def empirical_pair_summary(
    alpha: float,
    m: int,
    delta: float,
    trials: int,
    seed: int,
) -> PairDeviationSummary:
    """Monte Carlo estimate of how often Z deviates from alpha*beta*(m-1)
    by more than the delta fraction, plus the mean of Z itself.

    Each sequence draws every bit Bernoulli(alpha) with the first bit forced
    to 0.  Trials run in batches of _BATCH rows drawn row-major from one
    generator, so the result depends on the seed and not on the batch size.
    """
    if trials < 1:
        raise SequenceError("trials must be at least 1")
    if not 0.0 <= alpha <= 1.0:
        raise SequenceError("alpha out of [0,1]")
    if m < 2:
        raise SequenceError("m must be at least 2")
    rng = np.random.default_rng(seed)
    center = alpha * (1.0 - alpha) * (m - 1)
    threshold = delta * center
    hits = 0
    z_sum = 0
    remaining = trials
    while remaining > 0:
        n = min(_BATCH, remaining)
        x = rng.random((n, m)) < alpha
        x[:, 0] = False
        z = np.count_nonzero(x[:, :-1] & ~x[:, 1:], axis=1)
        hits += int(np.count_nonzero(np.abs(z - center) > threshold))
        z_sum += int(z.sum())
        remaining -= n
    return PairDeviationSummary(
        deviation_fraction=hits / trials,
        mean_z=z_sum / trials,
        expected_pairs=center,
        trials=trials,
    )
