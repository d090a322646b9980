"""Adjacent-pair statistics of key-block ownership sequences and their
concentration bounds, with Monte Carlo verification helpers.

An ownership sequence is a 0/1 list: 1 marks a selfish key block.  The first
element is 0 by convention (the starting ancestor block is honest).  Z counts
adjacent (1,0) pairs, K counts adjacent (0,1) pairs; deviations are measured
from the centre alpha*beta*(m-1), not from the mean.
"""
from __future__ import annotations

import math
import os
import threading
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
    5: alpha in [0.02, 0.98], m <= 1,500, 8 deltas) the exact tail was at
    most 0.021 times it wherever it is below 1.  At alpha in {0, 1} ab is
    0, the event is empty and the bound is exactly 4.0.
    """
    if not 0.0 < delta < 1.0:
        raise SequenceError("delta must be in (0,1)")
    if m < 2:
        raise SequenceError("m must be at least 2")
    if not 0.0 <= alpha <= 1.0:
        raise SequenceError("alpha out of [0,1]")
    ab = alpha * (1.0 - alpha)
    return 4.0 * math.exp(-delta * delta * ab * (m - 1) / 4.0)


def ownership_bits(bits: np.random.BitGenerator, alpha: float, out: np.ndarray) -> np.ndarray:
    """Fill the bool array ``out``, in C order, with Bernoulli(alpha)
    ownership bits from the next ceil(out.size / 2) raw 64-bit outputs of
    ``bits`` (``random_raw``, which releases the GIL), and return it.

    Each output is two 32-bit lanes, low half first (a ``uint32`` view on a
    little-endian host), and a bit is 1 when its lane is below
    ceil(alpha * 2**32), alpha * 2**32 being exact in floating point.  So a
    bit is 1 with probability ceil(alpha * 2**32) / 2**32, alpha to a
    resolution of 2**-32.  An odd out.size discards the last output's high
    lane.
    """
    lanes = bits.random_raw(-(-out.size // 2)).view(np.uint32)[: out.size]
    return np.less(lanes.reshape(out.shape), math.ceil(alpha * 2**32), out=out)


# Rows of trials held at once, over all threads, and the ownership bits one
# batch may hold unless a single trial has more; together they bound the buffers.
_BATCH = 64
_BATCH_BITS = 1 << 22


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

    Each sequence draws every bit Bernoulli(alpha) with the first bit forced
    to 0.  The bits come row-major from one PCG64 stream seeded with
    ``seed``, two per raw 64-bit output (ownership_bits: alpha to a
    resolution of 2**-32), so trial t always starts at raw output
    t * ceil(m/2); for odd m each trial's last lane is discarded.  The
    trials are therefore split into W contiguous parts, W being the CPUs the
    process may run on (capped at the rows of a batch), and one
    ThreadPoolExecutor of W threads runs every part, each from a generator
    advanced to its first trial's offset.  The hit count and the sum of Z
    are integer sums, so the result depends on the seed alone, not on W or
    on the batch size.  A batch holds at most _BATCH rows and, unless one
    trial is longer, _BATCH_BITS bits.  The parts share its bit and (1,0)
    pair-flag buffers, all allocated before any part starts, and each part
    draws a batch's raw outputs into a fresh array, so memory is about 6
    bytes per bit of one batch whatever the number of trials.  Every
    parameter is checked before anything is drawn.  A failing part sets the
    stop event and its exception is raised here; an interrupted caller sets
    it too.  Either way the other parts quit at their next batch, and all
    have ended before this returns or raises.
    """
    if trials < 1:
        raise SequenceError("trials must be at least 1")
    if not 0.0 <= alpha <= 1.0:
        raise SequenceError("alpha out of [0,1]")
    if m < 2:
        raise SequenceError("m must be at least 2")
    if not 0.0 < delta < 1.0:
        raise SequenceError("delta must be in (0,1)")
    center = alpha * (1.0 - alpha) * (m - 1)
    threshold = delta * center
    words = (m + 1) // 2  # raw outputs per trial
    rows = min(_BATCH, trials, max(1, _BATCH_BITS // m))
    workers = min(_cpus(), rows)
    x = np.empty((rows, 2 * words), dtype=bool)
    # Pair flags, each row zero-padded to whole 64-bit words for bitwise_count.
    pairs = np.zeros((rows, -(-(m - 1) // 8) * 8), dtype=bool)
    stop = threading.Event()  # set by a failing part or an interrupted caller

    def part(j: int) -> tuple[int, int]:
        try:
            lo, hi = trials * j // workers, trials * (j + 1) // workers
            bits = np.random.PCG64(seed)  # default_rng(seed)'s bit generator
            bits.advance(lo * words)
            r = slice(rows * j // workers, rows * (j + 1) // workers)
            return _count_trials(
                bits, alpha, m, center, threshold, hi - lo, x[r], pairs[r], stop
            )
        except BaseException:
            stop.set()
            raise

    # Deferred: it imports logging and queue, which the other commands never need.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        try:
            results = list(pool.map(part, range(workers)))
        except BaseException:
            stop.set()
            raise
    hits = sum(h for h, _ in results)
    z_sum = sum(z for _, z in results)
    return PairDeviationSummary(
        deviation_fraction=hits / trials,
        mean_z=z_sum / trials,
        expected_pairs=center,
    )


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _count_trials(bits, alpha, m, center, threshold, trials, x, pairs, stop):
    """(deviation hits, sum of Z) over the next ``trials`` rows of the bit
    generator ``bits``, in batches of the rows of x and pairs; stops once
    ``stop`` is set."""
    hits = 0
    z_sum = 0
    remaining = trials
    while remaining > 0 and not stop.is_set():
        n = min(len(x), remaining)
        ownership_bits(bits, alpha, x[:n])
        x[:n, 0] = False
        np.greater(x[:n, : m - 1], x[:n, 1:m], out=pairs[:n, : m - 1])
        z = np.bitwise_count(pairs[:n].view(np.uint64)).sum(axis=1)
        hits += int(np.count_nonzero(np.abs(z - center) > threshold))
        z_sum += int(z.sum())
        remaining -= n
    return hits, z_sum
