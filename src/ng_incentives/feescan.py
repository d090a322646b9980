"""Transaction-fee dataset parsing, histogram/CDF summaries, and
whale/regular classification."""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .model import require


class FeeDataError(ValueError):
    """Malformed fee data; collects every bad line with its line number."""

    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = errors
        lines = "; ".join(f"line {n}: {msg}" for n, msg in errors)
        super().__init__(f"invalid fee data ({lines})")


def parse_fees(text: str) -> np.ndarray:
    """Parse fees, one per line: either ``fee`` or ``block_height,fee``.

    Blank lines and '#' comments are skipped; a block height must be an
    integer and is then dropped.  All malformed lines are collected and
    reported together in a single FeeDataError.
    """
    fees: list[float] = []
    errors: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        try:
            if len(parts) == 1:
                fee = float(parts[0])
            elif len(parts) == 2:
                int(parts[0])  # the block height: checked, not kept
                fee = float(parts[1])
            else:
                raise ValueError("expected 'fee' or 'block_height,fee'")
            if fee < 0.0 or not np.isfinite(fee):
                raise ValueError(f"fee must be finite and nonnegative, got {fee}")
        except ValueError as exc:
            errors.append((lineno, str(exc)))
            continue
        fees.append(fee)
    if errors:
        raise FeeDataError(errors)
    return np.array(fees, dtype=float)


def load_fees(path: str | Path) -> np.ndarray:
    return parse_fees(Path(path).read_text())


@dataclass(frozen=True)
class FeeDistribution:
    """Histogram over half-open buckets [e_i, e_{i+1}) plus underflow and
    overflow buckets, and an exact empirical CDF."""

    count: int
    bucket_counts: tuple[int, ...]  # len(edges) + 1: underflow, bins, overflow
    # Read-only; distributions compare by count and buckets alone.
    _sorted_fees: np.ndarray = field(compare=False, repr=False)

    def cdf_at(self, threshold: float) -> float:
        """Fraction of fees strictly below the threshold."""
        below = np.searchsorted(self._sorted_fees, threshold, side="left")
        return float(below) / self.count


def check_edges(edges: Sequence[float]) -> None:
    """Raise ParameterError unless the bucket edges are two or more finite
    numbers in strictly ascending order."""
    require(len(edges) >= 2, "need at least two bucket edges")
    require(np.isfinite(edges).all(), f"bucket edges must be finite, got {edges}")
    ascending = all(a < b for a, b in zip(edges, edges[1:]))
    require(ascending, "bucket edges must be strictly ascending")


def distribution(fees: np.ndarray, edges: Iterable[float]) -> FeeDistribution:
    edges = tuple(float(e) for e in edges)
    check_edges(edges)
    fees = np.asarray(fees, dtype=float)
    if fees.size == 0:
        raise ValueError("no fee records")
    # searchsorted(side='right') puts fee == edge into the bucket starting at
    # that edge; index 0 is the underflow bucket, len(edges) the overflow.
    idx = np.searchsorted(edges, fees, side="right")
    counts = np.bincount(idx, minlength=len(edges) + 1)
    sorted_fees = np.sort(fees)
    sorted_fees.flags.writeable = False
    return FeeDistribution(
        count=fees.size,
        bucket_counts=tuple(int(c) for c in counts),
        _sorted_fees=sorted_fees,
    )


@dataclass(frozen=True)
class Classification:
    regular_fraction: float
    mean_regular_fee: float
    mean_fee: float


def classify(fees: np.ndarray, whale_threshold: float) -> Classification:
    """Split fees into regular (fee < threshold) and whale transactions."""
    require(0.0 < whale_threshold < np.inf, "whale_threshold must be positive and finite")
    fees = np.asarray(fees, dtype=float)
    if fees.size == 0:
        raise ValueError("no fee records")
    regular = fees < whale_threshold
    n_regular = int(np.count_nonzero(regular))
    return Classification(
        regular_fraction=n_regular / fees.size,
        mean_regular_fee=float(fees[regular].mean()) if n_regular else 0.0,
        mean_fee=float(fees.mean()),
    )
