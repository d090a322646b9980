"""Monte Carlo mining simulator: the independent oracle for the closed-form
revenue formulas and the decision-process solver.

Key blocks arrive as a Poisson process; each interval carries a continuous
fee mass proportional to its length, in fee units (one unit = the fees of a
mean-length interval), split between the issuing leader (fraction r) and
the next key-block miner (1 - r).  Attacks orphan part of the fee mass of
the intervals they touch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .concentration import PairCounts
from .mdp import Fork, LastMicro, MdpAction, MdpState, SolveResult
from .model import ProtocolParams, RewardWeights


@dataclass(frozen=True)
class Honest:
    """Protocol-following mining."""


@dataclass(frozen=True)
class Inclusion:
    """Withhold a fraction rho of own microblocks each interval."""

    rho: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho out of [0,1]")


@dataclass(frozen=True)
class Extension:
    """Reject a fraction rho of the previous leader's microblocks."""

    rho: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho out of [0,1]")


@dataclass(frozen=True)
class MdpPolicy:
    """Follow a solved selfish-mining policy."""

    result: SolveResult


Strategy = Union[Honest, Inclusion, Extension, MdpPolicy]

INTERVAL_MODES = ("exponential", "deterministic")


@dataclass(frozen=True)
class SimConfig:
    params: ProtocolParams
    strategy: Strategy
    horizon_keyblocks: int
    seed: int
    interval_mode: str = "exponential"
    # Weights used to scalarize the revenue ratio.  None selects fee-only
    # accounting for honest/inclusion/extension (matching the closed-form
    # limits, which track transaction fees) and the policy's own weights for
    # MdpPolicy.
    weights: RewardWeights | None = None

    def __post_init__(self) -> None:
        if self.horizon_keyblocks < 2:
            raise ValueError("horizon_keyblocks must be at least 2")
        if self.interval_mode not in INTERVAL_MODES:
            raise ValueError(f"unknown interval_mode {self.interval_mode!r}")

    def effective_weights(self) -> RewardWeights:
        if self.weights is not None:
            return self.weights
        if isinstance(self.strategy, MdpPolicy):
            return self.strategy.result.weights
        return RewardWeights.fee_dominated()


@dataclass(frozen=True)
class SimReport:
    relative_revenue: float
    std_error: float
    selfish_key_rewards: int
    honest_key_rewards: int
    selfish_fees: float
    honest_fees: float
    orphaned_fee_units: float
    pair_counts: PairCounts
    seed: int
    boundary_visits: int = 0

    def to_dict(self) -> dict:
        return {
            "relative_revenue": self.relative_revenue,
            "std_error": self.std_error,
            "selfish_key_rewards": self.selfish_key_rewards,
            "honest_key_rewards": self.honest_key_rewards,
            "selfish_fees": self.selfish_fees,
            "honest_fees": self.honest_fees,
            "orphaned_fee_units": self.orphaned_fee_units,
            "pairs_z": self.pair_counts.z,
            "pairs_k": self.pair_counts.k,
            "keyblocks": self.pair_counts.m,
            "seed": self.seed,
            "boundary_visits": self.boundary_visits,
        }


def run(config: SimConfig) -> SimReport:
    """Simulate horizon_keyblocks key blocks; deterministic per seed."""
    if isinstance(config.strategy, MdpPolicy):
        return _run_policy(config)
    return _run_interval_strategy(config)


def sweep(configs: list[SimConfig]) -> list[SimReport]:
    """Run each config independently, preserving input order."""
    if not configs:
        raise ValueError("sweep needs at least one config")
    reports = []
    for i, config in enumerate(configs):
        try:
            reports.append(run(config))
        except Exception as exc:
            raise RuntimeError(f"sweep entry {i} failed: {exc}") from exc
    return reports


def _run_interval_strategy(config: SimConfig) -> SimReport:
    p = config.params
    m = config.horizon_keyblocks
    rng = np.random.default_rng(config.seed)

    selfish = rng.random(m) < p.alpha
    selfish[0] = False  # starting ancestor block is honest by convention
    # Continuous fee mass per interval, in fee units: the interval length in
    # units of the mean interval.
    if config.interval_mode == "exponential":
        fee_mass = rng.exponential(1.0, m - 1)
    else:
        fee_mass = np.ones(m - 1)

    r = p.split_ratio
    leader = selfish[:-1]
    nxt = selfish[1:]

    selfish_share = np.where(leader, r, 0.0) + np.where(nxt, 1.0 - r, 0.0)
    orphan_fraction = np.zeros(m - 1)
    if isinstance(config.strategy, Inclusion):
        orphan_fraction[leader & ~nxt] = config.strategy.rho
    elif isinstance(config.strategy, Extension):
        orphan_fraction[~leader & nxt] = config.strategy.rho

    kept = fee_mass * (1.0 - orphan_fraction)
    selfish_fees = kept * selfish_share
    honest_fees = kept - selfish_fees
    orphaned = float(np.sum(fee_mass - kept))

    weights = config.effective_weights()
    # Attribute the key reward of block i+1 to interval i so the ratio and
    # its delta-method standard error come from one per-interval stream.
    sel_stream = weights.fee_weight * selfish_fees + weights.key_weight * nxt
    tot_stream = weights.fee_weight * (selfish_fees + honest_fees) + weights.key_weight
    sel_sum, tot_sum = float(sel_stream.sum()), float(tot_stream.sum())
    revenue = sel_sum / tot_sum if tot_sum > 0 else 0.0
    residual = sel_stream - revenue * tot_stream
    std_error = (
        math.sqrt(float(np.sum(residual * residual))) / tot_sum if tot_sum > 0 else 0.0
    )

    z = int(np.count_nonzero(leader & ~nxt))
    k = int(np.count_nonzero(~leader & nxt))
    return SimReport(
        relative_revenue=revenue,
        std_error=std_error,
        selfish_key_rewards=int(np.count_nonzero(selfish)),
        honest_key_rewards=int(np.count_nonzero(~selfish)),
        selfish_fees=float(selfish_fees.sum()),
        honest_fees=float(honest_fees.sum()),
        orphaned_fee_units=orphaned,
        pair_counts=PairCounts(z=z, k=k, m=m),
        seed=config.seed,
    )


@dataclass
class _Ledger:
    """Reward accumulator for the policy rollout."""

    r_a: float = 0.0
    r_h: float = 0.0
    t_a: float = 0.0
    t_h: float = 0.0
    orphaned: float = 0.0
    batches: list = field(default_factory=list)

    def leading_unit(self, last: LastMicro, next_selfish: bool, r: float) -> None:
        # The old ancestor's interval finalizes: assigned by who mined the
        # first block after the ancestor and by the microblock disposition.
        if last == LastMicro.H_IN:
            if next_selfish:
                self.t_h += r
                self.t_a += 1.0 - r
            else:
                self.t_h += 1.0
        elif last == LastMicro.H_EX:
            if next_selfish:
                self.orphaned += 1.0
            else:
                self.t_h += 1.0
        elif last == LastMicro.S_P:
            if next_selfish:
                self.t_a += 1.0
            else:
                self.t_a += r
                self.t_h += 1.0 - r
        else:  # S_H
            if next_selfish:
                self.t_a += 1.0
            else:
                self.orphaned += 1.0


def _run_policy(config: SimConfig) -> SimReport:
    """Chain-state rollout of a solved policy.

    Maintains the game state directly and applies each action's chain
    semantics, so it exercises the reward accounting independently of the
    solver's transition table.
    """
    assert isinstance(config.strategy, MdpPolicy)
    result = config.strategy.result
    p = config.params
    alpha, gamma, r = p.alpha, p.gamma, p.split_ratio
    L = result.truncation
    policy = result.policy
    m = config.horizon_keyblocks
    rng = np.random.default_rng(config.seed)

    ledger = _Ledger()
    weights = config.effective_weights()
    kw, fw = weights.key_weight, weights.fee_weight

    l_a, l_h = 0, 0
    fork = Fork.NO_TIE
    last = LastMicro.H_IN
    keyblocks = 0
    boundary_visits = 0
    prev_selfish = False
    z = k = 0

    batch_size = max(1, m // 512)
    next_batch = batch_size
    prev_sel_total = prev_all_total = 0.0
    batch_points: list[tuple[float, float]] = []

    # Uniform draws consumed one per key block (plus one per race).
    buf = rng.random(1 << 16)
    buf_i = 0

    def draw() -> float:
        nonlocal buf, buf_i
        if buf_i >= buf.size:
            buf = rng.random(1 << 16)
            buf_i = 0
        buf_i += 1
        return buf[buf_i - 1]

    def mine() -> bool:
        nonlocal keyblocks, z, k, prev_selfish
        selfish = draw() < alpha
        if prev_selfish and not selfish:
            z += 1
        elif not prev_selfish and selfish:
            k += 1
        prev_selfish = selfish
        keyblocks += 1
        return selfish

    while keyblocks < m:
        if l_a == L or l_h == L:
            boundary_visits += 1
        action = policy[MdpState(l_a, l_h, fork, last)]

        if action in (MdpAction.ADOPT, MdpAction.ADOPT_E):
            ledger.r_h += l_h
            ledger.t_h += l_h - 1  # interior intervals of the adopted stretch
            ledger.leading_unit(last, next_selfish=False, r=r)
            last = LastMicro.H_IN if action == MdpAction.ADOPT else LastMicro.H_EX
            fork = Fork.NO_TIE
            if mine():
                l_a, l_h = 1, 0
            else:
                l_a, l_h = 0, 1
        elif action in (MdpAction.OVERRIDE, MdpAction.OVERRIDE_H):
            ledger.r_a += l_h + 1
            ledger.t_a += l_h  # interior intervals of the published stretch
            ledger.leading_unit(last, next_selfish=True, r=r)
            last = LastMicro.S_P if action == MdpAction.OVERRIDE else LastMicro.S_H
            fork = Fork.NO_TIE
            remaining = l_a - l_h - 1
            if mine():
                l_a, l_h = remaining + 1, 0
            else:
                l_a, l_h = remaining, 1
        elif action == MdpAction.WAIT and fork == Fork.NO_TIE:
            if mine():
                l_a += 1
            else:
                l_h += 1
        elif action in (MdpAction.MATCH, MdpAction.MATCH_H) or (
            action == MdpAction.WAIT and fork != Fork.NO_TIE
        ):
            if action == MdpAction.MATCH:
                tie_kind, landing = Fork.TIE, LastMicro.S_P
            elif action == MdpAction.MATCH_H:
                tie_kind, landing = Fork.TIE_PRIME, LastMicro.S_H
            else:
                tie_kind = fork
                landing = LastMicro.S_P if fork == Fork.TIE else LastMicro.S_H
            u = draw()
            selfish = u < alpha
            if prev_selfish != selfish:
                if prev_selfish:
                    z += 1
                else:
                    k += 1
            prev_selfish = selfish
            keyblocks += 1
            if selfish:
                # Selfish block extends the private branch; the tie persists.
                l_a += 1
                fork = tie_kind
            elif u < alpha + gamma * (1.0 - alpha):
                # Honest block lands on the published selfish branch: the
                # matched l_h selfish blocks finalize.
                ledger.r_a += l_h
                ledger.t_a += l_h - 1
                ledger.leading_unit(last, next_selfish=True, r=r)
                l_a, l_h = l_a - l_h, 1
                fork = Fork.NO_TIE
                last = landing
            else:
                # Honest block extends the honest branch; the tie is broken.
                l_h += 1
                fork = Fork.NO_TIE
        elif action == MdpAction.REVERT:
            if fork == Fork.TIE_PRIME:
                fork = Fork.TIE
            elif last == LastMicro.S_H and l_h == 0:
                last = LastMicro.S_P
            elif last == LastMicro.H_EX and l_a == 0:
                last = LastMicro.H_IN
            else:
                raise RuntimeError(f"revert not applicable in state {(l_a, l_h, fork, last)}")
        else:
            raise RuntimeError(f"unexpected action {action} in state {(l_a, l_h, fork, last)}")

        if keyblocks >= next_batch or keyblocks >= m:
            sel_total = kw * ledger.r_a + fw * ledger.t_a
            all_total = sel_total + kw * ledger.r_h + fw * ledger.t_h
            batch_points.append(
                (sel_total - prev_sel_total, all_total - prev_all_total)
            )
            prev_sel_total, prev_all_total = sel_total, all_total
            next_batch += batch_size

    sel_total = kw * ledger.r_a + fw * ledger.t_a
    all_total = sel_total + kw * ledger.r_h + fw * ledger.t_h
    revenue = sel_total / all_total if all_total > 0 else 0.0
    std_error = _batch_std_error(batch_points, revenue)

    return SimReport(
        relative_revenue=revenue,
        std_error=std_error,
        selfish_key_rewards=int(ledger.r_a),
        honest_key_rewards=int(ledger.r_h),
        selfish_fees=ledger.t_a,
        honest_fees=ledger.t_h,
        orphaned_fee_units=ledger.orphaned,
        pair_counts=PairCounts(z=z, k=k, m=m),
        seed=config.seed,
        boundary_visits=boundary_visits,
    )


def _batch_std_error(points: list[tuple[float, float]], revenue: float) -> float:
    if len(points) < 2:
        return 0.0
    tot = sum(t for _, t in points)
    if tot <= 0:
        return 0.0
    residuals = [s - revenue * t for s, t in points]
    return math.sqrt(sum(x * x for x in residuals)) / tot
