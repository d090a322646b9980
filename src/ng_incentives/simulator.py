"""Monte Carlo mining simulator: the independent oracle for the closed-form
revenue formulas and the decision-process solver.

Key blocks arrive as a Poisson process; each interval carries a continuous
fee mass proportional to its length, in fee units (one unit = the fees of a
mean-length interval), split between the issuing leader (fraction r) and
the next key-block miner (1 - r).  Attacks orphan part of the fee mass of
the intervals they touch.  These interval strategies reduce every interval
to its category (who mined the key blocks at its two ends) and its fee
mass, so a run keeps sums per batch and category, one byte per key block
and one slice of draws, whatever its length.  The rollout of a solved
selfish-mining policy instead counts one fee unit per key-block interval,
as the decision process does, so it ignores the interval mode.

Both simulators report as std_error the batch-means standard error of the
revenue ratio over _BATCHES batches of consecutive intervals or key blocks;
a batch of many intervals carries the covariance of adjacent intervals,
which share a key block, into the estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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


# Interval categories, 2 * leader + next with 1 for a selfish block.
_HH, _HS, _SH, _SS = range(4)
_SLICE = 1 << 15  # draws per generator call in both simulators
_BATCHES = 512  # batch means behind both simulators' standard error


def _run_interval_strategy(config: SimConfig) -> SimReport:
    """Interval simulation from per-batch, per-category sums.

    Interval i runs from key block i to key block i + 1 and falls in
    category 2 * leader + next, leader and next being whether blocks i and
    i + 1 are selfish.  Everything the report needs depends on an interval
    only through its category c and its fee mass f:

        c   leader next  selfish share  orphaned fraction
        HH  honest honest      0            0
        HS  honest selfish   1 - r          Extension.rho
        SH  selfish honest     r            Inclusion.rho
        SS  selfish selfish    1            0

    The key reward of block i + 1 goes to interval i.  The m - 1 intervals
    fall into batches of max(1, m // _BATCHES) consecutive intervals, and a
    run keeps the count n_c and fee sum sum(f) of every (batch, category).
    Their column sums give the report, linear in n_c and sum(f); the
    adjacent pairs are z = n_SH and k = n_HS.  Each batch's rows give its
    (selfish, total) revenue sums, whose batch means give the standard
    error.  Deterministic intervals have f = 1.

    The seeded stream draws all m ownership uniforms, then the m - 1 fee
    masses, each in slices of _SLICE.  Every uniform precedes the
    first fee mass, so the ownership of all m key blocks stays in memory,
    one byte each; everything else is bounded by the slice length.
    """
    p = config.params
    m = config.horizon_keyblocks
    rng = np.random.default_rng(config.seed)

    selfish = np.empty(m, dtype=bool)
    draws = np.empty(min(_SLICE, m))
    for start in range(0, m, _SLICE):
        u = draws[: min(_SLICE, m - start)]
        rng.random(out=u)
        np.less(u, p.alpha, out=selfish[start : start + u.size])
    selfish[0] = False  # starting ancestor block is honest by convention
    owner = selfish.view(np.uint8)

    exponential = config.interval_mode == "exponential"
    size = max(1, m // _BATCHES)
    cells = 4 * len(range(0, m - 1, size))
    cell_count = np.zeros(cells, np.int64)
    cell_fees = np.zeros(cells)
    for start in range(0, m - 1, _SLICE):
        stop = min(start + _SLICE, m - 1)
        # Cell 4 * batch + category, built in place: one index per interval.
        cell = np.arange(start, stop)
        cell //= size
        cell *= 4
        cell += 2 * owner[start:stop] + owner[start + 1 : stop + 1]
        cell_count += np.bincount(cell, minlength=cells)
        if exponential:
            # Fee mass in fee units: the interval length in units of the
            # mean interval.
            f = draws[: stop - start]
            rng.standard_exponential(out=f)
            cell_fees += np.bincount(cell, weights=f, minlength=cells)
    if not exponential:
        cell_fees = cell_count.astype(float)
    # One row per batch, one column per category.
    cell_count, cell_fees = cell_count.reshape(-1, 4), cell_fees.reshape(-1, 4)
    count, fee_sum = cell_count.sum(axis=0), cell_fees.sum(axis=0)

    r = p.split_ratio
    share = np.array([0.0, 1.0 - r, r, 1.0])
    next_selfish = np.array([0.0, 1.0, 0.0, 1.0])
    orphan_fraction = np.zeros(4)
    if isinstance(config.strategy, Inclusion):
        orphan_fraction[_SH] = config.strategy.rho
    elif isinstance(config.strategy, Extension):
        orphan_fraction[_HS] = config.strategy.rho
    kept = (1.0 - orphan_fraction) * fee_sum
    selfish_fees = float(np.sum(share * kept))
    honest_fees = float(np.sum((1.0 - share) * kept))
    orphaned = float(np.sum(orphan_fraction * fee_sum))
    selfish_blocks = int(count[_HS] + count[_SS])

    weights = config.effective_weights()
    kw, fw = weights.key_weight, weights.fee_weight
    sel_sum = fw * selfish_fees + kw * selfish_blocks
    tot_sum = fw * (selfish_fees + honest_fees) + kw * (m - 1)
    revenue = sel_sum / tot_sum if tot_sum > 0 else 0.0
    kept_weight = fw * (1.0 - orphan_fraction)
    batch_selfish = cell_fees @ (kept_weight * share) + kw * (cell_count @ next_selfish)
    batch_total = cell_fees @ kept_weight + kw * cell_count.sum(axis=1)

    return SimReport(
        relative_revenue=revenue,
        std_error=_batch_std_error(batch_selfish, batch_total, revenue),
        selfish_key_rewards=selfish_blocks,
        honest_key_rewards=m - selfish_blocks,
        selfish_fees=selfish_fees,
        honest_fees=honest_fees,
        orphaned_fee_units=orphaned,
        pair_counts=PairCounts(z=int(count[_SH]), k=int(count[_HS]), m=m),
        seed=config.seed,
    )


# Draw codes of one key block: the selfish miner finds it (u < alpha); an
# honest miner finds it on the published selfish branch of a race
# (u < alpha + gamma * (1 - alpha)); an honest miner finds it on the honest
# branch.  Outside a race only the first distinction matters.
_CODES = 3
_SELFISH, _MATCH_WIN, _HONEST = range(_CODES)
# Ledger delta fields of one step, in this order.
_R_A, _R_H, _T_A, _T_H, _ORPHANED = range(5)
_NO_DELTA = (0.0, 0.0, 0.0, 0.0, 0.0)
_CHUNK = 128  # draw codes per row of the rollout's parallel scan


def _show(state: MdpState) -> str:
    l_a, l_h, fork, last = state
    return f"({l_a}, {l_h}, {Fork(fork).name}, {LastMicro(last).name})"


def _leading_unit(last: LastMicro, next_selfish: bool, r: float) -> tuple:
    """(t_a, t_h, orphaned) shares of the old ancestor's interval when it
    finalizes: assigned by who mined the first block after the ancestor and
    by the microblock disposition."""
    if last == LastMicro.H_IN:
        return (1.0 - r, r, 0.0) if next_selfish else (0.0, 1.0, 0.0)
    if last == LastMicro.H_EX:
        return (0.0, 0.0, 1.0) if next_selfish else (0.0, 1.0, 0.0)
    if last == LastMicro.S_P:
        return (1.0, 0.0, 0.0) if next_selfish else (r, 1.0 - r, 0.0)
    return (1.0, 0.0, 0.0) if next_selfish else (0.0, 0.0, 1.0)  # S_H


def _finalize(n: int, selfish_owner: bool, last: LastMicro, r: float) -> tuple:
    """Ledger delta of a stretch of n key blocks finalizing to one owner:
    n key rewards, the n - 1 interior fee units and the leading unit."""
    t_a, t_h, orphaned = _leading_unit(last, selfish_owner, r)
    if selfish_owner:
        return (float(n), 0.0, t_a + (n - 1), t_h, orphaned)
    return (0.0, float(n), t_a, t_h + (n - 1), orphaned)


def _step(state: MdpState, action: MdpAction, code: int, r: float) -> tuple:
    """Chain semantics of one action: (next state, ledger delta).

    Every action but REVERT mines one key block, whose draw code is code;
    REVERT changes only the microblock disposition and ignores code.  The
    ledger delta is (r_a, r_h, t_a, t_h, orphaned).  Raises ValueError where
    the action does not apply in the state.
    """
    l_a, l_h, fork, last = state
    selfish = code == _SELFISH
    delta, n = _NO_DELTA, 1
    if action == MdpAction.REVERT:
        if fork == Fork.TIE_PRIME:
            # Publish the matched branch's hidden trailing microblocks.
            return MdpState(l_a, l_h, Fork.TIE, last), _NO_DELTA
        if last == LastMicro.S_H and l_h == 0:
            # No honest block contests the ancestor: publish its microblocks.
            return MdpState(l_a, l_h, fork, LastMicro.S_P), _NO_DELTA
        if last == LastMicro.H_EX and l_a == 0:
            # No selfish block commits to the exclusion: re-accept.
            return MdpState(l_a, l_h, fork, LastMicro.H_IN), _NO_DELTA
        raise ValueError(f"revert has no target in state {_show(state)}")
    if action in (MdpAction.ADOPT, MdpAction.ADOPT_E):
        n, delta = l_h, _finalize(l_h, False, last, r)
        landing = LastMicro.H_IN if action == MdpAction.ADOPT else LastMicro.H_EX
        target = (1, 0) if selfish else (0, 1)
        following = MdpState(*target, Fork.NO_TIE, landing)
    elif action in (MdpAction.OVERRIDE, MdpAction.OVERRIDE_H):
        n, delta = l_h + 1, _finalize(l_h + 1, True, last, r)
        landing = LastMicro.S_P if action == MdpAction.OVERRIDE else LastMicro.S_H
        remaining = l_a - l_h - 1
        target = (remaining + 1, 0) if selfish else (remaining, 1)
        following = MdpState(*target, Fork.NO_TIE, landing)
    elif action == MdpAction.WAIT and fork == Fork.NO_TIE:
        following = MdpState(l_a + selfish, l_h + (not selfish), fork, last)
    elif action in (MdpAction.MATCH, MdpAction.MATCH_H, MdpAction.WAIT):
        if action == MdpAction.MATCH:
            tie_kind = Fork.TIE
        elif action == MdpAction.MATCH_H:
            tie_kind = Fork.TIE_PRIME
        else:
            tie_kind = fork
        if selfish:
            # Selfish block extends the private branch; the tie persists.
            following = MdpState(l_a + 1, l_h, tie_kind, last)
        elif code == _MATCH_WIN:
            # Honest block lands on the published selfish branch: the
            # matched l_h selfish blocks finalize.
            n, delta = l_h, _finalize(l_h, True, last, r)
            landing = LastMicro.S_P if tie_kind == Fork.TIE else LastMicro.S_H
            following = MdpState(l_a - l_h, 1, Fork.NO_TIE, landing)
        else:
            # Honest block extends the honest branch; the tie is broken.
            following = MdpState(l_a, l_h + 1, Fork.NO_TIE, last)
    else:
        raise ValueError(f"unknown action {action!r} in state {_show(state)}")
    if n < 1 or following.l_a < 0:
        raise ValueError(
            f"{action.value} gives a negative chain length in state {_show(state)}"
        )
    return following, delta


def _compile(result: SolveResult, r: float) -> tuple:
    """Tabulate a policy's rollout: entry _CODES * i + code stands for state
    i of result.policy followed by a key block with that draw code.

    Returns the entry base _CODES * j of the next state per entry (an int32
    array), the ledger delta per entry, the truncation boundary visits per
    entry and the start state's entry base.  A chain of REVERTs folds into
    the drawing step after it, which also counts the chain's boundary
    visits.  Raises ValueError, naming the state, where
    the policy cannot be followed.
    """
    policy = result.policy
    index = {state: i for i, state in enumerate(policy)}
    L = result.truncation

    def entry(source: MdpState, action: MdpAction, target: MdpState) -> int:
        if target not in index:
            raise ValueError(
                f"{action.value} in state {_show(source)} leads to {_show(target)},"
                f" a state the policy (truncation L={L}) does not cover"
            )
        return _CODES * index[target]

    size = _CODES * len(policy)
    successors = np.zeros(size, np.int32)
    deltas = np.zeros((size, len(_NO_DELTA)))
    visits = np.zeros(size, np.int64)
    for i, state in enumerate(policy):
        chain = [state]
        while policy[chain[-1]] == MdpAction.REVERT:
            target, _ = _step(chain[-1], MdpAction.REVERT, _SELFISH, r)
            entry(chain[-1], MdpAction.REVERT, target)
            if target in chain:
                raise ValueError(f"revert cycle through state {_show(target)}")
            chain.append(target)
        drawing, action = chain[-1], policy[chain[-1]]
        outcomes = [_step(drawing, action, code, r) for code in range(_CODES)]
        for e, (target, delta) in enumerate(outcomes, _CODES * i):
            successors[e] = entry(drawing, action, target)
            if delta is not _NO_DELTA:
                deltas[e] = delta
        if drawing.l_a == L or drawing.l_h == L:
            # Reverts keep both chain lengths, so every state of the chain
            # is on the boundary too.
            visits[_CODES * i : _CODES * (i + 1)] = len(chain)
    start = MdpState(0, 0, Fork.NO_TIE, LastMicro.H_IN)
    if start not in index:
        raise ValueError(f"start state {_show(start)} missing from the policy")
    return successors, deltas, visits, _CODES * index[start]


def _scan(successors: np.ndarray, codes: np.ndarray, start: int, path: np.ndarray) -> int:
    """Scan rows of draw codes through a successor table, all rows at once.

    codes and path hold one row of _CHUNK key blocks per row, in key-block
    order; path receives the entry (state base + code) of every key block on
    the sequential path from entry base start.  This is a speculative
    data-parallel scan (Mytkowicz, Musuvathi & Schulte, "Data-Parallel
    Finite-State Machines", ASPLOS 2014): every row first starts from start
    as a guess, and all rows advance through their codes in lockstep.  Then
    each row whose start differs from the previous row's end runs again
    from that end, until no row differs.  Paths from different states
    mostly merge within a row, so a rerun stops as soon as every rerun row
    has rejoined its previous path, and only rows that never merged pass a
    wrong end on to another pass.  Row 0 starts from the true state, so each
    pass makes at least the first differing row final: the scan ends with
    the sequential path after at most as many passes as rows, and returns
    the number of passes.
    """
    first = np.full(len(codes), start, np.int32)
    last = np.empty_like(first)
    todo = slice(None)  # every row on the first pass, then the stale ones
    passes = 0
    while True:
        passes += 1
        s, block = first[todo], codes[todo]
        lane = path[todo]  # a view of path on the first pass, a copy after
        for j in range(_CHUNK):
            entry = s + block[:, j]
            # Once every stale row has rejoined the path of its last pass,
            # the rest of that path and its end stand.  Checked every eighth
            # step: the check costs about half a step.
            if passes > 1 and j % 8 == 0 and (entry == lane[:, j]).all():
                s = last[todo]
                break
            lane[:, j] = entry
            s = successors.take(entry)
        path[todo], last[todo] = lane, s
        stale = np.flatnonzero(first[1:] != last[:-1]) + 1
        if not stale.size:
            return passes
        first[stale] = last[stale - 1]
        todo = stale


def _run_policy(config: SimConfig) -> SimReport:
    """Chain-state rollout of a solved policy.

    Applies each action's chain semantics (_step) to every state of the
    policy once, then scans the seeded draw stream through the resulting
    table, one slice of _SLICE key blocks at a time, with _scan.  The
    ledger is written here, independently of the solver's transition table,
    so the rollout checks the solver's reward accounting.  Totals are entry
    visit counts times entry ledger deltas; each key block's selfish and
    total values also add into its batch's sums.
    """
    assert isinstance(config.strategy, MdpPolicy)
    result = config.strategy.result
    p = config.params
    if p != result.params:
        raise ValueError(
            f"policy was solved for {result.params}, not for the simulated {p}"
        )
    successors, deltas, visits, s = _compile(result, p.split_ratio)
    weights = config.effective_weights()
    kw, fw = weights.key_weight, weights.fee_weight
    sel_value = kw * deltas[:, _R_A] + fw * deltas[:, _T_A]
    all_value = sel_value + kw * deltas[:, _R_H] + fw * deltas[:, _T_H]

    m = config.horizon_keyblocks
    rng = np.random.default_rng(config.seed)
    alpha = p.alpha
    match_win = alpha + p.gamma * (1.0 - alpha)
    counts = np.zeros(len(successors), np.int64)
    size = max(1, m // _BATCHES)
    batches = len(range(0, m, size))
    batch_selfish = np.zeros(batches)
    batch_total = np.zeros(batches)
    # One slice's draws (then its key blocks' values), selfish flags, and
    # codes and entries in rows of _CHUNK.  The last row of the last slice
    # may run past the slice on stale codes, valid because codes start at
    # 0; its entries there are never read.
    draws = np.empty(min(_SLICE, m))
    selfish_buffer = np.empty(draws.size, bool)
    rows = -(-draws.size // _CHUNK)
    codes = np.zeros((rows, _CHUNK), np.uint8)
    path = np.empty((rows, _CHUNK), np.int32)
    z = k = 0
    prev_selfish = False
    for done in range(0, m, _SLICE):
        # One uniform draw per key block.
        u = draws[: min(_SLICE, m - done)]
        rng.random(out=u)
        selfish = np.less(u, alpha, out=selfish_buffer[: u.size])
        # The draw code (u >= alpha) + (u >= match_win), built in place.
        code = codes.reshape(-1)[: u.size]
        np.greater_equal(u, match_win, out=code.view(bool))
        code += ~selfish
        # Adjacent pairs: selfish then honest (z), honest then selfish (k).
        before = np.concatenate(([prev_selfish], selfish[:-1]))
        z += int(np.count_nonzero(before & ~selfish))
        k += int(np.count_nonzero(selfish & ~before))
        prev_selfish = selfish[-1]
        used = -(-u.size // _CHUNK)
        _scan(successors, codes[:used], s, path[:used])
        entries = path.reshape(-1)[: u.size]
        s = successors[entries[-1]]
        counts += np.bincount(entries, minlength=counts.size)
        # Batch b holds key blocks b * size to (b + 1) * size - 1.
        lo, hi = done // size, (done + u.size - 1) // size + 1
        edges = np.maximum(np.arange(lo, hi) * size - done, 0)
        batch_selfish[lo:hi] += np.add.reduceat(np.take(sel_value, entries, out=u), edges)
        batch_total[lo:hi] += np.add.reduceat(np.take(all_value, entries, out=u), edges)

    r_a, r_h, t_a, t_h, orphaned = np.sum(counts[:, None] * deltas, axis=0).tolist()
    sel_total = kw * r_a + fw * t_a
    all_total = sel_total + kw * r_h + fw * t_h
    revenue = sel_total / all_total if all_total > 0 else 0.0
    return SimReport(
        relative_revenue=revenue,
        std_error=_batch_std_error(batch_selfish, batch_total, revenue),
        selfish_key_rewards=int(r_a),
        honest_key_rewards=int(r_h),
        selfish_fees=t_a,
        honest_fees=t_h,
        orphaned_fee_units=orphaned,
        pair_counts=PairCounts(z=z, k=k, m=m),
        seed=config.seed,
        boundary_visits=int(np.sum(counts * visits)),
    )


def _batch_std_error(selfish: np.ndarray, total: np.ndarray, revenue: float) -> float:
    """Batch-means standard error of the revenue ratio from per-batch
    (selfish, total) sums; a single batch gives 0."""
    tot = float(np.sum(total))
    if selfish.size < 2 or tot <= 0:
        return 0.0
    residual = selfish - revenue * total
    return math.sqrt(float(np.sum(residual * residual))) / tot
