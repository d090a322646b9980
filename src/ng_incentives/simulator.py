"""Monte Carlo mining simulator: the independent oracle for the closed-form
revenue formulas and the decision-process solver.

Key blocks arrive as a Poisson process; each interval carries a continuous
fee mass proportional to its length, in fee units (one unit = the fees of a
mean-length interval), split between the issuing leader (fraction r) and
the next key-block miner (1 - r).  Attacks orphan part of the fee mass of
the intervals they touch.  These interval strategies reduce every interval
to its category (who mined the key blocks at its two ends) and its fee
mass, so a run keeps counts and fee sums per batch and category, whatever
its length.  Each batch's counts follow from four sufficient statistics of
its key blocks' ownership bits, drawn from their exact law
(concentration.segment_stats), and a cell's fee sum, the sum of its n
intervals' Exp(1) lengths, is one Gamma(n, 1) variate, its exact law; so a
run draws a few variates per batch and none per key block.  The rollout of
a solved selfish-mining policy instead draws one 64-bit uniform per key
block and counts one fee unit per key-block interval, as the decision
process does.

Both simulators report as std_error the batch-means standard error of the
revenue ratio over _BATCHES batches of consecutive intervals or key blocks;
a batch of many intervals carries the covariance of adjacent intervals,
which share a key block, into the estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

from .concentration import segment_stats
from .model import (
    MAX_KEYBLOCKS, ProtocolParams, RewardWeights, require, require_fractions, require_seed,
)

if TYPE_CHECKING:
    from .mdp import SolveResult


@dataclass(frozen=True)
class Honest:
    """Protocol-following mining."""


@dataclass(frozen=True)
class Inclusion:
    """Withhold a fraction rho of own microblocks each interval."""

    rho: float

    def __post_init__(self) -> None:
        require_fractions(rho=self.rho)


@dataclass(frozen=True)
class Extension:
    """Reject a fraction rho of the previous leader's microblocks."""

    rho: float

    def __post_init__(self) -> None:
        require_fractions(rho=self.rho)


@dataclass(frozen=True)
class MdpPolicy:
    """Follow a solved selfish-mining policy."""

    result: SolveResult


Strategy = Union[Honest, Inclusion, Extension, MdpPolicy]


@dataclass(frozen=True)
class SimConfig:
    params: ProtocolParams
    strategy: Strategy
    horizon_keyblocks: int
    seed: int
    # Weights used to scalarize the revenue ratio.  None selects fee-only
    # accounting for honest/inclusion/extension (matching the closed-form
    # limits, which track transaction fees) and the policy's own weights for
    # MdpPolicy.
    weights: RewardWeights | None = None

    def __post_init__(self) -> None:
        m = self.horizon_keyblocks
        require(
            2 <= m <= MAX_KEYBLOCKS,
            f"horizon_keyblocks must be between 2 and {MAX_KEYBLOCKS}, got {m}",
        )
        require_seed(self.seed)

    def effective_weights(self) -> RewardWeights:
        if self.weights is not None:
            return self.weights
        if isinstance(self.strategy, MdpPolicy):
            return self.strategy.result.weights
        return RewardWeights.from_regime("fee")


@dataclass(frozen=True)
class SimReport:
    relative_revenue: float
    std_error: float
    selfish_key_rewards: int
    honest_key_rewards: int
    selfish_fees: float
    honest_fees: float
    orphaned_fee_units: float
    pairs_z: int  # adjacent key blocks selfish then honest
    pairs_k: int  # adjacent key blocks honest then selfish
    keyblocks: int
    seed: int
    boundary_visits: int = 0


def run(config: SimConfig) -> SimReport:
    """Simulate horizon_keyblocks key blocks; deterministic per seed."""
    if isinstance(config.strategy, MdpPolicy):
        return _run_policy(config)
    return _run_interval_strategy(config)


# Interval categories, 2 * leader + next with 1 for a selfish block.
_HH, _HS, _SH, _SS = range(4)
_SLICE = 1 << 15  # draws per generator call in the policy rollout
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
    error.

    An interval's fee mass is its Exp(1) length in units of the mean
    interval.  The report reads fee masses only through the sums sum(f) of
    its cells, and the sum of n independent Exp(1) lengths is exactly
    Gamma(n, 1) (Devroye, Non-Uniform Random Variate Generation, 1986,
    ch. IX), so each cell's sum is one Gamma(n_c, 1) draw, Marsaglia-Tsang
    in numpy; an empty cell's is exactly 0.

    Batch b holds intervals f_b to f_b + len_b - 1, so it reads blocks f_b
    to f_b + len_b: its carry c_b, block f_b, is the previous batch's last
    block (c_0 = 0: block 0, the starting ancestor, is honest), and its
    len_b new blocks are one segment.  From the segment's ones s, runs of
    ones, first bit and last bit, the batch's intervals led by a selfish
    block, ended by one, and both led and ended by one are

        led = c + s - last,  ended = s,  both = (c and first) + s - runs,

    a run of u ones holding u - 1 adjacent selfish pairs.  These give
    n_SS = both, n_SH = led - n_SS, n_HS = ended - n_SS and n_HH as the
    rest.  The seeded stream is one concentration.segment_stats call over
    the batches in order (all their binomials, then their run counts, then
    their end-gap counts, then their coins; alpha at full double
    precision), then one Gamma(n_c, 1) per cell in cell order.  A run holds a few numbers
    per batch, and there are fewer than 2 * _BATCHES batches.
    """
    p = config.params
    m = config.horizon_keyblocks
    rng = np.random.default_rng(config.seed)

    size = max(1, m // _BATCHES)
    firsts = np.arange(0, m - 1, size)  # each batch's first interval
    length = np.diff(firsts, append=m - 1)
    ones, runs, first, last = segment_stats(rng, p.alpha, length)
    carry = np.concatenate(([False], last[:-1]))
    # Per batch, intervals led by a selfish block, ended by one, and both.
    led = carry + ones - last
    ended = ones
    both = (carry & first) + ones - runs
    # One row per batch, one column per category (_HH, _HS, _SH, _SS).
    cell_count = np.stack([length - led - ended + both, ended - both, led - both, both], axis=1)
    cell_fees = rng.standard_gamma(cell_count.astype(float))
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
        honest_key_rewards=m - 1 - selfish_blocks,
        selfish_fees=selfish_fees,
        honest_fees=honest_fees,
        orphaned_fee_units=orphaned,
        pairs_z=int(count[_SH]),
        pairs_k=int(count[_HS]),
        keyblocks=m,
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
_CHUNK = 128  # draw codes per row of the rollout's parallel scan


def _show(state) -> str:
    from .mdp import Fork, LastMicro

    l_a, l_h, fork, last = state
    return f"({l_a}, {l_h}, {Fork(fork).name}, {LastMicro(last).name})"


def _compile(result: SolveResult) -> tuple:
    """Tabulate a policy's rollout: entry _CODES * i + code stands for row
    i of result.states, taking action ACTION_ORDER[result.policy[i]],
    followed by a key block with that draw code.

    Every action but REVERT mines one key block.  ADOPT settles the l_h
    public blocks on the honest miners, OVERRIDE the l_h + 1 private blocks
    it publishes on the selfish miner, and a race (MATCH, MATCH_H, or WAIT
    in a tie) the l_h matched selfish blocks when an honest miner finds the
    key block on the selfish branch.  The last settled block becomes the
    ancestor with microblocks H_IN / S_P, or H_EX / S_H after ADOPT_E,
    OVERRIDE_H and a race on a TIE_PRIME branch; the chains past it keep the
    unsettled private blocks and the new key block.  A key block that
    settles nothing extends its miner's chain; a selfish one keeps a race's
    tie.  REVERT publishes a TIE_PRIME branch's hidden microblocks (to TIE),
    else the ancestor's while no honest block contests it (S_H at l_h = 0,
    to S_P), else re-accepts the excluded ones while no selfish block
    commits to the exclusion (H_EX at l_a = 0, to H_IN).

    A stretch of n key blocks settling on one owner pays it n key rewards
    and the n - 1 interior fee units; the old ancestor's leading unit goes,
    as (t_a, t_h, orphaned), by its microblocks and the owner:

        ancestor  honest owner   selfish owner
        H_IN      (0, 1, 0)      (1 - r, r, 0)
        H_EX      (0, 1, 0)      (0, 0, 1)
        S_P       (r, 1 - r, 0)  (1, 0, 0)
        S_H       (0, 0, 1)      (1, 0, 0)

    Returns per entry the entry base _CODES * j of the next state (int32),
    the ledger delta (r_a, r_h, t_a, t_h, orphaned) and the truncation
    boundary visits, and the start state's entry base.  Reverts fold into
    the drawing step after them, which counts every state they pass; each
    clears TIE_PRIME, S_H or H_EX, so two folds reach a drawing state.
    Raises ValueError, naming the state, at the first row of result.states
    whose chain cannot be followed.
    """
    from .mdp import ACTION_ORDER, Fork, LastMicro, MdpAction

    states, kind = result.states, result.policy
    L, r = result.truncation, result.params.split_ratio
    own = np.arange(len(states))

    # Policy index over a box that holds every state and the start state;
    # -1 marks a state the policy does not cover.
    lo, hi = states.min(0, initial=0), states.max(0, initial=0)
    slot, key = np.full(hi - lo + 1, -1), tuple((states - lo).T)
    slot[key] = own
    if kind.shape != own.shape or (slot[key] != own).any():
        raise ValueError("a policy must take one action in each of its states, each state once")

    def locate(targets: np.ndarray) -> np.ndarray:
        inside = np.all((targets >= lo) & (targets <= hi), axis=-1)
        found = np.full(inside.shape, -1)
        found[inside] = slot[tuple((targets[inside] - lo).T)]
        return found

    def chose(*options: MdpAction) -> np.ndarray:
        return np.isin(kind, [ACTION_ORDER.index(a) for a in options])

    l_a, l_h, fork, last = states.T
    reverts = chose(MdpAction.REVERT)
    reverted = states.copy()
    tie_prime = fork == Fork.TIE_PRIME
    reverted[tie_prime, 2] = Fork.TIE
    reverted[~tie_prime & (last == LastMicro.S_H) & (l_h == 0), 3] = LastMicro.S_P
    reverted[~tie_prime & (last == LastMicro.H_EX) & (l_a == 0), 3] = LastMicro.H_IN
    stuck = reverts & np.all(reverted == states, axis=1)
    revert_to = locate(reverted)
    lost = reverts & ~stuck & (revert_to < 0)
    fold = np.where(reverts & ~stuck & ~lost, revert_to, own)
    drawing = fold[fold]

    # One key block with each draw code from every state, as (state, code).
    code = np.arange(_CODES)
    selfish = code == _SELFISH
    adopt = chose(MdpAction.ADOPT, MdpAction.ADOPT_E)
    override = chose(MdpAction.OVERRIDE, MdpAction.OVERRIDE_H)
    races = [chose(MdpAction.MATCH), chose(MdpAction.MATCH_H), chose(MdpAction.WAIT)]
    tie = np.select(races, [Fork.TIE, Fork.TIE_PRIME, fork], Fork.NO_TIE)
    won = (tie != Fork.NO_TIE)[:, None] & (code == _MATCH_WIN)
    settles = (adopt | override)[:, None] | won
    to_selfish = override[:, None] | won
    n = (l_h + override)[:, None]  # length of the settled stretch
    withheld = chose(MdpAction.ADOPT_E, MdpAction.OVERRIDE_H) | (tie == Fork.TIE_PRIME)
    landing = np.where(
        adopt, np.where(withheld, LastMicro.H_EX, LastMicro.H_IN),
        np.where(withheld, LastMicro.S_H, LastMicro.S_P),
    )
    following = np.empty((len(states), _CODES, 4), np.int32)
    following[..., 0] = np.where(settles, np.where(to_selfish, l_a[:, None] - n, 0), l_a[:, None])
    following[..., 0] += selfish
    following[..., 1] = np.where(settles, 0, l_h[:, None]) + ~selfish
    following[..., 2] = np.where(selfish, tie[:, None], Fork.NO_TIE)
    following[..., 3] = np.where(settles, landing[:, None], last[:, None])
    negative = (settles & (n < 1)) | (following[..., 0] < 0)
    target = locate(following)

    # The leading unit by ancestor microblocks, then by selfish owner.
    lead = np.array([
        [(0.0, 1.0, 0.0), (1.0 - r, r, 0.0)],
        [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0)],
        [(r, 1.0 - r, 0.0), (1.0, 0.0, 0.0)],
        [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)],
    ])
    delta = np.empty((len(states), _CODES, 5))
    delta[..., _T_A:] = lead[last[:, None], to_selfish.astype(np.int64)]
    t_a, t_h = delta[..., _T_A], delta[..., _T_H]
    delta[..., _T_A] = np.where(to_selfish, t_a + (n - 1), t_a)
    delta[..., _T_H] = np.where(to_selfish, t_h, t_h + (n - 1))
    delta[..., _R_A] = np.where(to_selfish, n, 0.0)
    delta[..., _R_H] = np.where(to_selfish, 0.0, n)
    delta[~settles] = 0.0

    mines = (kind >= 0) & (kind < len(ACTION_ORDER)) & ~reverts
    failed = (~mines | negative.any(axis=1) | (target < 0).any(axis=1))[drawing]
    if failed.any():
        j = drawing[np.argmax(failed)]
        state, k = _show(states[j].tolist()), int(kind[j])
        if stuck[j]:
            raise ValueError(f"revert has no target in state {state}")
        # Two folds reach a drawing state, so any other revert here is lost.
        if not (mines[j] or reverts[j]):
            raise ValueError(f"unknown action index {k} in state {state}")
        action, successor = ACTION_ORDER[k].value, reverted[j]
        if not lost[j]:
            if negative[j].any():
                raise ValueError(f"{action} gives a negative chain length in state {state}")
            successor = following[j, np.argmax(target[j] < 0)]
        raise ValueError(
            f"{action} in state {state} leads to {_show(successor.tolist())},"
            f" a state the policy (truncation L={L}) does not cover"
        )
    start = (0, 0, Fork.NO_TIE, LastMicro.H_IN)
    (begin,) = locate(np.array([start]))
    if begin < 0:
        raise ValueError(f"start state {_show(start)} missing from the policy")
    passed = 1 + (fold != own) + (drawing != fold)  # states a key block passes
    boundary = (l_a == L) | (l_h == L)
    visits = np.repeat(np.where(boundary[drawing], passed, 0), _CODES)
    successors = (_CODES * target[drawing]).astype(np.int32).reshape(-1)
    return successors, delta[drawing].reshape(-1, 5), visits, _CODES * int(begin)


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

    Tabulates the chain semantics of the policy's actions for every state
    once (_compile), then scans the seeded draw stream through the resulting
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
    successors, deltas, visits, s = _compile(result)
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
        pairs_z=z,
        pairs_k=k,
        keyblocks=m,
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
