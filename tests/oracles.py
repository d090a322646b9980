"""Reference values for checking the solver and the simulator: a
per-state view of the transition table's arrays, policies picked state by
state, the stationary distribution and exact long-run revenue of a fixed
policy and the number of closed classes of its chain, a damped power
iteration over a whole chain, the optimal gain of a reward by plain
relative value iteration, Eyal-Sirer SM1 selfish mining
("Majority is not Enough", arXiv:1311.0243) as a fixed MDP policy with its
closed-form relative revenue, the adjacent pairs of an ownership sequence
and the exact mean and variance of the pair count Z, a per-bit stand-in for
concentration.segment_stats, and the interval simulation computed with one
array entry per interval, both from that stand-in's bits and as its plain
model with one Exp(1) fee mass per interval."""
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.linalg import spsolve

from ng_incentives.mdp import ACTION_ORDER, Fork, LastMicro, MdpAction, TransitionTable
from ng_incentives.model import ParameterError
from ng_incentives.simulator import Extension, Inclusion, SimConfig, SimReport


class MdpState(NamedTuple):
    l_a: int
    l_h: int
    fork: Fork
    last_micro: LastMicro


class RewardTuple(NamedTuple):
    r_h: float  # honest key-block rewards
    t_h: float  # honest fee units
    r_a: float  # selfish key-block rewards
    t_a: float  # selfish fee units


class Outcome(NamedTuple):
    next_state: MdpState
    probability: float
    reward: RewardTuple


class TableView(TransitionTable):
    """A transition table read one state at a time: the rows of states as
    MdpState tuples, the available actions of a state, the outcomes of a
    (state, action) pair in rule order, and every available pair with its
    outcomes.  The skeleton stores a pair's outcomes as one run of the
    transition matrix's row, in column order; probability kinds ascend in
    every rule, so sorting the run by kind gives the rule order."""

    @cached_property
    def state_tuples(self) -> list[MdpState]:
        return [
            MdpState(l_a, l_h, Fork(fork), LastMicro(last))
            for l_a, l_h, fork, last in self.states.tolist()
        ]

    @cached_property
    def state_index(self) -> dict[MdpState, int]:
        return {s: i for i, s in enumerate(self.state_tuples)}

    def actions(self, state: MdpState) -> list[MdpAction]:
        n, i = len(self.states), self.state_index[state]
        return [a for k, a in enumerate(ACTION_ORDER) if self.available[k * n + i]]

    def outcomes(self, state: MdpState, action: MdpAction) -> list[Outcome]:
        sk = self._skeleton
        flat = ACTION_ORDER.index(action) * len(self.states) + self.state_index[state]
        lo, hi = sk.indptr[flat], sk.indptr[flat + 1]
        if lo == hi:
            raise KeyError((state, action))
        run = lo + np.argsort(sk.prob_kind[lo:hi])
        return [
            Outcome(self.state_tuples[col], probability, RewardTuple(*reward))
            for col, probability, reward in zip(
                sk.indices[run].tolist(),
                self.probability[run].tolist(),
                self.reward_values[sk.reward_id[run]].tolist(),
            )
        ]

    def items(self) -> Iterator[tuple[MdpState, MdpAction, list[Outcome]]]:
        for flat in np.flatnonzero(self.available).tolist():
            k, i = divmod(flat, len(self.states))
            state, action = self.state_tuples[i], ACTION_ORDER[k]
            yield state, action, self.outcomes(state, action)


def build_transitions(params, truncation: int = 20) -> TableView:
    return TableView(params, truncation)


def policy_of(table: TableView, choose) -> np.ndarray:
    """The policy, as SolveResult.policy holds it, that takes the action
    choose(state) in every state of the table, in table.states order."""
    return np.array([ACTION_ORDER.index(choose(s)) for s in table.state_tuples])


def _policy_rows(table, policy: np.ndarray) -> np.ndarray:
    return policy * len(table.states) + np.arange(len(table.states))


def _policy_chain(table, policy: np.ndarray):
    """The states a fixed policy's chain reaches from the start state
    table.states[0], and its transition matrix among them."""
    chain = table.transition[_policy_rows(table, policy)]
    # gamma = 0 or 1 stores zero-probability outcomes, which are not edges.
    chain.eliminate_zeros()
    reached = breadth_first_order(chain, 0, return_predecessors=False)
    return reached, chain[reached][:, reached]


def stationary_distribution(table, policy: np.ndarray) -> np.ndarray:
    """Stationary distribution of a fixed policy, one ACTION_ORDER index
    per state in table.states order, over the states it reaches from the
    start state table.states[0], by a direct sparse solve; 0 on the other
    states."""
    reached, chain = _policy_chain(table, policy)
    # pi (P - I) = 0 with the first balance equation replaced by sum(pi) = 1.
    system = (chain.T - sparse.identity(len(reached))).tolil()
    system[0, :] = 1.0
    rhs = np.zeros(len(reached))
    rhs[0] = 1.0
    pi = np.zeros(len(table.states))
    pi[reached] = spsolve(system.tocsc(), rhs)
    return pi


def policy_value(table, weights, policy: np.ndarray) -> float:
    """Exact long-run revenue ratio of a fixed policy, one ACTION_ORDER
    index per state in table.states order, from its stationary
    distribution."""
    pi = stationary_distribution(table, policy)
    rows = _policy_rows(table, policy)
    r_self, r_total = (r[rows] for r in table.expected_rewards(weights))
    return float(pi @ r_self) / float(pi @ r_total)


def closed_classes(table, policy: np.ndarray) -> int:
    """Number of closed communicating classes of a fixed policy's chain,
    one ACTION_ORDER index per state in table.states order, among the
    states it reaches from the start state table.states[0].  A unichain
    policy has one."""
    _, chain = _policy_chain(table, policy)
    chain = chain.tocoo()
    count, label = connected_components(chain, directed=True, connection="strong")
    leaving = label[chain.row] != label[chain.col]
    return count - len(np.unique(label[chain.row[leaving]]))


def damped_stationary(chain, x: np.ndarray, damping: float, tolerance: float):
    """The damped power iteration x <- x + damping * (P^T x - x) over every
    state of a CSR chain, until one step's L1 change falls below tolerance;
    returns the last iterate and the number of steps."""
    transposed = chain.T.tocsr()
    for iteration in range(1, 1_000_001):
        step = damping * (transposed @ x - x)
        x = x + step
        if np.abs(step).sum() < tolerance:
            return x, iteration
    raise RuntimeError("reference power iteration did not converge")


def optimal_gain(table, reward: np.ndarray) -> float:
    """Optimal long-run average of a reward given on every flat row, by
    relative value iteration on the lazy chain (P + I) / 2, which keeps the
    optimal gain and has no periodic policy.  Rows with an empty transition
    row are unavailable.  The gain lies within the last sweep's span of the
    estimate, and the iteration stops when that span is below 1e-11."""
    n = len(table.states)
    reward = np.where(np.diff(table.transition.indptr) > 0, reward, -np.inf)
    v = np.zeros(n)
    for _ in range(1_000_000):
        best = (reward + table.transition @ v).reshape(-1, n).max(axis=0)
        diff = (best - v) / 2.0
        v = v + diff
        v -= v[0]
        if diff.max() - diff.min() < 1e-11:
            return float(diff.max() + diff.min())
    raise RuntimeError("reference value iteration did not converge")


def sm1_action(table, state: MdpState) -> MdpAction:
    """Eyal-Sirer SM1 as an MDP action; where the truncation boundary
    removes that action, override if possible, else adopt."""
    l_a, l_h, fork, _ = state
    if l_h > l_a:
        action = MdpAction.ADOPT
    elif l_a == l_h + 1 >= 2:
        action = MdpAction.OVERRIDE
    elif l_a == l_h >= 1 and fork == Fork.NO_TIE:
        action = MdpAction.MATCH
    else:
        action = MdpAction.WAIT
    available = table.actions(state)
    if action in available:
        return action
    return MdpAction.OVERRIDE if MdpAction.OVERRIDE in available else MdpAction.ADOPT


def sm1_revenue(alpha: float, gamma: float) -> float:
    """SM1's long-run share of key-block rewards."""
    return (
        alpha * (1 - alpha) ** 2 * (4 * alpha + gamma * (1 - 2 * alpha)) - alpha**3
    ) / (1 - alpha * (1 + (2 - alpha) * alpha))


@dataclass(frozen=True)
class PairCounts:
    z: int  # adjacent (1, 0) pairs
    k: int  # adjacent (0, 1) pairs
    m: int  # sequence length


def count_pairs(bits: Sequence[int]) -> PairCounts:
    """Count adjacent (1,0) and (0,1) pairs over the m-1 adjacent positions."""
    if len(bits) < 2:
        raise ParameterError("ownership sequence needs at least 2 elements")
    x = np.asarray(bits, dtype=bool)
    z = int(np.count_nonzero(x[:-1] & ~x[1:]))
    k = int(np.count_nonzero(~x[:-1] & x[1:]))
    return PairCounts(z=z, k=k, m=len(bits))


def pair_moments(alpha: float, m: int) -> tuple[float, float]:
    """Exact mean and variance of Z, the adjacent (1, 0) pairs of m
    ownership bits whose first bit is 0 and whose others are independent
    Bernoulli(alpha).

    Z is the sum of the indicators I_i = x_{i-1} (1 - x_i), i = 1..m-1.
    I_1 = 0 since x_0 = 0, and each of the other n = m - 2 is
    Bernoulli(p), p = alpha * (1 - alpha).  Adjacent I_i and I_{i+1} are
    never both 1 (x_i would have to be 0 and 1), so their covariance is
    0 - p^2; indicators further apart read disjoint bits and are
    independent.  Hence E[Z] = n p and Var Z = n p (1 - p) - 2 (n - 1) p^2
    for n >= 1, and Z = 0 at m = 2.  Shares no code with either kernel."""
    n = m - 2
    p = alpha * (1.0 - alpha)
    if n < 1:
        return 0.0, 0.0
    return n * p, n * p * (1.0 - p) - 2.0 * (n - 1) * p * p


def ownership(rng, alpha: float, n: int) -> np.ndarray:
    """The next n ownership bits of rng, bit i being 1 when the i-th
    uniform double is below alpha.  One draw per bit, so n bits drawn in
    any number of calls are the same bits."""
    return rng.random(n) < alpha


def per_bit_segment_stats(rng, alpha: float, n):
    """concentration.segment_stats counted bit by bit: the ones, the runs
    of ones, the first bit and the last bit of each segment of n (any
    shape, segments in C order) cut from one ownership() draw of sum(n)
    bits."""
    n = np.asarray(n)
    bits = ownership(rng, alpha, int(n.sum()))
    stats = np.zeros((4, n.size), np.int64)
    for i, seg in enumerate(np.split(bits, np.cumsum(n.ravel())[:-1])):
        if seg.size:
            runs = int(seg[0]) + int(np.count_nonzero(~seg[:-1] & seg[1:]))
            stats[:, i] = (np.count_nonzero(seg), runs, seg[0], seg[-1])
    ones, runs, first, last = stats.reshape((4, *n.shape))
    return ones, runs, first.astype(bool), last.astype(bool)


def interval_reference(config: SimConfig) -> SimReport:
    """The interval simulation with full-length per-interval arrays, from
    the seeded stream of a simulator whose segment_stats is
    per_bit_segment_stats: block 0 honest and blocks 1 to m - 1 one
    ownership() draw; then one Gamma(n, 1) fee sum per (batch, category)
    cell in cell order, the law of the sum of the cell's n Exp(1) interval
    lengths.  Every report field is linear in a cell's fee sum, so the
    whole sum sits on the cell's first interval and its other intervals
    carry none."""
    m = config.horizon_keyblocks
    rng = np.random.default_rng(config.seed)
    selfish = np.concatenate(([False], ownership(rng, config.params.alpha, m - 1)))
    # Batches of max(1, m // 512) consecutive intervals, four cells each.
    batch = np.arange(m - 1) // max(1, m // 512)
    cell = 4 * batch + 2 * selfish[:-1] + selfish[1:]
    count = np.bincount(cell, minlength=4 * (batch[-1] + 1))
    fee_sum = rng.standard_gamma(count.astype(float))
    cells, first = np.unique(cell, return_index=True)
    fee_mass = np.zeros(m - 1)
    fee_mass[first] = fee_sum[cells]
    return _interval_report(config, selfish, fee_mass)


def interval_exponential_reference(config: SimConfig) -> SimReport:
    """The interval simulation as its plain model, one interval at a time:
    all m ownership uniforms, then m - 1 Exp(1) fee masses, one per
    interval.  The simulator draws each batch's ownership statistics and
    each cell's fee sum from their exact laws, so this shares its law but
    not its seeded stream."""
    m = config.horizon_keyblocks
    rng = np.random.default_rng(config.seed)
    selfish = rng.random(m) < config.params.alpha
    selfish[0] = False
    return _interval_report(config, selfish, rng.exponential(1.0, m - 1))


def _interval_report(
    config: SimConfig, selfish: np.ndarray, fee_mass: np.ndarray
) -> SimReport:
    """The report of an interval run from the ownership of its m key blocks
    and the fee mass of each of its m - 1 intervals."""
    p = config.params
    m = config.horizon_keyblocks
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
    # The key reward of block i+1 goes to interval i.
    sel_stream = weights.fee_weight * selfish_fees + weights.key_weight * nxt
    tot_stream = weights.fee_weight * (selfish_fees + honest_fees) + weights.key_weight
    sel_sum, tot_sum = float(sel_stream.sum()), float(tot_stream.sum())
    revenue = sel_sum / tot_sum if tot_sum > 0 else 0.0
    # Batch means over batches of max(1, m // 512) consecutive intervals.
    starts = np.arange(0, m - 1, max(1, m // 512))
    residual = np.add.reduceat(sel_stream, starts) - revenue * np.add.reduceat(
        tot_stream, starts
    )
    std_error = (
        math.sqrt(float(np.sum(residual * residual))) / tot_sum
        if tot_sum > 0 and starts.size > 1
        else 0.0
    )

    pairs = count_pairs(selfish)
    return SimReport(
        relative_revenue=revenue,
        std_error=std_error,
        # Interval i pays block i + 1; block 0, the starting ancestor, is unpaid.
        selfish_key_rewards=int(np.count_nonzero(nxt)),
        honest_key_rewards=int(np.count_nonzero(~nxt)),
        selfish_fees=float(selfish_fees.sum()),
        honest_fees=float(honest_fees.sum()),
        orphaned_fee_units=orphaned,
        pairs_z=pairs.z,
        pairs_k=pairs.k,
        keyblocks=pairs.m,
        seed=config.seed,
    )
