"""Selfish-mining decision process over key blocks and fee-splitting
microblocks, and its average-reward-ratio solver.

The chain game is a finite MDP.  A state is (l_a, l_h, fork, last_micro):
private selfish chain length and public chain length past the common
ancestor key block, whether a published matching branch exists (and whether
its trailing microblocks are hidden), and who owns the ancestor plus what
the selfish miner did with the ancestor's microblocks.

Fee accounting uses one fee unit per key-block interval.  A transition that
advances the ancestor by n key blocks finalizes the n-1 interior intervals
to the owner of that stretch, plus the old ancestor's leading interval,
which is assigned by who mined the first block after the old ancestor:

  ancestor H_in: next honest -> honest gets the unit;
                 next selfish -> split r to honest, 1-r to selfish.
  ancestor H_ex: next honest -> honest gets the unit;
                 next selfish -> the unit is orphaned (the selfish miner
                 skipped those microblocks, and full microblocks leave no
                 spare capacity to re-earn the fees).
  ancestor S_p:  next selfish -> selfish gets the unit;
                 next honest -> split r to selfish, 1-r to honest.
  ancestor S_h:  next selfish -> selfish gets the unit;
                 next honest -> orphaned (the hidden microblocks never
                 reached the public chain).

The MDP has one array representation.  What depends only on the truncation
L -- states, available actions, outcome targets, the transition sparsity
pattern and the shape of every reward -- is a read-only skeleton, built
once per L and cached.  Each outcome has a probability kind (alpha, 1-alpha,
gamma(1-alpha), (1-gamma)(1-alpha) or 1) and a reward id whose fields
(r_h, t_h, r_a, t_a) -- honest key rewards and fee units, then selfish ones
-- are each c + a*r + b*(1-r); a TransitionTable fills both in for one
parameter point with a few vector operations.

scipy is imported only in TransitionTable.__init__, where the first CSR
transition matrix is built, so analyses that never build an MDP table
(closed forms, interval simulator, pair Monte Carlo) start without it.

The optimal relative revenue solves a ratio objective by Dinkelbach
iteration: relative value iteration maximizes the long-run average of
(selfish reward - w * total reward), and the exact ratio of the policy
greedy in its last full sweep, from the stationary distribution of its
chain, becomes the next w.  A solve may start from a neighbouring
SolveResult at the same truncation, as a grid scan does: its policy's exact
value on the new table is the first w.  The value iteration is modified
policy iteration (Puterman and Shin, Management Science 1978): each full
Bellman sweep that fails the span test is followed by a fixed number of
sweeps of the greedy policy's own chain, which has about a quarter of the
nonzeros.  Only a full sweep ends it, and its span test bounds the optimal
gain whatever values it starts from, so the policy sweeps save full sweeps
without loosening the gain's error bound.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import lru_cache
from itertools import product

import numpy as np

from .model import ProtocolParams, RewardWeights, SolverError, require


class Fork(IntEnum):
    NO_TIE = 0
    TIE = 1
    TIE_PRIME = 2


class LastMicro(IntEnum):
    H_IN = 0  # honest ancestor, its microblocks accepted by the selfish miner
    H_EX = 1  # honest ancestor, its microblocks rejected
    S_P = 2  # selfish ancestor, its microblocks published
    S_H = 3  # selfish ancestor, its microblocks hidden


class MdpAction(Enum):
    # Declared in the fixed order used for greedy tie-breaking: honest-looking
    # actions first.
    ADOPT = "adopt"
    ADOPT_E = "adoptE"
    OVERRIDE = "override"
    OVERRIDE_H = "overrideH"
    MATCH = "match"
    MATCH_H = "matchH"
    WAIT = "wait"
    REVERT = "revert"


ACTION_ORDER = tuple(MdpAction)


# Probability kinds, in the order TransitionTable fills them in.
_P_ALPHA, _P_BETA, _P_MATCH, _P_BREAK, _P_ONE = range(5)

# Reward kinds: nothing finalizes, or an adopt / override / match success
# finalizes a stretch.  A reward is fixed by its kind and the source state's
# l_h and last_micro.
_NO_REWARD, _ADOPT, _OVERRIDE, _MATCH = range(4)

# Reward coefficients (c, a, b) of the value c + a*r + b*(1-r).
_NONE, _UNIT, _R, _REST = (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)

# The old ancestor's leading fee unit as (honest, selfish) shares, when the
# first block after the ancestor is honest and when it is selfish.
_LEADING = {
    LastMicro.H_IN: ((_UNIT, _NONE), (_R, _REST)),
    LastMicro.H_EX: ((_UNIT, _NONE), (_NONE, _NONE)),
    LastMicro.S_P: ((_REST, _R), (_NONE, _UNIT)),
    LastMicro.S_H: ((_NONE, _NONE), (_NONE, _UNIT)),
}


def _reward_coefficients(kind: int, l_h: int, last: LastMicro) -> tuple:
    """(c, a, b) for each field (r_h, t_h, r_a, t_a) of one reward.

    A finalized stretch of n key blocks pays its owner n key rewards and the
    n - 1 interior fee units, plus the leading unit's share.
    """
    if kind == _NO_REWARD:
        return (_NONE,) * 4
    lead_h, lead_a = _LEADING[last][kind != _ADOPT]
    if kind == _ADOPT:
        return (l_h, 0, 0), (lead_h[0] + l_h - 1, *lead_h[1:]), _NONE, lead_a
    n = l_h + 1 if kind == _OVERRIDE else l_h
    return _NONE, lead_h, (n, 0, 0), (lead_a[0] + n - 1, *lead_a[1:])


def enumerate_states(truncation: int) -> np.ndarray:
    """All states with chain lengths capped at the truncation bound, one
    row (l_a, l_h, fork, last_micro) each.

    A tie (matched branch) requires l_a >= l_h >= 1.  Rows are unique and
    sorted by (l_a, l_h, last_micro, fork), so row 0 is the start state
    (0, 0, NO_TIE, H_IN), from which the solver evaluates its policies.
    """
    size = truncation + 1
    l_a, l_h, last, fork = np.indices((size, size, len(LastMicro), len(Fork))).reshape(4, -1)
    valid = (fork == Fork.NO_TIE) | ((1 <= l_h) & (l_h <= l_a))
    return np.stack((l_a, l_h, fork, last), axis=1)[valid]


def _rules(states: np.ndarray, truncation: int) -> list:
    """The MDP's rules as one table over the states, one per row of states
    as (l_a, l_h, fork, last_micro).

    Each rule is an action, the mask of states where it is available, and
    its outcomes as (next state's fields, each an array over the states or
    a scalar; probability kind; reward kind).  An available (state, action)
    pair matches exactly one rule.
    """
    l_a, l_h, fork, last = states.T
    no_tie, tie_prime = fork == Fork.NO_TIE, fork == Fork.TIE_PRIME
    # wait / match / matchH all mine one more key block, so they are
    # removed at the truncation boundary.
    grows = (l_a < truncation) & (l_h < truncation)
    matchable = grows & no_tie & (1 <= l_h) & (l_h <= l_a)

    def settle(ahead, landing, kind):
        # adopt (ahead = 0) and override finalize a stretch; the next key
        # block extends the ahead private blocks left or starts a public chain.
        return [
            ((ahead + 1, 0, Fork.NO_TIE, landing), _P_ALPHA, kind),
            ((ahead, 1, Fork.NO_TIE, landing), _P_BETA, kind),
        ]

    # Two equal-length public branches race for the next key block: the
    # selfish miner extends privately (tie persists), some honest power
    # mines the selfish branch (the match succeeds and the selfish branch
    # finalizes), the rest extend the honest branch (tie broken).  A
    # tiePrime branch hides its trailing microblocks, so success is S_h.
    def race(tie_kind):
        landing = np.where(tie_kind == Fork.TIE, LastMicro.S_P, LastMicro.S_H)
        return [
            ((l_a + 1, l_h, tie_kind, last), _P_ALPHA, _NO_REWARD),
            ((l_a - l_h, 1, Fork.NO_TIE, landing), _P_MATCH, _MATCH),
            ((l_a, l_h + 1, Fork.NO_TIE, last), _P_BREAK, _NO_REWARD),
        ]

    wait = [
        ((l_a + 1, l_h, fork, last), _P_ALPHA, _NO_REWARD),
        ((l_a, l_h + 1, fork, last), _P_BETA, _NO_REWARD),
    ]
    # revert publishes a tiePrime branch's hidden trailing microblocks, the
    # hidden ancestor microblocks while no honest block contests the ancestor,
    # or re-accepts excluded ones while no selfish block commits to the
    # exclusion.  A tie has l_a >= l_h >= 1, so at most one case applies.
    publish = (last == LastMicro.S_H) & (l_h == 0)
    reaccept = (last == LastMicro.H_EX) & (l_a == 0)
    shown = np.where(publish, LastMicro.S_P, np.where(reaccept, LastMicro.H_IN, last))
    reverted = (l_a, l_h, np.where(tie_prime, Fork.TIE, fork), shown)
    return [
        (MdpAction.ADOPT, l_h >= 1, settle(0, LastMicro.H_IN, _ADOPT)),
        (MdpAction.ADOPT_E, l_h >= 1, settle(0, LastMicro.H_EX, _ADOPT)),
        (MdpAction.OVERRIDE, l_a > l_h, settle(l_a - l_h - 1, LastMicro.S_P, _OVERRIDE)),
        (MdpAction.OVERRIDE_H, l_a > l_h, settle(l_a - l_h - 1, LastMicro.S_H, _OVERRIDE)),
        (MdpAction.WAIT, grows & no_tie, wait),
        (MdpAction.WAIT, grows & ~no_tie, race(fork)),
        (MdpAction.MATCH, matchable, race(Fork.TIE)),
        (MdpAction.MATCH_H, matchable, race(Fork.TIE_PRIME)),
        (MdpAction.REVERT, tie_prime | publish | reaccept, [(reverted, _P_ONE, _NO_REWARD)]),
    ]


class _Skeleton:
    """Parameter-free MDP structure at one truncation, shared by its tables.

    Rows are flat (action, state) indices action * n + state.  Outcomes are
    stored in rule-table order: rule by rule of _rules, then state by state
    in enumerate_states order, so each available pair owns a contiguous run
    in its rule's outcome order; csr_order lists them in the data order of
    the transition matrix, whose indptr delimits each row's run.
    """

    def __init__(self, truncation: int):
        self.states = states = enumerate_states(truncation)
        n = len(states)
        # State index over the box of all field values; -1 marks no state.
        box = np.full((truncation + 1, truncation + 1, len(Fork), len(LastMicro)), -1)
        box[tuple(states.T)] = np.arange(n)
        source = states[:, 1] * len(LastMicro) + states[:, 3]
        parts = []  # per rule: flat rows, next states, probability kinds, reward ids
        for action, mask, outcomes in _rules(states, truncation):
            (i,) = np.nonzero(mask)
            targets, p_kinds, r_kinds = zip(*outcomes)
            target = np.stack([np.broadcast_to(f, n)[i] for t in targets for f in t], -1)
            target = target.reshape(-1, 4)  # by available state and outcome, then field
            inside = np.all((target >= 0) & (target < box.shape), axis=1)
            col = np.full(len(target), -1)
            col[inside] = box[tuple(target[inside].T)]
            if (col < 0).any():
                j = np.argmax(col < 0)
                state = tuple(states[i[j // len(outcomes)]].tolist())
                raise ValueError(
                    f"{action.value} in state {state} leads to {tuple(target[j].tolist())},"
                    f" not a state at truncation L={truncation}"
                )
            parts.append((
                np.repeat(ACTION_ORDER.index(action) * n + i, len(outcomes)),
                col,
                np.tile(p_kinds, len(i)),
                (np.array(r_kinds) * (truncation + 1) * len(LastMicro) + source[i, None]).ravel(),
            ))
        self.row, self.col, self.prob_kind, self.reward_id = map(np.concatenate, zip(*parts))
        # No (row, col) pair repeats, so sorting the outcomes by row, then
        # column, gives the CSR pattern directly.
        self.csr_order = np.lexsort((self.col, self.row))
        self.indices = self.col[self.csr_order].astype(np.int32)
        row_counts = np.bincount(self.row, minlength=len(ACTION_ORDER) * n)
        self.indptr = np.concatenate(([0], np.cumsum(row_counts))).astype(np.int32)
        self.available = np.diff(self.indptr) > 0
        self.boundary = states[:, :2].max(axis=1) == truncation
        # Indexed by reward id, then reward field, then (c, a, b).
        keys = product(range(4), range(truncation + 1), LastMicro)
        self.coefficients = np.array([_reward_coefficients(*k) for k in keys], float)
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False


_skeleton = lru_cache(maxsize=4)(_Skeleton)


class TransitionTable:
    """Transition and reward structure for one parameterization.

    probability holds one entry per outcome, transition is the CSR matrix
    from flat rows to next states, and reward_values holds one row per
    reward id with the columns (r_h, t_h, r_a, t_a).
    """

    def __init__(self, params: ProtocolParams, truncation: int):
        # The table grows as L^2: L = 100 takes 0.7 s and 150 MB to build.
        require(2 <= truncation <= 100, "truncation must be between 2 and 100")
        # Deferred so that importing the package does not load scipy.
        from scipy import sparse

        skeleton = _skeleton(truncation)
        self.params = params
        self.truncation = truncation
        self.states = skeleton.states
        self.available = skeleton.available
        self._skeleton = skeleton

        alpha, gamma, r = params.alpha, params.gamma, params.split_ratio
        kinds = np.array(
            [alpha, 1 - alpha, gamma * (1 - alpha), (1 - gamma) * (1 - alpha), 1.0]
        )
        self.probability = kinds[skeleton.prob_kind]
        c, a, b = np.moveaxis(skeleton.coefficients, -1, 0)
        self.reward_values = c + a * r + b * (1.0 - r)
        self.transition = sparse.csr_matrix(
            (self.probability[skeleton.csr_order], skeleton.indices, skeleton.indptr),
            shape=(len(self.available), len(self.states)),
        )

    def __len__(self) -> int:
        return int(np.count_nonzero(self.available))

    def expected_rewards(self, weights: RewardWeights) -> tuple[np.ndarray, np.ndarray]:
        """Expected (selfish, total) scalar reward of every flat row."""
        sk = self._skeleton
        kw, fw = weights.key_weight, weights.fee_weight
        r_h, t_h, r_a, t_a = self.reward_values.T
        selfish = kw * r_a + fw * t_a
        total = selfish + (kw * r_h + fw * t_h)
        size = len(self.available)
        return (
            np.bincount(sk.row, self.probability * selfish[sk.reward_id], size),
            np.bincount(sk.row, self.probability * total[sk.reward_id], size),
        )


def build_transitions(params: ProtocolParams, truncation: int = 20) -> TransitionTable:
    return TransitionTable(params, truncation)


@dataclass(frozen=True)
class SolveResult:
    """The solved policy and its exact revenue, with solver diagnostics:
    Dinkelbach steps; full value iteration sweeps and policy evaluation
    iterations, each summed over the steps; and the returned policy's
    stationary mass on the truncation boundary (l_a == L or l_h == L),
    which is small when L is large enough.  policy is the ACTION_ORDER
    index taken in each row of states, the table's own state array; bias
    is the value iteration's last relative values and distribution the
    policy's stationary distribution, which a solve started from this
    result begins with.  The arrays are read-only and left out of ==,
    which cannot compare them."""

    revenue: float
    policy: np.ndarray = field(compare=False)
    states: np.ndarray = field(compare=False)
    outer_iterations: int
    truncation: int
    weights: RewardWeights
    params: ProtocolParams  # the parameter point the policy was solved for
    rvi_sweeps: int
    eval_iterations: int
    boundary_mass: float
    bias: np.ndarray = field(compare=False, repr=False)
    distribution: np.ndarray = field(compare=False, repr=False)


# Solver constants: the value iteration span tolerance, its cap on full
# sweeps and the policy sweeps after each full sweep that fails the span
# test; the self-loop damping of both value iteration and policy
# evaluation; the policy evaluation's L1 change tolerance and its
# iteration cap.
_EPS_INNER = 1e-7
_MAX_INNER = 500_000
_POLICY_SWEEPS = 20
_DAMPING = 0.995
_EPS_EVAL = 1e-13
_MAX_EVAL = 200_000


def _entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the stored entries of some rows of a CSR matrix,
    row by row in the given order, and the indptr of those rows alone."""
    start = indptr[rows]
    counts = indptr[rows + 1] - start
    sub_indptr = np.zeros(len(rows) + 1, indptr.dtype)
    np.cumsum(counts, out=sub_indptr[1:])
    return np.arange(sub_indptr[-1]) + np.repeat(start - sub_indptr[:-1], counts), sub_indptr


def _rows_of(table: TransitionTable, rows: np.ndarray):
    """table.transition[rows], gathered from its CSR arrays: the same
    entries in the same order, without scipy's index checks."""
    matrix = table.transition
    take, indptr = _entries(matrix.indptr, rows)
    return type(matrix)(
        (matrix.data[take], matrix.indices[take], indptr), shape=(len(rows), matrix.shape[1])
    )


def _gain(
    table: TransitionTable, reward: np.ndarray, values: np.ndarray
) -> tuple:
    """Optimal average of the transformed reward by relative value
    iteration, modified as policy iteration (Puterman and Shin, Management
    Science 1978).

    A full sweep applies the Bellman operator over all flat rows and picks
    the greedy actions: in each state the first action, in ACTION_ORDER,
    whose value equals the sweep's maximum.  When its span test fails,
    _POLICY_SWEEPS sweeps follow on the greedy policy's own chain, which
    has about a quarter of the table's nonzeros, gathered from the table's
    CSR arrays again only when the greedy actions change; they update the
    values in place.  Only a full sweep stops the loop, and its span test
    bounds the optimal gain whatever v it starts from, so the policy sweeps
    leave the returned gain's error bound as it was.  The damping mixes in
    a self-loop, which removes periodicity without changing the average
    reward.  Returns (gain, the largest entry of Tv - v in the last full
    sweep, bias values, flat rows and transition rows of the policy greedy
    in the last full sweep, full sweeps).
    """
    n = len(table.states)
    v = values
    actions = None
    for sweep in range(1, _MAX_INNER + 1):
        q = (reward + table.transition @ v).reshape(len(ACTION_ORDER), -1)
        best = q.max(axis=0)
        # Last action first, so the first maximal action is written last.
        greedy = np.empty(n, np.intp)
        for k in range(len(ACTION_ORDER) - 1, -1, -1):
            greedy[q[k] == best] = k
        if not np.array_equal(greedy, actions):
            actions = greedy
            rows = actions * n + np.arange(n)
            chain, chain_reward = _rows_of(table, rows), reward[rows]
        diff = best - v
        lo, hi = diff.min(), diff.max()
        v = v + _DAMPING * diff
        v -= v[0]
        if hi - lo < _EPS_INNER:
            return (hi + lo) / 2.0, hi, v, rows, chain, sweep
        for _ in range(_POLICY_SWEEPS):
            # v <- (1 - d) v + d (r + P v) in place, rounded as that expression is.
            step = chain @ v
            step += chain_reward
            step *= _DAMPING
            v *= 1.0 - _DAMPING
            v += step
            v -= v[0]
    raise SolverError("value iteration did not converge", _MAX_INNER, hi - lo)


def _stationary(chain, x: np.ndarray) -> tuple[np.ndarray, int]:
    """Stationary distribution of a policy's chain reached from x, and the
    number of iterations taken.

    Power iteration on the damped chain x <- x + _DAMPING * (P^T x - x).
    Any self-loop weight 1 - _DAMPING > 0 keeps the stationary distributions
    of P and removes periodicity (Puterman 1994, section 8.5.4), and one
    close to 0 keeps nearly all of P's mixing per step.  The lazy step
    x/2 + P^T x/2 needs about twice the steps on a slowly mixing chain, and
    at high alpha those extra steps are the costliest: the mass of the
    transient states decays into subnormal floats, which multiply several
    times slower.  Stops when the L1 change of one step falls below
    _EPS_EVAL.

    The iteration runs only on the states reachable from the support of x
    along the chain's stored entries, explicit zeros included, and returns
    zeros on the others.  That set is closed, so the mass outside it stays
    exactly 0 and every iterate inside it is the one the whole chain would
    give: each sum drops only zero terms and keeps the others in order.
    Only the L1 change adds its terms in another grouping, so the stopping
    test could differ in the last bit of a change at the tolerance.
    """
    n = chain.shape[0]
    reached = _reachable(chain, x != 0)
    label = np.zeros(n, chain.indices.dtype)
    label[reached] = np.arange(len(reached))
    take, indptr = _entries(chain.indptr, reached)
    sub = type(chain)(
        (chain.data[take], label[chain.indices[take]], indptr), shape=(len(reached),) * 2
    )
    transposed = sub.T.tocsr()
    y = x[reached]
    for iteration in range(1, _MAX_EVAL + 1):
        step = transposed @ y
        step -= y
        step *= _DAMPING
        y += step
        change = np.abs(step, out=step).sum()
        if change < _EPS_EVAL:
            pi = np.zeros(n)
            pi[reached] = y
            return pi, iteration
    raise SolverError("policy evaluation did not converge", _MAX_EVAL, change)


def _reachable(chain, seed: np.ndarray) -> np.ndarray:
    """The sorted indices of the states reachable in a CSR chain from the
    states where the mask seed is set, along its stored entries."""
    reached = seed.copy()
    frontier = np.flatnonzero(seed)
    while len(frontier):
        new = np.zeros_like(reached)
        new[chain.indices[_entries(chain.indptr, frontier)[0]]] = True
        new &= ~reached
        reached |= new
        frontier = np.flatnonzero(new)
    return np.flatnonzero(reached)


def solve(
    table: TransitionTable, weights: RewardWeights, start: SolveResult | None = None
) -> SolveResult:
    """Optimal relative revenue over the truncated state space.

    Dinkelbach steps from w = 0: value iteration warm-started from the last
    bias finds the optimal gain of selfish - w * total reward, and the exact
    ratio of the policy greedy in its last full sweep, from the start state
    (its stationary distribution to an L1 change below _EPS_EVAL), becomes
    the next w.  The steps stop once the gain is at most _EPS_INNER or the
    ratio stops rising.  revenue is the exact ratio of the best policy
    evaluated, which is the one returned, with the diagnostics SolveResult
    lists.

    A start, a result solved at the same truncation (a neighbouring grid
    point, say), replaces w = 0 by the exact ratio of its policy on this
    table, evaluated from its distribution, and seeds the value iteration
    with its bias: it enters the loop at the evaluation step, a cold solve
    at the value iteration.  That policy is feasible here, so its ratio is
    at most the optimum: Dinkelbach's w must stay a lower bound, since a w
    above the optimum would stop the steps at a worse policy.  The bias
    only seeds the value iteration, whose span test certifies any seed, so
    a caller may replace it with a better guess (dataclasses.replace); the
    CLI's grid extrapolates it from the two rows before.

    Each evaluation iterates only on the states the policy's chain reaches
    from the distribution it starts from (see _stationary), and each step's
    value iteration gathers its policy chains from the table's CSR arrays
    (see _gain); neither changes a result's bits.

    Once a policy has been evaluated, a step whose last full sweep has
    every entry of Tv - v at most 0 ends the solve without evaluating its
    greedy policy.  For any policy, r + Pv <= Tv <= v + max(Tv - v), so its
    gain is at most max(Tv - v) (Puterman 1994, section 8.5); at most 0
    means no policy's ratio exceeds w, the best ratio already evaluated.
    """
    r_self, r_total = table.expected_rewards(weights)
    # Unavailable pairs never win a max: their reward -inf - w * 0 stays -inf.
    r_self[~table.available] = -np.inf
    n = len(table.states)
    if start is None:
        v, x, rows = np.zeros(n), np.zeros(n), None
        x[0] = 1.0
    else:
        if start.truncation != table.truncation:
            raise ValueError(
                f"start was solved at truncation L={start.truncation},"
                f" the table has L={table.truncation}"
            )
        v, x, rows = start.bias, start.distribution, start.policy * n + np.arange(n)
        chain = _rows_of(table, rows)
    w, best, best_rows = 0.0, -np.inf, None
    outer = sweeps = evaluations = 0
    while True:
        if rows is not None:
            x, used = _stationary(chain, x)
            evaluations += used
            ratio = float(x @ r_self[rows]) / float(x @ r_total[rows])
            if ratio > best:
                best, best_rows, best_x = ratio, rows, x
            # A start's own evaluation (outer == 0) never ends the solve.
            if outer and (g <= _EPS_INNER or ratio <= w):
                break
            w = ratio
        g, hi, v, rows, chain, used = _gain(table, r_self - w * r_total, v)
        outer += 1
        sweeps += used
        if hi <= 0.0 and best_rows is not None:
            break
    policy = best_rows // n
    for array in (policy, v, best_x):
        array.flags.writeable = False
    return SolveResult(
        revenue=best,
        policy=policy,
        states=table.states,
        outer_iterations=outer,
        truncation=table.truncation,
        weights=weights,
        params=table.params,
        rvi_sweeps=sweeps,
        eval_iterations=evaluations,
        boundary_mass=float(best_x[table._skeleton.boundary].sum()),
        bias=v,
        distribution=best_x,
    )
