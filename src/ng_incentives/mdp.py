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
gamma(1-alpha), (1-gamma)(1-alpha) or 1) and a reward id whose fields are
c + a*r + b*(1-r); a TransitionTable fills both in for one parameter point
with a few vector operations.

The optimal relative revenue solves a ratio objective: bisection on the
revenue w, where each trial w is checked by maximizing the long-run average
of (selfish reward - w * total reward) with relative value iteration.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import lru_cache
from itertools import product
from typing import Iterator, NamedTuple

import numpy as np
from scipy import sparse

from .model import ProtocolParams, RewardWeights


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
    ADOPT = "adopt"
    ADOPT_E = "adoptE"
    OVERRIDE = "override"
    OVERRIDE_H = "overrideH"
    MATCH = "match"
    MATCH_H = "matchH"
    WAIT = "wait"
    REVERT = "revert"


# Fixed order used for greedy tie-breaking: honest-looking actions first.
ACTION_ORDER = (
    MdpAction.ADOPT,
    MdpAction.ADOPT_E,
    MdpAction.OVERRIDE,
    MdpAction.OVERRIDE_H,
    MdpAction.MATCH,
    MdpAction.MATCH_H,
    MdpAction.WAIT,
    MdpAction.REVERT,
)
_ACTION_INDEX = {a: i for i, a in enumerate(ACTION_ORDER)}


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


def scalarize(reward: RewardTuple, weights: RewardWeights) -> tuple[float, float]:
    """Collapse a reward tuple of scalars or arrays to (selfish, total)."""
    selfish = weights.key_weight * reward.r_a + weights.fee_weight * reward.t_a
    honest = weights.key_weight * reward.r_h + weights.fee_weight * reward.t_h
    return selfish, selfish + honest


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
    """(c, a, b) for each RewardTuple field of one reward.

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


def enumerate_states(truncation: int) -> list[MdpState]:
    """All states with chain lengths capped at the truncation bound.

    A tie (matched branch) requires l_a >= l_h >= 1.
    """
    states: list[MdpState] = []
    for l_a in range(truncation + 1):
        for l_h in range(truncation + 1):
            for last in LastMicro:
                states.append(MdpState(l_a, l_h, Fork.NO_TIE, last))
                if 1 <= l_h <= l_a:
                    states.append(MdpState(l_a, l_h, Fork.TIE, last))
                    states.append(MdpState(l_a, l_h, Fork.TIE_PRIME, last))
    return states


def _state_rules(s: MdpState, truncation: int):
    """Yield each available action at s with its outcomes as (next state,
    probability kind, reward kind) triples."""
    l_a, l_h, fork, last = s
    if l_h >= 1:
        for action, landing in (
            (MdpAction.ADOPT, LastMicro.H_IN),
            (MdpAction.ADOPT_E, LastMicro.H_EX),
        ):
            yield action, [
                (MdpState(1, 0, Fork.NO_TIE, landing), _P_ALPHA, _ADOPT),
                (MdpState(0, 1, Fork.NO_TIE, landing), _P_BETA, _ADOPT),
            ]

    if l_a > l_h:
        for action, landing in (
            (MdpAction.OVERRIDE, LastMicro.S_P),
            (MdpAction.OVERRIDE_H, LastMicro.S_H),
        ):
            yield action, [
                (MdpState(l_a - l_h, 0, Fork.NO_TIE, landing), _P_ALPHA, _OVERRIDE),
                (MdpState(l_a - l_h - 1, 1, Fork.NO_TIE, landing), _P_BETA, _OVERRIDE),
            ]

    # wait / match / matchH all mine one more key block, so they are
    # removed at the truncation boundary.
    if l_a < truncation and l_h < truncation:
        if fork == Fork.NO_TIE:
            yield MdpAction.WAIT, [
                (MdpState(l_a + 1, l_h, fork, last), _P_ALPHA, _NO_REWARD),
                (MdpState(l_a, l_h + 1, fork, last), _P_BETA, _NO_REWARD),
            ]
        if fork != Fork.NO_TIE:
            races = [(MdpAction.WAIT, fork)]
        elif 1 <= l_h <= l_a:
            races = [(MdpAction.MATCH, Fork.TIE), (MdpAction.MATCH_H, Fork.TIE_PRIME)]
        else:
            races = []
        # Two equal-length public branches race for the next key block: the
        # selfish miner extends privately (tie persists), some honest power
        # mines the selfish branch (the match succeeds and the selfish branch
        # finalizes), the rest extend the honest branch (tie broken).  A
        # tiePrime branch hides its trailing microblocks, so success is S_h.
        for action, tie_kind in races:
            landing = LastMicro.S_P if tie_kind == Fork.TIE else LastMicro.S_H
            yield action, [
                (MdpState(l_a + 1, l_h, tie_kind, last), _P_ALPHA, _NO_REWARD),
                (MdpState(l_a - l_h, 1, Fork.NO_TIE, landing), _P_MATCH, _MATCH),
                (MdpState(l_a, l_h + 1, Fork.NO_TIE, last), _P_BREAK, _NO_REWARD),
            ]

    revert_target = _revert_target(s)
    if revert_target is not None:
        yield MdpAction.REVERT, [(revert_target, _P_ONE, _NO_REWARD)]


def _revert_target(s: MdpState) -> MdpState | None:
    l_a, l_h, fork, last = s
    if fork == Fork.TIE_PRIME:
        # Publish the matched branch's hidden trailing microblocks.
        return MdpState(l_a, l_h, Fork.TIE, last)
    if last == LastMicro.S_H and l_h == 0:
        # No honest block contests the ancestor yet: publish the hidden
        # microblocks after all.
        return MdpState(l_a, l_h, fork, LastMicro.S_P)
    if last == LastMicro.H_EX and l_a == 0:
        # No selfish block commits to the exclusion: re-accept.
        return MdpState(l_a, l_h, fork, LastMicro.H_IN)
    return None


class _Skeleton:
    """Parameter-free MDP structure at one truncation, shared by its tables.

    Rows are flat (action, state) indices action * n + state.  Outcomes are
    stored in enumerate_states and then _state_rules order, so each
    available pair owns a contiguous run; csr_order lists them in the data
    order of the transition matrix, whose indptr delimits each row's run.
    """

    def __init__(self, truncation: int):
        self.states = tuple(enumerate_states(truncation))
        self.state_index = {s: i for i, s in enumerate(self.states)}
        n = len(self.states)
        ids_per_kind = (truncation + 1) * len(LastMicro)
        outcomes = []  # (flat row, next state, probability kind, reward id)
        for i, s in enumerate(self.states):
            source = s.l_h * len(LastMicro) + s.last_micro
            for action, rules in _state_rules(s, truncation):
                flat = _ACTION_INDEX[action] * n + i
                for target, p_kind, r_kind in rules:
                    reward_id = r_kind * ids_per_kind + source
                    outcomes.append((flat, self.state_index[target], p_kind, reward_id))
        self.row, self.col, self.prob_kind, self.reward_id = np.array(outcomes).T
        pattern = sparse.csr_matrix(
            (np.arange(len(outcomes)), (self.row, self.col)),
            shape=(len(ACTION_ORDER) * n, n),
        )
        self.csr_order, self.indices, self.indptr = (
            pattern.data, pattern.indices, pattern.indptr
        )
        self.available = np.diff(self.indptr) > 0
        # Indexed by reward id, then RewardTuple field, then (c, a, b).
        keys = product(range(4), range(truncation + 1), LastMicro)
        self.coefficients = np.array([_reward_coefficients(*k) for k in keys], float)
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False


@lru_cache(maxsize=4)
def _skeleton(truncation: int) -> _Skeleton:
    return _Skeleton(truncation)


class TransitionTable:
    """Transition and reward structure for one parameterization.

    probability holds one entry per outcome, transition is the CSR matrix
    from flat rows to next states, and reward_values holds one RewardTuple
    row per reward id.  actions, outcomes and items view these arrays.
    """

    def __init__(self, params: ProtocolParams, truncation: int):
        if truncation < 2:
            raise ValueError("truncation must be at least 2")
        skeleton = _skeleton(truncation)
        self.params = params
        self.truncation = truncation
        self.states = skeleton.states
        self.state_index = skeleton.state_index
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

    def actions(self, state: MdpState) -> list[MdpAction]:
        n, i = len(self.states), self.state_index[state]
        return [a for k, a in enumerate(ACTION_ORDER) if self.available[k * n + i]]

    def outcomes(self, state: MdpState, action: MdpAction) -> list[Outcome]:
        sk = self._skeleton
        flat = _ACTION_INDEX[action] * len(self.states) + self.state_index[state]
        lo, hi = sk.indptr[flat], sk.indptr[flat + 1]
        if lo == hi:
            raise KeyError((state, action))
        first = sk.csr_order[lo:hi].min()
        span = slice(first, first + hi - lo)
        return [
            Outcome(self.states[col], probability, RewardTuple(*reward))
            for col, probability, reward in zip(
                sk.col[span].tolist(),
                self.probability[span].tolist(),
                self.reward_values[sk.reward_id[span]].tolist(),
            )
        ]

    def items(self) -> Iterator[tuple[MdpState, MdpAction, list[Outcome]]]:
        for flat in dict.fromkeys(self._skeleton.row.tolist()):
            k, i = divmod(flat, len(self.states))
            state, action = self.states[i], ACTION_ORDER[k]
            yield state, action, self.outcomes(state, action)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.available))

    def expected_rewards(self, weights: RewardWeights) -> tuple[np.ndarray, np.ndarray]:
        """Expected (selfish, total) scalar reward of every flat row."""
        sk = self._skeleton
        selfish, total = scalarize(RewardTuple(*self.reward_values.T), weights)
        size = len(self.available)
        return (
            np.bincount(sk.row, self.probability * selfish[sk.reward_id], size),
            np.bincount(sk.row, self.probability * total[sk.reward_id], size),
        )


def build_transitions(params: ProtocolParams, truncation: int = 20) -> TransitionTable:
    return TransitionTable(params, truncation)


@dataclass(frozen=True)
class SolveResult:
    revenue: float
    policy: dict[MdpState, MdpAction]
    outer_iterations: int
    truncation: int
    weights: RewardWeights

    def action(self, state: MdpState) -> MdpAction:
        """Solved policy's action at a state; errors outside the truncation."""
        try:
            return self.policy[state]
        except KeyError:
            raise ValueError(f"state {state} outside the solved state space") from None


class SolverError(RuntimeError):
    """Inner value iteration failed to converge; carries iteration state."""

    def __init__(self, message: str, iterations: int, span: float):
        # Every constructor argument stays in args, so the error pickles.
        super().__init__(message, iterations, span)
        self.iterations = iterations
        self.span = span

    def __str__(self) -> str:
        message, iterations, span = self.args
        return f"{message} (iterations={iterations}, span={span:.3e})"


# Solver constants: the inner (value iteration span) and outer (revenue
# bracket width) tolerances, the inner iteration cap, and the self-loop
# damping of the value iteration.
_EPS_INNER = 1e-7
_EPS_OUTER = 1e-5
_MAX_INNER = 500_000
_DAMPING = 0.995


def _gain(
    table: TransitionTable, reward: np.ndarray, values: np.ndarray, eps: float
) -> tuple[float, np.ndarray, int]:
    """Optimal average of the transformed reward by relative value iteration.

    The damping mixes in a self-loop, which removes periodicity without
    changing the average reward.  Returns (gain, bias values, iterations).
    """
    v = values
    for iteration in range(1, _MAX_INNER + 1):
        q = reward + table.transition @ v
        best = q.reshape(len(ACTION_ORDER), -1).max(axis=0)
        mixed = (1.0 - _DAMPING) * v + _DAMPING * best
        diff = mixed - v
        lo, hi = diff.min(), diff.max()
        v = mixed - mixed[0]
        if (hi - lo) / _DAMPING < eps:
            return (hi + lo) / (2.0 * _DAMPING), v, iteration
    raise SolverError("value iteration did not converge", _MAX_INNER, hi - lo)


def solve(table: TransitionTable, weights: RewardWeights) -> SolveResult:
    """Optimal relative revenue over the truncated state space.

    Bisects the candidate revenue w on [0, 1]: the optimal transformed
    average reward is positive below the true ratio and nonpositive above
    it.  Early bisection steps run the inner iteration at a coarser
    tolerance proportional to the bracket width.
    """
    r_self, r_total = table.expected_rewards(weights)
    # Unavailable pairs never win a max: their reward -inf - w * 0 stays -inf.
    r_self[~table.available] = -np.inf
    lo, hi = 0.0, 1.0
    v = np.zeros(len(table.states))
    v_low = v
    outer = 0
    while hi - lo > _EPS_OUTER:
        w = 0.5 * (lo + hi)
        eps = max(_EPS_INNER, (hi - lo) * 1e-3)
        g, v, _ = _gain(table, r_self - w * r_total, v, eps)
        outer += 1
        if g > 0:
            lo, v_low = w, v
        else:
            hi = w
    q = r_self - lo * r_total + table.transition @ v_low
    actions = q.reshape(len(ACTION_ORDER), -1).argmax(axis=0)
    return SolveResult(
        revenue=0.5 * (lo + hi),
        policy={s: ACTION_ORDER[a] for s, a in zip(table.states, actions.tolist())},
        outer_iterations=outer,
        truncation=table.truncation,
        weights=weights,
    )
