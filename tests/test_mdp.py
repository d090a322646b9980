import dataclasses
import math

import numpy as np
import pytest
from scipy import sparse

from ng_incentives import mdp
from ng_incentives.cli import main
from ng_incentives.mdp import (
    ACTION_ORDER,
    Fork,
    LastMicro,
    MdpAction,
    enumerate_states,
    solve,
)
from ng_incentives.model import ParameterError, ProtocolParams, RewardWeights, SolverError

from oracles import (
    MdpState,
    RewardTuple,
    build_transitions,
    closed_classes,
    damped_stationary,
    optimal_gain,
    policy_of,
    policy_value,
    sm1_action,
    sm1_revenue,
    stationary_distribution,
)

ALPHA, GAMMA, R = 0.3, 0.5, 0.4
PARAMS = ProtocolParams(alpha=ALPHA, gamma=GAMMA, split_ratio=R)


@pytest.fixture(scope="module")
def table():
    return build_transitions(PARAMS, truncation=8)


def _outs(table, l_a, l_h, fork, last, action):
    return table.outcomes(MdpState(l_a, l_h, fork, last), action)


def test_state_count_at_default_truncation():
    # 4 last_micro values; tie and tiePrime only when 1 <= l_h <= l_a.  The
    # solver and the oracles start from row 0, and the CSR pattern follows
    # the row order.
    for truncation in (2, 20, 100):
        states = enumerate_states(truncation)
        no_tie = 4 * (truncation + 1) ** 2
        ties = 2 * 4 * sum(min(l_a, truncation) for l_a in range(1, truncation + 1))
        assert states.shape == (no_tie + ties, 4), truncation
        assert states[0].tolist() == [0, 0, Fork.NO_TIE, LastMicro.H_IN]
        assert len(np.unique(states, axis=0)) == len(states)
        l_a, l_h, fork, last = states.T
        assert np.array_equal(np.lexsort((fork, last, l_h, l_a)), np.arange(len(states)))
    assert len(enumerate_states(20)) == 3444


def test_probabilities_sum_to_one_everywhere(table):
    for state, action, outs in table.items():
        assert math.isclose(
            sum(o.probability for o in outs), 1.0, rel_tol=0.0, abs_tol=1e-12
        ), (state, action)


def test_probability_values_are_canonical(table):
    canonical = {ALPHA, 1 - ALPHA, GAMMA * (1 - ALPHA), (1 - GAMMA) * (1 - ALPHA), 1.0}
    for state, action, outs in table.items():
        for o in outs:
            assert any(math.isclose(o.probability, c, abs_tol=1e-12) for c in canonical)


def test_fee_units_conserved_per_transition(table):
    # Advancing the ancestor by n key blocks finalizes n fee units, one of
    # which may be orphaned: adopt advances l_h, override l_h+1, a match
    # success l_h; other actions finalize nothing.
    for state, action, outs in table.items():
        for o in outs:
            total_fees = o.reward.t_h + o.reward.t_a
            keys = o.reward.r_h + o.reward.r_a
            if keys == 0:
                assert total_fees == 0.0, (state, action, o)
            else:
                n = int(keys)
                assert total_fees == pytest.approx(n) or total_fees == pytest.approx(
                    n - 1
                ), (state, action, o)


# ------------------------------------------------------- golden row groups
# Symbolic states instantiated at l_a=5, l_h=3 (plus the revert specials).


def _rows(outs):
    return [(o.next_state, o.probability, o.reward) for o in outs]


def test_rows_adopt_from_selfish_published(table):
    outs = _outs(table, 5, 3, Fork.NO_TIE, LastMicro.S_P, MdpAction.ADOPT)
    reward = RewardTuple(3, 2 + (1 - R), 0.0, R)
    assert _rows(outs) == [
        (MdpState(1, 0, Fork.NO_TIE, LastMicro.H_IN), ALPHA, reward),
        (MdpState(0, 1, Fork.NO_TIE, LastMicro.H_IN), 1 - ALPHA, reward),
    ]


def test_rows_adopt_from_selfish_hidden(table):
    outs = _outs(table, 5, 3, Fork.NO_TIE, LastMicro.S_H, MdpAction.ADOPT_E)
    reward = RewardTuple(3, 2.0, 0.0, 0.0)  # hidden leading unit orphaned
    assert _rows(outs) == [
        (MdpState(1, 0, Fork.NO_TIE, LastMicro.H_EX), ALPHA, reward),
        (MdpState(0, 1, Fork.NO_TIE, LastMicro.H_EX), 1 - ALPHA, reward),
    ]


def test_rows_adopt_from_honest_ancestor(table):
    reward = RewardTuple(3, 3.0, 0.0, 0.0)
    for last in (LastMicro.H_IN, LastMicro.H_EX):
        outs = _outs(table, 5, 3, Fork.NO_TIE, last, MdpAction.ADOPT)
        assert _rows(outs) == [
            (MdpState(1, 0, Fork.NO_TIE, LastMicro.H_IN), ALPHA, reward),
            (MdpState(0, 1, Fork.NO_TIE, LastMicro.H_IN), 1 - ALPHA, reward),
        ]


def test_rows_override_from_honest_included(table):
    outs = _outs(table, 5, 3, Fork.NO_TIE, LastMicro.H_IN, MdpAction.OVERRIDE)
    reward = RewardTuple(0.0, R, 4, 3 + (1 - R))
    assert _rows(outs) == [
        (MdpState(2, 0, Fork.NO_TIE, LastMicro.S_P), ALPHA, reward),
        (MdpState(1, 1, Fork.NO_TIE, LastMicro.S_P), 1 - ALPHA, reward),
    ]


def test_rows_override_from_honest_excluded(table):
    outs = _outs(table, 5, 3, Fork.NO_TIE, LastMicro.H_EX, MdpAction.OVERRIDE_H)
    reward = RewardTuple(0.0, 0.0, 4, 3.0)  # excluded leading unit orphaned
    assert _rows(outs) == [
        (MdpState(2, 0, Fork.NO_TIE, LastMicro.S_H), ALPHA, reward),
        (MdpState(1, 1, Fork.NO_TIE, LastMicro.S_H), 1 - ALPHA, reward),
    ]


def test_rows_override_from_selfish_ancestor(table):
    reward = RewardTuple(0.0, 0.0, 4, 4.0)
    for last in (LastMicro.S_P, LastMicro.S_H):
        outs = _outs(table, 5, 3, Fork.NO_TIE, last, MdpAction.OVERRIDE)
        assert _rows(outs) == [
            (MdpState(2, 0, Fork.NO_TIE, LastMicro.S_P), ALPHA, reward),
            (MdpState(1, 1, Fork.NO_TIE, LastMicro.S_P), 1 - ALPHA, reward),
        ]


def test_rows_wait_without_tie(table):
    outs = _outs(table, 5, 3, Fork.NO_TIE, LastMicro.H_IN, MdpAction.WAIT)
    assert _rows(outs) == [
        (MdpState(6, 3, Fork.NO_TIE, LastMicro.H_IN), ALPHA, RewardTuple(0, 0, 0, 0)),
        (MdpState(5, 4, Fork.NO_TIE, LastMicro.H_IN), 1 - ALPHA, RewardTuple(0, 0, 0, 0)),
    ]


def test_rows_race_from_honest_included(table):
    outs = _outs(table, 5, 3, Fork.NO_TIE, LastMicro.H_IN, MdpAction.MATCH)
    success = RewardTuple(0.0, R, 3, 2 + (1 - R))
    assert _rows(outs) == [
        (MdpState(6, 3, Fork.TIE, LastMicro.H_IN), ALPHA, RewardTuple(0, 0, 0, 0)),
        (
            MdpState(2, 1, Fork.NO_TIE, LastMicro.S_P),
            GAMMA * (1 - ALPHA),
            success,
        ),
        (
            MdpState(5, 4, Fork.NO_TIE, LastMicro.H_IN),
            (1 - GAMMA) * (1 - ALPHA),
            RewardTuple(0, 0, 0, 0),
        ),
    ]


def test_rows_race_from_honest_excluded(table):
    outs = _outs(table, 5, 3, Fork.TIE_PRIME, LastMicro.H_EX, MdpAction.WAIT)
    success = RewardTuple(0.0, 0.0, 3, 2.0)
    assert _rows(outs) == [
        (MdpState(6, 3, Fork.TIE_PRIME, LastMicro.H_EX), ALPHA, RewardTuple(0, 0, 0, 0)),
        (MdpState(2, 1, Fork.NO_TIE, LastMicro.S_H), GAMMA * (1 - ALPHA), success),
        (
            MdpState(5, 4, Fork.NO_TIE, LastMicro.H_EX),
            (1 - GAMMA) * (1 - ALPHA),
            RewardTuple(0, 0, 0, 0),
        ),
    ]


def test_rows_race_from_selfish_ancestor(table):
    success = RewardTuple(0.0, 0.0, 3, 3.0)
    for last in (LastMicro.S_P, LastMicro.S_H):
        outs = _outs(table, 5, 3, Fork.TIE, last, MdpAction.WAIT)
        assert _rows(outs) == [
            (MdpState(6, 3, Fork.TIE, last), ALPHA, RewardTuple(0, 0, 0, 0)),
            (MdpState(2, 1, Fork.NO_TIE, LastMicro.S_P), GAMMA * (1 - ALPHA), success),
            (
                MdpState(5, 4, Fork.NO_TIE, last),
                (1 - GAMMA) * (1 - ALPHA),
                RewardTuple(0, 0, 0, 0),
            ),
        ]


def test_rows_revert_publishes_trailing_microblocks(table):
    outs = _outs(table, 5, 3, Fork.TIE_PRIME, LastMicro.H_IN, MdpAction.REVERT)
    assert _rows(outs) == [
        (MdpState(5, 3, Fork.TIE, LastMicro.H_IN), 1.0, RewardTuple(0, 0, 0, 0))
    ]


def test_rows_revert_hidden_ancestor_microblocks(table):
    outs = _outs(table, 2, 0, Fork.NO_TIE, LastMicro.S_H, MdpAction.REVERT)
    assert _rows(outs) == [
        (MdpState(2, 0, Fork.NO_TIE, LastMicro.S_P), 1.0, RewardTuple(0, 0, 0, 0))
    ]


def test_rows_revert_reaccepts_excluded_microblocks(table):
    outs = _outs(table, 0, 2, Fork.NO_TIE, LastMicro.H_EX, MdpAction.REVERT)
    assert _rows(outs) == [
        (MdpState(0, 2, Fork.NO_TIE, LastMicro.H_IN), 1.0, RewardTuple(0, 0, 0, 0))
    ]


def test_action_availability_rules(table):
    # adopt needs a public chain; override needs a longer private chain;
    # wait/match disappear at the truncation boundary.
    s = MdpState(0, 0, Fork.NO_TIE, LastMicro.H_IN)
    assert table.actions(s) == [MdpAction.WAIT]
    s = MdpState(8, 3, Fork.NO_TIE, LastMicro.H_IN)  # l_a at truncation
    assert MdpAction.WAIT not in table.actions(s)
    assert MdpAction.OVERRIDE in table.actions(s)
    s = MdpState(2, 3, Fork.NO_TIE, LastMicro.H_IN)
    acts = table.actions(s)
    assert MdpAction.OVERRIDE not in acts and MdpAction.MATCH not in acts
    assert list(acts) == [a for a in ACTION_ORDER if a in acts]


def test_truncation_validation():
    for truncation in (1, 101):
        with pytest.raises(ParameterError, match="truncation"):
            build_transitions(PARAMS, truncation=truncation)
    assert len(build_transitions(PARAMS, truncation=100).states) == len(enumerate_states(100))


@pytest.mark.parametrize(
    "rule, target, action",
    [
        # A negative field would wrap around in the dense state index.
        (2, lambda l_a, l_h: (l_a - l_h - 2, 1, Fork.NO_TIE, LastMicro.S_P), "override"),
        # A tie needs l_h >= 1, so this is no state.
        (0, lambda l_a, l_h: (1, 0, Fork.TIE, LastMicro.H_IN), "adopt"),
    ],
    ids=["negative-field", "missing-state"],
)
def test_rule_leading_to_no_state_fails_the_build(monkeypatch, rule, target, action):
    rules = mdp._rules

    def patched(states, truncation):
        table = rules(states, truncation)
        name, mask, outcomes = table[rule]
        _, p_kind, r_kind = outcomes[0]
        outcomes = [(target(states[:, 0], states[:, 1]), p_kind, r_kind), *outcomes[1:]]
        table[rule] = name, mask, outcomes
        return table

    monkeypatch.setattr(mdp, "_rules", patched)
    with pytest.raises(ValueError, match=f"^{action} in state .* not a state at truncation L=8$"):
        mdp._Skeleton(8)


@pytest.mark.parametrize("truncation", [2, 3, 8, 20])
def test_csr_pattern_matches_scipy(truncation):
    # The skeleton's outcome arrays are already in scipy's CSR order, so
    # scipy keeps them where they are.
    sk = mdp._skeleton(truncation)
    pairs = sk.row * len(sk.states) + sk.indices
    # scipy would sum the ids of a repeated pair; the numpy pattern would not.
    assert len(np.unique(pairs)) == len(pairs)
    reference = sparse.csr_matrix(
        (np.arange(len(sk.row)), (sk.row, sk.indices)),
        shape=(len(ACTION_ORDER) * len(sk.states), len(sk.states)),
    )
    assert np.array_equal(reference.data, np.arange(len(sk.row)))
    assert np.array_equal(sk.indices, reference.indices)
    assert np.array_equal(sk.indptr, reference.indptr)
    transition = build_transitions(PARAMS, truncation).transition
    assert transition.indices.dtype == transition.indptr.dtype == np.int32


def test_expected_rewards_weight_each_regime(table):
    # override at (5, 3) past an included honest ancestor: both outcomes pay
    # (r_h, t_h, r_a, t_a) = (0, r, 4, 3 + (1 - r)), so the row's expected
    # (selfish, total) is key_weight * (4, 4) + fee_weight * (4 - r, 4).
    state = MdpState(5, 3, Fork.NO_TIE, LastMicro.H_IN)
    flat = ACTION_ORDER.index(MdpAction.OVERRIDE) * len(table.states) + table.state_index[state]
    for regime, expected in (("fee", (4 - R, 4)), ("equal", (8 - R, 8)), ("key", (4, 4))):
        r_self, r_total = table.expected_rewards(RewardWeights.from_regime(regime))
        assert (r_self[flat], r_total[flat]) == pytest.approx(expected, abs=1e-12), regime


# ------------------------------------------------------------------ solver


def test_honest_revenue_is_fair_share_in_every_regime():
    params = ProtocolParams(alpha=0.1, gamma=0.5, split_ratio=0.4)
    table = build_transitions(params, truncation=12)
    for regime in ("fee", "equal", "key"):
        result = solve(table, RewardWeights.from_regime(regime))
        assert result.revenue == pytest.approx(0.1, abs=5e-4)


def test_revenue_never_below_fair_share_and_monotone_in_alpha():
    revenues = []
    for alpha in (0.15, 0.3, 0.42):
        params = ProtocolParams(alpha=alpha, gamma=0.5, split_ratio=0.4)
        table = build_transitions(params, truncation=12)
        result = solve(table, RewardWeights.from_regime("fee"))
        assert result.revenue >= alpha - 1e-4
        revenues.append(result.revenue)
    assert revenues == sorted(revenues)


def test_truncation_sweep_is_stable():
    params = ProtocolParams(alpha=0.3, gamma=0.5, split_ratio=0.4)
    small = solve(build_transitions(params, 16), RewardWeights.from_regime("fee"))
    large = solve(build_transitions(params, 24), RewardWeights.from_regime("fee"))
    assert abs(small.revenue - large.revenue) < 1e-3


def test_tables_at_one_truncation_do_not_share_filled_values():
    # Tables with the same truncation share one cached skeleton; filling in a
    # second parameter point must leave the first table untouched.
    first = build_transitions(PARAMS, truncation=8)
    weights = RewardWeights.from_regime("fee")
    revenue = solve(first, weights).revenue
    state = MdpState(5, 3, Fork.NO_TIE, LastMicro.H_IN)
    row = _rows(first.outcomes(state, MdpAction.MATCH))

    other = ProtocolParams(alpha=0.42, gamma=0.9, split_ratio=0.75)
    solve(build_transitions(other, truncation=8), RewardWeights.from_regime("equal"))

    assert _rows(first.outcomes(state, MdpAction.MATCH)) == row
    assert row[1] == (
        MdpState(2, 1, Fork.NO_TIE, LastMicro.S_P),
        GAMMA * (1 - ALPHA),
        RewardTuple(0.0, R, 3, 2 + (1 - R)),
    )
    assert solve(first, weights).revenue == revenue


def test_solver_error_carries_iteration_state(monkeypatch, capsys):
    # Value iteration, then policy evaluation, capped at one iteration.
    params = ProtocolParams(alpha=0.3, gamma=0.5, split_ratio=0.4)
    for cap in ("_MAX_INNER", "_MAX_EVAL"):
        with monkeypatch.context() as patch:
            patch.setattr(mdp, cap, 1)
            with pytest.raises(SolverError) as info:
                solve(build_transitions(params, 4), RewardWeights.from_regime("equal"))
            assert info.value.iterations == 1
            assert info.value.span > 0.0
            assert "iterations=1" in str(info.value)

            assert main(["mdp", "--alpha", "0.3", "--regime", "fee", "--L", "4"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: solver failed") and len(err.splitlines()) == 1


# ------------------------------------------------- Eyal-Sirer SM1 oracle


@pytest.mark.parametrize("alpha", [0.2, 0.3])
def test_sm1_policy_value_matches_eyal_sirer_closed_form(alpha):
    # "Majority is not Enough" (arXiv:1311.0243): SM1's relative revenue.
    # At alpha = 0.4, truncation at L = 20 cuts long selfish runs visibly.
    gamma = 0.5
    closed = sm1_revenue(alpha, gamma)
    params = ProtocolParams(alpha=alpha, gamma=gamma, split_ratio=0.4)
    table = build_transitions(params, truncation=20)
    weights = RewardWeights.from_regime("key")
    sm1 = policy_value(table, weights, policy_of(table, lambda s: sm1_action(table, s)))
    assert sm1 == pytest.approx(closed, abs=1e-4)
    assert solve(table, weights).revenue >= sm1


@pytest.mark.parametrize(
    "alpha, r, regime",
    [(0.2321, 0.1, "fee"), (0.2321, 0.5, "equal"), (0.4, 0.4, "key"), (0.45, 0.4, "fee")],
)
def test_revenue_is_the_exact_value_of_the_returned_policy(alpha, r, regime):
    # policy_value solves the policy's stationary distribution directly,
    # independently of the solver's power iteration; the boundary mass must
    # come from the same policy's distribution.
    params = ProtocolParams(alpha=alpha, gamma=0.5, split_ratio=r)
    table = build_transitions(params, truncation=20)
    weights = RewardWeights.from_regime(regime)
    result = solve(table, weights)
    assert abs(result.revenue - policy_value(table, weights, result.policy)) < 1e-9
    boundary = table.states[:, :2].max(axis=1) == table.truncation
    pi = stationary_distribution(table, result.policy)
    assert abs(result.boundary_mass - pi[boundary].sum()) < 1e-10
    # The policy is read-only, and a result with equal but distinct arrays
    # still compares equal.
    assert result.policy.shape == (len(table.states),)
    assert dataclasses.replace(result, policy=result.policy.copy()) == result
    with pytest.raises(ValueError, match="read-only"):
        result.policy[0] = 0


def test_policy_value_ignores_zero_probability_outcomes():
    # At gamma = 0 a match never wins, so matchH at (1, 1) never reaches the
    # H_EX / S_H states its zero-probability outcomes point at, and the rule
    # there cannot change the value.  Taken as edges, those outcomes pull a
    # second closed class into the balance system.
    params = ProtocolParams(alpha=0.3, gamma=0.0, split_ratio=0.4)
    table = build_transitions(params, truncation=8)
    weights = RewardWeights.from_regime("fee")
    hidden = (LastMicro.H_EX, LastMicro.S_H)

    def policy(hidden_rule):
        def choose(s):
            if s == MdpState(1, 1, Fork.NO_TIE, LastMicro.H_IN):
                return MdpAction.MATCH_H
            if hidden_rule and s.last_micro in hidden:
                order = (MdpAction.WAIT, MdpAction.OVERRIDE_H, MdpAction.ADOPT_E)
            else:
                order = (MdpAction.WAIT, MdpAction.OVERRIDE, MdpAction.ADOPT)
            return next(a for a in order if a in table.actions(s))

        return policy_of(table, choose)

    value = policy_value(table, weights, policy(hidden_rule=True))
    reference = policy_value(table, weights, policy(hidden_rule=False))
    assert value == pytest.approx(reference, abs=1e-12)


CERTIFIED_GRID = [
    (0.2321, 0.5, 0.1, "fee"),
    (0.2321, 0.5, 0.5, "equal"),
    (0.3, 0.5, 0.4, "key"),
    (0.4, 1.0, 0.4, "fee"),
    (0.4, 1.0, 0.4, "key"),
    (0.45, 0.5, 0.4, "fee"),
    (0.45, 0.0, 0.4, "key"),
]


@pytest.mark.parametrize("alpha, gamma, r, regime", CERTIFIED_GRID)
def test_no_policy_beats_the_returned_revenue(alpha, gamma, r, regime):
    # No policy earns more than revenue exactly when the optimal gain of
    # r_self - revenue * r_total is at most 0; the reference value iteration
    # runs no policy sweeps and has its own damping and tolerance.
    params = ProtocolParams(alpha=alpha, gamma=gamma, split_ratio=r)
    table = build_transitions(params, truncation=20)
    weights = RewardWeights.from_regime(regime)
    result = solve(table, weights)
    r_self, r_total = table.expected_rewards(weights)
    assert abs(optimal_gain(table, r_self - result.revenue * r_total)) <= mdp._EPS_INNER


@pytest.mark.parametrize("regime", ["fee", "key"])
@pytest.mark.parametrize("alpha", [0.3, 0.4, 0.45])
def test_early_dinkelbach_step_returns_a_policy_that_beats_w(alpha, regime):
    # A value iteration that ends before its span test passes must return
    # the greedy policy of a sweep whose every entry of Tv - v is at least
    # lo: that policy's average of r_self - w * r_total, from its exact
    # stationary distribution, is at least lo > 0, so its exact ratio
    # exceeds w.  Cold, at w = 0, halfway to the optimum and just above it,
    # where no policy beats w and so no step may end early.
    params = ProtocolParams(alpha=alpha, gamma=0.5, split_ratio=0.4)
    table = build_transitions(params, truncation=20)
    weights = RewardWeights.from_regime(regime)
    n = len(table.states)
    revenue = solve(table, weights).revenue
    r_self, r_total = table.expected_rewards(weights)
    early = 0
    for w in (0.0, revenue / 2, revenue + 1e-6):
        reward = np.where(table.available, r_self - w * r_total, -np.inf)
        lo, hi, converged, _, rows, _, _ = mdp._gain(table, reward, np.zeros(n))
        if converged:
            continue
        early += 1
        assert mdp._EPS_INNER < lo <= hi
        policy = rows // n
        assert policy_value(table, weights, policy) > w
        pi = stationary_distribution(table, policy)
        assert pi @ (r_self[rows] - w * r_total[rows]) >= lo - 1e-12
    # Every case here ends early; a grid that never did would test nothing.
    assert early


@pytest.mark.parametrize("start", ["neighbour", "far"])
@pytest.mark.parametrize("alpha, gamma, r, regime", CERTIFIED_GRID)
def test_warm_started_solve_is_certified_optimal(alpha, gamma, r, regime, start):
    # A start from a neighbouring grid point in the same regime (r - 0.1 on
    # the r-grid points, alpha - 0.05 elsewhere) or from far away
    # (alpha = 0.1) must end at the optimum, with revenue the exact value
    # of the returned policy.  1e-11 is ten times the largest gap between
    # a cold solve's revenue and policy_value on this grid (1.04e-12, alpha
    # = 0.45 fee): the evaluation stops on its L1 step change, not its error.
    if start == "far":
        origin = (0.1, r)
    else:
        origin = (alpha, r - 0.1) if alpha == 0.2321 else (alpha - 0.05, r)
    weights = RewardWeights.from_regime(regime)
    first = ProtocolParams(alpha=origin[0], gamma=gamma, split_ratio=origin[1])
    earlier = solve(build_transitions(first, truncation=20), weights)
    params = ProtocolParams(alpha=alpha, gamma=gamma, split_ratio=r)
    table = build_transitions(params, truncation=20)
    result = solve(table, weights, earlier)
    r_self, r_total = table.expected_rewards(weights)
    assert abs(optimal_gain(table, r_self - result.revenue * r_total)) <= mdp._EPS_INNER
    assert abs(result.revenue - policy_value(table, weights, result.policy)) < 1e-11
    assert closed_classes(table, result.policy) == 1
    assert result.params == params
    assert not (result.bias.flags.writeable or result.distribution.flags.writeable)


def test_start_from_another_truncation_is_rejected():
    weights = RewardWeights.from_regime("fee")
    start = solve(build_transitions(PARAMS, truncation=8), weights)
    with pytest.raises(ValueError, match="L=8.*L=20"):
        solve(build_transitions(PARAMS, truncation=20), weights, start)


@pytest.mark.parametrize("regime", ["fee", "key"])
@pytest.mark.parametrize("gamma", [0.0, 1.0])
@pytest.mark.parametrize("alpha", [0.1, 0.2321, 0.4])
def test_returned_policy_is_unichain(alpha, gamma, regime):
    # The policy sweeps iterate the greedy policy's chain, and revenue is the
    # ratio from its one stationary distribution: both need a single closed
    # class reachable from the start state.
    params = ProtocolParams(alpha=alpha, gamma=gamma, split_ratio=0.4)
    table = build_transitions(params, truncation=20)
    result = solve(table, RewardWeights.from_regime(regime))
    assert closed_classes(table, result.policy) == 1


@pytest.mark.parametrize(
    "edges, start, cycle",
    [
        ([(0, 1), (1, 0)], 0, [0, 1]),
        ([(0, 1), (1, 2), (2, 0)], 0, [0, 1, 2]),
        ([(0, 1), (1, 2), (2, 1)], 0, [1, 2]),  # a transient state, then a 2-cycle
    ],
)
def test_stationary_of_periodic_chain_is_uniform_on_its_cycle(edges, start, cycle):
    # Plain power iteration on a periodic chain oscillates for ever; the
    # damped step alone must make it converge, to the uniform distribution.
    n = len(edges)
    rows, cols = zip(*edges)
    chain = sparse.csr_matrix((np.ones(n), (rows, cols)), shape=(n, n))
    x = np.zeros(n)
    x[start] = 1.0
    pi, iterations = mdp._stationary(chain, x)
    expected = np.zeros(n)
    expected[cycle] = 1.0 / len(cycle)
    assert np.abs(pi - expected).max() < 1e-12
    assert iterations < mdp._MAX_EVAL


def _chain(n, entries):
    rows, cols, probabilities = zip(*entries)
    chain = sparse.csr_matrix((probabilities, (rows, cols)), shape=(n, n))
    assert chain.nnz == len(entries)  # zero probabilities stay stored
    return chain


@pytest.mark.parametrize(
    "n, entries, support, unreached",
    [
        # 3 and 4 form a closed class that 0 never reaches; 5 leads into it.
        (
            6,
            [(0, 1, 0.6), (0, 2, 0.4), (1, 0, 0.5), (1, 2, 0.5), (2, 0, 1.0),
             (3, 3, 0.7), (3, 4, 0.3), (4, 3, 1.0), (5, 3, 1.0)],
            [0],
            [3, 4, 5],
        ),
        # A transient tail 0 -> 1 -> 2 into the class {3, 4}; 5 leads into the
        # tail but is never reached.  The tail's mass decays into subnormals.
        (
            6,
            [(0, 1, 1.0), (1, 0, 0.1), (1, 2, 0.9), (2, 3, 1.0), (3, 3, 0.75),
             (3, 4, 0.25), (4, 3, 1.0), (5, 0, 1.0)],
            [0],
            [5],
        ),
        # A stored zero-probability entry 0 -> 2 counts as an edge: {2, 3} is
        # iterated and keeps exactly zero mass.  4 is never reached.
        (
            5,
            [(0, 1, 1.0), (0, 2, 0.0), (1, 0, 0.6), (1, 1, 0.4), (2, 3, 1.0),
             (3, 2, 0.5), (3, 3, 0.5), (4, 0, 1.0)],
            [0],
            [4],
        ),
        # Mass on two states of two closed classes stays split between them.
        (
            6,
            [(0, 1, 0.6), (0, 2, 0.4), (1, 0, 0.5), (1, 2, 0.5), (2, 0, 1.0),
             (3, 3, 0.7), (3, 4, 0.3), (4, 3, 1.0), (5, 3, 1.0)],
            [0, 4],
            [5],
        ),
    ],
)
def test_stationary_on_the_reached_states_matches_the_whole_chain(n, entries, support, unreached):
    # The iteration runs on the states reachable from x only; every iterate
    # must be the whole chain's, bit for bit, with zeros elsewhere.
    chain = _chain(n, entries)
    x = np.zeros(n)
    x[support] = 1.0 / len(support)
    pi, iterations = mdp._stationary(chain, x)
    expected, expected_iterations = damped_stationary(chain, x, mdp._DAMPING, mdp._EPS_EVAL)
    assert np.array_equal(pi, expected) and iterations == expected_iterations
    assert not pi[unreached].any()
    assert x[support].sum() == 1.0  # the start is not overwritten


@pytest.mark.parametrize("regime", ["fee", "key"])
def test_stationary_of_a_returned_policy_matches_the_whole_chain(regime):
    # At gamma = 0 the chain stores zero-probability match outcomes.
    params = ProtocolParams(alpha=0.4, gamma=0.0, split_ratio=0.4)
    table = build_transitions(params, truncation=20)
    result = solve(table, RewardWeights.from_regime(regime))
    n = len(table.states)
    chain = table.transition[result.policy * n + np.arange(n)]
    x = np.zeros(n)
    x[0] = 1.0
    pi, iterations = mdp._stationary(chain, x)
    expected, expected_iterations = damped_stationary(chain, x, mdp._DAMPING, mdp._EPS_EVAL)
    assert np.array_equal(pi, expected) and iterations == expected_iterations
    assert 0 < np.count_nonzero(pi) < n


def test_boundary_mass_falls_as_truncation_grows():
    # The returned policy's stationary mass on l_a == L or l_h == L says
    # whether L was large enough; at alpha = 0.4 it must fall with L.
    params = ProtocolParams(alpha=0.4, gamma=0.5, split_ratio=0.4)
    results = [
        solve(build_transitions(params, L), RewardWeights.from_regime("fee")) for L in (8, 12, 20)
    ]
    masses = [result.boundary_mass for result in results]
    assert 0.0 < masses[2] < masses[1] < masses[0] < 1.0
    for result in results:
        assert result.rvi_sweeps >= result.outer_iterations
        assert result.eval_iterations >= result.outer_iterations
