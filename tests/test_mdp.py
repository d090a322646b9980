import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from ng_incentives import mdp
from ng_incentives.cli import main
from ng_incentives.mdp import (
    ACTION_ORDER,
    Fork,
    LastMicro,
    MdpAction,
    MdpState,
    RewardTuple,
    SolverError,
    build_transitions,
    enumerate_states,
    scalarize,
    solve,
)
from ng_incentives.model import ProtocolParams, RewardWeights

ALPHA, GAMMA, R = 0.3, 0.5, 0.4
PARAMS = ProtocolParams(alpha=ALPHA, gamma=GAMMA, split_ratio=R)


@pytest.fixture(scope="module")
def table():
    return build_transitions(PARAMS, truncation=8)


def _outs(table, l_a, l_h, fork, last, action):
    return table.outcomes(MdpState(l_a, l_h, fork, last), action)


def test_state_count_at_default_truncation():
    # 4 last_micro values; tie and tiePrime only when 1 <= l_h <= l_a.
    states = enumerate_states(20)
    no_tie = 21 * 21 * 4
    ties = 2 * 4 * sum(min(l_a, 20) for l_a in range(1, 21))
    assert len(states) == no_tie + ties == 3444


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
    with pytest.raises(ValueError):
        build_transitions(PARAMS, truncation=1)


def test_scalarize_regimes():
    reward = RewardTuple(r_h=2, t_h=3.0, r_a=1, t_a=0.5)
    assert scalarize(reward, RewardWeights.fee_dominated()) == (0.5, 3.5)
    assert scalarize(reward, RewardWeights.key_dominated()) == (1.0, 3.0)
    assert scalarize(reward, RewardWeights.equal()) == (1.5, 6.5)


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
        result = solve(table, RewardWeights.fee_dominated())
        assert result.revenue >= alpha - 1e-4
        revenues.append(result.revenue)
    assert revenues == sorted(revenues)


def test_truncation_sweep_is_stable():
    params = ProtocolParams(alpha=0.3, gamma=0.5, split_ratio=0.4)
    small = solve(build_transitions(params, 16), RewardWeights.fee_dominated())
    large = solve(build_transitions(params, 24), RewardWeights.fee_dominated())
    assert abs(small.revenue - large.revenue) < 1e-3


def test_policy_lookup_and_bounds():
    params = ProtocolParams(alpha=0.3, gamma=0.5, split_ratio=0.4)
    result = solve(build_transitions(params, 8), RewardWeights.fee_dominated())
    start = MdpState(0, 0, Fork.NO_TIE, LastMicro.H_IN)
    assert result.action(start) in ACTION_ORDER
    with pytest.raises(ValueError):
        result.action(MdpState(50, 0, Fork.NO_TIE, LastMicro.H_IN))


def test_tables_at_one_truncation_do_not_share_filled_values():
    # Tables with the same truncation share one cached skeleton; filling in a
    # second parameter point must leave the first table untouched.
    first = build_transitions(PARAMS, truncation=8)
    weights = RewardWeights.fee_dominated()
    revenue = solve(first, weights).revenue
    state = MdpState(5, 3, Fork.NO_TIE, LastMicro.H_IN)
    row = _rows(first.outcomes(state, MdpAction.MATCH))

    other = ProtocolParams(alpha=0.42, gamma=0.9, split_ratio=0.75)
    solve(build_transitions(other, truncation=8), RewardWeights.equal())

    assert _rows(first.outcomes(state, MdpAction.MATCH)) == row
    assert row[1] == (
        MdpState(2, 1, Fork.NO_TIE, LastMicro.S_P),
        GAMMA * (1 - ALPHA),
        RewardTuple(0.0, R, 3, 2 + (1 - R)),
    )
    assert solve(first, weights).revenue == revenue


def test_solver_error_carries_iteration_state(monkeypatch, capsys):
    monkeypatch.setattr(mdp, "_MAX_INNER", 1)
    params = ProtocolParams(alpha=0.3, gamma=0.5, split_ratio=0.4)
    with pytest.raises(SolverError) as info:
        solve(build_transitions(params, 4), RewardWeights.equal())
    assert info.value.iterations == 1
    assert info.value.span > 0.0
    assert "iterations=1" in str(info.value)

    monkeypatch.setenv("NG_INCENTIVES_THREADS", "1")
    assert main(["mdp", "--alpha", "0.3", "--regime", "fee", "--L", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: solver failed") and len(err.splitlines()) == 1


def _raise_solver_error(span: float) -> None:
    raise SolverError("value iteration did not converge", 1, span)


def test_solver_error_crosses_process_pool():
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        futures = [pool.submit(_raise_solver_error, s) for s in (0.25, 0.5)]
        for future, span in zip(futures, (0.25, 0.5)):
            with pytest.raises(SolverError) as info:
                future.result(timeout=60)
            assert info.value.iterations == 1
            assert info.value.span == span
            assert "iterations=1" in str(info.value)


# ------------------------------------------------- Eyal-Sirer SM1 oracle


def _sm1_action(table, state: MdpState) -> MdpAction:
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


def _policy_value(table, weights, actions: list[MdpAction]) -> float:
    """Exact long-run revenue ratio of a fixed policy, one action per state
    in table.states order, from its stationary distribution."""
    n = len(table.states)
    rows = [ACTION_ORDER.index(a) * n + i for i, a in enumerate(actions)]
    chain = table.transition[rows]
    # pi (P - I) = 0 with the first balance equation replaced by sum(pi) = 1.
    system = (chain.T - sparse.identity(n)).tolil()
    system[0, :] = 1.0
    rhs = np.zeros(n)
    rhs[0] = 1.0
    pi = spsolve(system.tocsc(), rhs)
    r_self, r_total = table.expected_rewards(weights)
    return float(pi @ r_self[rows]) / float(pi @ r_total[rows])


@pytest.mark.parametrize("alpha", [0.2, 0.3])
def test_sm1_policy_value_matches_eyal_sirer_closed_form(alpha):
    # "Majority is not Enough" (arXiv:1311.0243): SM1's relative revenue.
    # At alpha = 0.4, truncation at L = 20 cuts long selfish runs visibly.
    gamma = 0.5
    closed = (
        alpha * (1 - alpha) ** 2 * (4 * alpha + gamma * (1 - 2 * alpha)) - alpha**3
    ) / (1 - alpha * (1 + (2 - alpha) * alpha))
    params = ProtocolParams(alpha=alpha, gamma=gamma, split_ratio=0.4)
    table = build_transitions(params, truncation=20)
    weights = RewardWeights.key_dominated()
    actions = [_sm1_action(table, s) for s in table.states]
    sm1 = _policy_value(table, weights, actions)
    assert sm1 == pytest.approx(closed, abs=1e-4)
    assert solve(table, weights).revenue >= sm1
