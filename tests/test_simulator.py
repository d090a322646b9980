import dataclasses
import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ng_incentives import closedform as cf
from ng_incentives import simulator
from ng_incentives.mdp import (
    ACTION_ORDER,
    Fork,
    LastMicro,
    MdpAction,
    SolveResult,
    enumerate_states,
    solve,
)
from ng_incentives.model import REGIMES, ParameterError, ProtocolParams, RewardWeights
from ng_incentives.simulator import (
    Extension,
    Honest,
    Inclusion,
    MdpPolicy,
    SimConfig,
    _BATCHES,
    _ROW,
    _SLICE,
    _WORDS,
    _compile,
    _scan,
    _word_table,
    run,
)

from oracles import (
    build_transitions,
    interval_exponential_reference,
    interval_reference,
    pair_moments,
    per_bit_segment_stats,
    policy_of,
    policy_value,
    sm1_action,
    sm1_revenue,
)


def _config(strategy, alpha=0.3, r=0.4, m=200_000, seed=11, **kwargs):
    params = ProtocolParams(alpha=alpha, split_ratio=r)
    return SimConfig(params, strategy, m, seed, **kwargs)


def test_determinism_same_seed_same_report():
    a = run(_config(Inclusion(0.7), seed=3))
    b = run(_config(Inclusion(0.7), seed=3))
    assert a == b
    c = run(_config(Inclusion(0.7), seed=4))
    assert c.relative_revenue != a.relative_revenue


def test_honest_matches_fair_share():
    rep = run(_config(Honest(), alpha=0.2, m=500_000))
    assert rep.relative_revenue == pytest.approx(0.2, abs=4 * rep.std_error + 0.002)
    assert rep.orphaned_fee_units == 0.0


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
def test_inclusion_converges_to_formula(rho):
    alpha, r = 0.3, 0.2
    rep = run(_config(Inclusion(rho), alpha=alpha, r=r, m=500_000))
    expected = cf.inclusion_attack_revenue(alpha, r, rho)
    assert rep.relative_revenue == pytest.approx(
        expected, abs=max(0.004, 4 * rep.std_error)
    )


@pytest.mark.parametrize("rho", [0.5, 1.0])
def test_extension_converges_to_formula(rho):
    alpha, r = 0.25, 0.8
    rep = run(_config(Extension(rho), alpha=alpha, r=r, m=500_000))
    expected = cf.extension_attack_revenue(alpha, r, rho)
    assert rep.relative_revenue == pytest.approx(
        expected, abs=max(0.004, 4 * rep.std_error)
    )


def test_fee_conservation():
    rep = run(_config(Extension(0.6), m=100_000))
    # every interval's fee mass ends up kept (split) or orphaned
    total = rep.selfish_fees + rep.honest_fees + rep.orphaned_fee_units
    expected_intervals = rep.keyblocks - 1
    # fee mass is measured in units whose mean is one per interval
    assert total == pytest.approx(expected_intervals, rel=0.02)
    assert rep.orphaned_fee_units > 0


def test_config_validation():
    with pytest.raises(ParameterError, match="rho out of"):
        Inclusion(1.5)
    with pytest.raises(ParameterError, match="rho out of"):
        Extension(1.5)
    with pytest.raises(ParameterError, match="horizon_keyblocks"):
        _config(Honest(), m=1)
    for seed in (-1, 1.5):
        with pytest.raises(ParameterError, match="seed must be"):
            _config(Honest(), seed=seed)


def test_pair_counts_reported():
    rep = run(_config(Honest(), m=50_000))
    assert rep.keyblocks == 50_000
    expected = 0.3 * 0.7 * (50_000 - 1)
    assert rep.pairs_z == pytest.approx(expected, rel=0.05)
    assert abs(rep.pairs_z - rep.pairs_k) <= 1


def test_revenue_is_scalarized_ratio():
    rep = run(_config(Inclusion(1.0), m=100_000))
    # fee-only weights by default for analytic strategies
    assert rep.relative_revenue == pytest.approx(
        rep.selfish_fees / (rep.selfish_fees + rep.honest_fees), abs=1e-12
    )


_S = _SLICE


# Each id names the interval model, Exp(1) lengths, next to m.
@pytest.mark.parametrize(
    "m", [2, 3, 1023, 1024, 1025, _S - 1, _S, _S + 1, _S + 2, 200_000],
    ids=lambda m: f"{m}-exponential",
)
def test_interval_report_matches_per_interval_reference(m, monkeypatch):
    # The per-batch, per-category sums from each batch's segment statistics
    # against full-length arrays of the same bits: the simulator's
    # segment_stats is the per-bit stand-in, which counts each batch's
    # statistics from the bits the reference reads.  m around 1024 and
    # _S + 1 (batches of 1, 2 or 64 intervals, dividing m - 1 or not)
    # catches an off-by-one at a batch edge or in a batch's carry.
    # Summation order differs, so float fields get a tolerance; std_error is
    # exactly 0 in some configurations.
    monkeypatch.setattr(simulator, "segment_stats", per_bit_segment_stats)
    strategies = [Honest(), Inclusion(0.5), Inclusion(1.0), Extension(0.5), Extension(1.0)]
    weights = [None, RewardWeights.from_regime("equal"), RewardWeights.from_regime("key")]
    grid = itertools.product(strategies, weights, [0.0, 0.3, 1.0], [0.0, 0.4, 1.0])
    for strategy, w, alpha, r in grid:
        params = ProtocolParams(alpha=alpha, split_ratio=r)
        config = SimConfig(params, strategy, m, 5, w)
        got = dataclasses.asdict(run(config))
        want = dataclasses.asdict(interval_reference(config))
        assert got.keys() == want.keys()
        for name, value in want.items():
            if isinstance(value, int):
                assert got[name] == value, (config, name)
            elif name == "std_error":
                assert math.isclose(got[name], value, rel_tol=1e-9, abs_tol=1e-15), config
            else:
                assert math.isclose(got[name], value, rel_tol=1e-12), (config, name)


@pytest.mark.parametrize("strategy", [Inclusion(0.5), Extension(1.0)])
def test_gamma_cell_fees_match_per_interval_exponential_model(strategy):
    # The simulator draws each cell's fee sum as one Gamma(n, 1); the plain
    # model draws one Exp(1) fee mass per interval.  The laws are equal, so
    # over disjoint seed sets the means agree within 4 two-sample standard
    # errors, and so does the spread of the revenue (normal approximation).
    n, fields = 400, ["relative_revenue", "selfish_fees", "orphaned_fee_units"]

    def sample(simulate, seeds):
        reports = [simulate(_config(strategy, m=20_000, seed=seed)) for seed in seeds]
        return np.array([[getattr(rep, name) for name in fields] for rep in reports])

    got = sample(run, range(n))
    want = sample(interval_exponential_reference, range(n, 2 * n))
    se = np.sqrt((got.var(axis=0, ddof=1) + want.var(axis=0, ddof=1)) / n)
    gap = np.abs(got.mean(axis=0) - want.mean(axis=0))
    assert (gap < 4 * se).all(), dict(zip(fields, gap / se))
    spread = got[:, 0].std(ddof=1), want[:, 0].std(ddof=1)
    spread_se = math.hypot(*spread) / math.sqrt(2 * (n - 1))
    assert abs(spread[0] - spread[1]) < 4 * spread_se, spread


def test_interval_std_error_is_calibrated():
    # At 0 < r < 1 both shares of a key block's neighbouring intervals go to
    # its miner, so adjacent intervals covary; an estimator that treats
    # intervals as independent reads about 1.2 here.
    reports = [run(_config(Honest(), r=0.5, m=20_000, seed=seed)) for seed in range(400)]
    spread = np.std([rep.relative_revenue for rep in reports], ddof=1)
    assert abs(spread / np.mean([rep.std_error for rep in reports]) - 1) < 0.1


def test_interval_pair_count_has_exact_moments():
    """Over 200 seeds, pairs_z has mean within 4 standard errors of E[Z] =
    alpha * beta * (m - 2) and sample variance within 4 standard errors
    (normal approximation, Var Z * sqrt(2 / (n - 1))) of the exact Var Z
    (oracles.pair_moments, which derives both)."""
    alpha, m, n = 0.3, 2_000, 200
    z = np.array([run(_config(Honest(), alpha=alpha, m=m, seed=s)).pairs_z for s in range(n)])
    mean, var = pair_moments(alpha, m)
    assert abs(z.mean() - mean) < 4 * math.sqrt(var / n)
    assert abs(z.var(ddof=1) - var) < 4 * var * math.sqrt(2 / (n - 1))


@pytest.mark.parametrize("m", [2, 3, _S, _S + 1])
def test_interval_ownership_at_alpha_0_and_1(m):
    # Block 0 is honest; at alpha = 1 every other block is selfish, at
    # alpha = 0 none is.
    every = run(_config(Honest(), alpha=1.0, m=m))
    assert (every.pairs_k, every.pairs_z, every.selfish_key_rewards) == (1, 0, m - 1)
    none = run(_config(Honest(), alpha=0.0, m=m))
    assert (none.pairs_k, none.pairs_z, none.selfish_key_rewards) == (0, 0, 0)


def test_interval_memory_is_bounded():
    # One slice of draws and the cell sums, whatever the number of key blocks.
    for m in (4_000_000, 40_000_000):
        config = _config(Inclusion(0.5), alpha=0.5, m=m)
        tracemalloc.start()
        try:
            run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


@pytest.fixture(scope="module")
def solved():
    params = ProtocolParams(alpha=0.35, gamma=0.5, split_ratio=0.4)
    table = build_transitions(params, truncation=12)
    return params, solve(table, RewardWeights.from_regime("fee"))


def test_horizon_is_bounded(solved):
    # Neither simulator holds O(m) memory, so only this bound stops a run
    # that would take years: 10**15 key blocks at 0.1 us each.
    params, result = solved
    for strategy in (Honest(), MdpPolicy(result)):
        with pytest.raises(ParameterError, match="horizon_keyblocks"):
            SimConfig(params, strategy, 10**15, seed=0)
        SimConfig(params, strategy, 10**10, seed=0)


def test_policy_rollout_tracks_solver(solved):
    params, result = solved
    config = SimConfig(params, MdpPolicy(result), 400_000, seed=9)
    rep = run(config)
    assert rep.relative_revenue == pytest.approx(
        result.revenue, abs=max(0.006, 4 * rep.std_error)
    )
    assert rep.relative_revenue > params.alpha  # profitable above threshold


@pytest.mark.parametrize("regime", REGIMES)
def test_reported_revenue_is_the_ratio_of_reported_rewards(regime):
    # Both simulators: the key-reward and fee fields of a report are the
    # ledger its relative_revenue is the weighted selfish share of.
    weights = RewardWeights.from_regime(regime)
    kw, fw = weights.key_weight, weights.fee_weight
    params = ProtocolParams(alpha=0.35, gamma=0.5, split_ratio=0.4)
    policy = MdpPolicy(solve(build_transitions(params, truncation=12), weights))
    for strategy in (Honest(), Inclusion(0.5), Extension(0.5), policy):
        for m in (2, 10, 100_000):
            rep = run(SimConfig(params, strategy, m, seed=3, weights=weights))
            selfish = kw * rep.selfish_key_rewards + fw * rep.selfish_fees
            total = (
                kw * (rep.selfish_key_rewards + rep.honest_key_rewards)
                + fw * (rep.selfish_fees + rep.honest_fees)
            )
            revenue = selfish / total if total > 0 else 0.0
            assert abs(rep.relative_revenue - revenue) <= 1e-12, (strategy, m)


def test_policy_rollout_std_error_is_calibrated():
    # The spread of the rollout over seeds against its mean reported se.
    params = ProtocolParams(alpha=0.3, gamma=0.5, split_ratio=0.4)
    result = solve(build_transitions(params, truncation=12), RewardWeights.from_regime("fee"))
    reports = [run(SimConfig(params, MdpPolicy(result), 100_000, seed)) for seed in range(60)]
    spread = np.std([rep.relative_revenue for rep in reports], ddof=1)
    assert 0.75 <= spread / np.mean([rep.std_error for rep in reports]) <= 1.3


def test_policy_rollout_deterministic(solved):
    params, result = solved
    config = SimConfig(params, MdpPolicy(result), 50_000, seed=21)
    assert run(config) == run(config)


def test_policy_rollout_uses_policy_weights_by_default(solved):
    params, result = solved
    config = SimConfig(params, MdpPolicy(result), 10_000, seed=2)
    assert config.effective_weights() == result.weights
    fee_only = dataclasses.replace(config, weights=RewardWeights.from_regime("fee"))
    assert fee_only.effective_weights() == RewardWeights.from_regime("fee")


def test_policy_rollout_rejects_other_params(solved):
    params, result = solved
    other = dataclasses.replace(params, split_ratio=0.5)
    with pytest.raises(ValueError, match="solved for"):
        run(SimConfig(other, MdpPolicy(result), 10_000, seed=1))


def _honest_policy(truncation: int) -> np.ndarray:
    """The policy that publishes any lead at once and adopts any public
    block."""
    l_a, l_h = enumerate_states(truncation)[:, :2].T
    override, adopt, wait = (
        ACTION_ORDER.index(a) for a in (MdpAction.OVERRIDE, MdpAction.ADOPT, MdpAction.WAIT)
    )
    return np.select([l_a > l_h, l_h > 0], [override, adopt], wait)


def _hand_built(
    policy: np.ndarray,
    params: ProtocolParams,
    truncation: int,
    weights=RewardWeights.from_regime("key"),
) -> SolveResult:
    return SolveResult(
        revenue=params.alpha,
        policy=policy,
        outer_iterations=0,
        truncation=truncation,
        weights=weights,
        params=params,
        rvi_sweeps=0,
        eval_iterations=0,
        boundary_mass=0.0,
        # The cold solve's seeds: zero bias, all mass on the start state.
        bias=np.zeros(len(policy)),
        distribution=np.eye(1, len(policy)).ravel(),
    )


def test_hand_built_honest_policy_earns_fair_share():
    params = ProtocolParams(alpha=0.3)
    result = _hand_built(_honest_policy(3), params, 3)
    rep = run(SimConfig(params, MdpPolicy(result), 100_000, seed=4))
    assert rep.relative_revenue == pytest.approx(0.3, abs=4 * rep.std_error)
    assert rep.orphaned_fee_units == 0.0 and rep.boundary_visits == 0


def test_policy_rollout_memory_is_bounded():
    # The policy's tables plus one slice of draws, codes and entries,
    # whatever the number of key blocks.
    params = ProtocolParams(alpha=0.4)
    result = _hand_built(_honest_policy(20), params, 20)
    config = SimConfig(params, MdpPolicy(result), 1_000_000, seed=4)
    tracemalloc.start()
    try:
        run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


def _state(l_a, l_h, fork=Fork.NO_TIE, last=LastMicro.H_IN):
    return (l_a, l_h, fork, last)


def _case(number: int, state, action, message: str):
    # A fixed number keeps a case's id when other cases leave the list.
    return pytest.param(state, action, message, id=f"state{number}-{action}-{message}")


@pytest.mark.parametrize(
    "state, action, message",
    [
        _case(
            0, _state(2, 1), MdpAction.REVERT, "revert has no target in state (2, 1, NO_TIE, H_IN)"
        ),
        _case(
            1, _state(1, 1), MdpAction.OVERRIDE, "negative chain length in state (1, 1, NO_TIE, H_IN)"
        ),
        _case(
            2, _state(2, 0), MdpAction.ADOPT, "negative chain length in state (2, 0, NO_TIE, H_IN)"
        ),
        _case(
            3, _state(0, 2), MdpAction.MATCH, "negative chain length in state (0, 2, NO_TIE, H_IN)"
        ),
        _case(
            4,
            _state(3, 1),
            MdpAction.WAIT,
            "wait in state (3, 1, NO_TIE, H_IN) leads to (4, 1, NO_TIE, H_IN)",
        ),
        _case(
            8,
            {
                _state(2, 1, Fork.TIE_PRIME): MdpAction.REVERT,
                _state(2, 1, Fork.TIE): MdpAction.REVERT,
            },
            None,
            "revert has no target in state (2, 1, TIE, H_IN)",
        ),
        _case(9, _state(1, 0), 8, "unknown action index 8 in state (1, 0, NO_TIE, H_IN)"),
        _case(
            10,
            _state(2, 1, last=LastMicro.S_H),
            MdpAction.REVERT,
            "revert has no target in state (2, 1, NO_TIE, S_H)",
        ),
        _case(12, _state(1, 0), -1, "unknown action index -1 in state (1, 0, NO_TIE, H_IN)"),
    ],
)
def test_policy_rollout_rejects_inapplicable_action(state, action, message):
    # Every state is checked, reachable or not.  state is one state set to
    # action, an MdpAction or an ACTION_ORDER index, or a dict of such edits.
    states, policy = enumerate_states(3), _honest_policy(3)
    for edited, choice in (state if isinstance(state, dict) else {state: action}).items():
        if isinstance(choice, MdpAction):
            choice = ACTION_ORDER.index(choice)
        policy[(states == edited).all(axis=1)] = choice
    params = ProtocolParams(alpha=0.3)
    config = SimConfig(params, MdpPolicy(_hand_built(policy, params, 3)), 1_000, seed=4)
    with pytest.raises(ValueError, match=re.escape(message)):
        run(config)


def test_policy_rollout_rejects_malformed_arrays():
    # One action short.
    params = ProtocolParams(alpha=0.3)
    result = _hand_built(_honest_policy(3)[1:], params, 3)
    message = "^a policy at L=3 needs one action in each of its 112 states$"
    with pytest.raises(ValueError, match=message):
        run(SimConfig(params, MdpPolicy(result), 1_000, seed=4))


@pytest.mark.parametrize("alpha", [0.2, 0.3])
def test_sm1_rollout_matches_eyal_sirer_closed_form(alpha):
    # The rollout and the closed form share no code; see test_mdp for the
    # exact value of the same policy on the solver's table.
    params = ProtocolParams(alpha=alpha, gamma=0.5, split_ratio=0.4)
    table = build_transitions(params, truncation=20)
    policy = policy_of(table, lambda s: sm1_action(table, s))
    result = _hand_built(policy, params, 20)
    rep = run(SimConfig(params, MdpPolicy(result), 400_000, seed=1))
    assert abs(rep.relative_revenue - sm1_revenue(alpha, 0.5)) < 4 * rep.std_error


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(0.05, 0.45),
    gamma=st.floats(0.0, 1.0),
    r=st.floats(0.0, 1.0),
    truncation=st.integers(2, 5),
    regime=st.sampled_from(("fee", "equal", "key")),
    policy_seed=st.none() | st.integers(0, 2**32 - 1),
    m=st.integers(2, 5_000),
    seed=st.integers(0, 2**32 - 1),
)
def test_policy_rollout_conserves_fee_units(
    alpha, gamma, r, truncation, regime, policy_seed, m, seed
):
    # Each finalized stretch of n key blocks finalizes n fee units, kept or
    # orphaned.  Policies are solved, or pick a random available action.
    params = ProtocolParams(alpha=alpha, gamma=gamma, split_ratio=r)
    table = build_transitions(params, truncation)
    weights = RewardWeights.from_regime(regime)
    if policy_seed is None:
        result = solve(table, weights)
    else:
        pick = random.Random(policy_seed).choice
        policy = policy_of(table, lambda s: pick(table.actions(s)))
        result = _hand_built(policy, params, truncation, weights)
    rep = run(SimConfig(params, MdpPolicy(result), m, seed))
    keys = rep.selfish_key_rewards + rep.honest_key_rewards
    fees = rep.selfish_fees + rep.honest_fees + rep.orphaned_fee_units
    assert fees == pytest.approx(keys, rel=1e-12, abs=0.0)
    assert keys <= m
    assert abs(rep.pairs_z - rep.pairs_k) <= 1


def _step_by_step(config: SimConfig) -> tuple:
    """Reference rollout: the compiled table walked one key block at a time,
    one draw per key block.  Returns (ledger totals, boundary visits, z, k,
    the batch-means standard error of the revenue ratio)."""
    result, p, m = config.strategy.result, config.params, config.horizon_keyblocks
    successors, deltas, entry_visits = _compile(result)
    weights = config.effective_weights()
    kw, fw = weights.key_weight, weights.fee_weight
    size = max(1, m // _BATCHES)
    batches = np.zeros((len(range(0, m, size)), 2))
    draws = np.random.default_rng(config.seed).random(m)
    # Row 0 is the start state, with entry base 0.
    ledger, visits, z, k, prev, base = np.zeros(5), 0, 0, 0, False, 0
    for t, u in enumerate(draws.tolist()):
        selfish = u < p.alpha
        code = 0 if selfish else 1 if u < p.alpha + p.gamma * (1 - p.alpha) else 2
        z, k, prev = z + (prev and not selfish), k + (selfish and not prev), selfish
        entry = base + code
        base, visits = int(successors[entry]), visits + int(entry_visits[entry])
        r_a, r_h, t_a, t_h, orphaned = deltas[entry].tolist()
        ledger += (r_a, r_h, t_a, t_h, orphaned)
        own = kw * r_a + fw * t_a
        batches[t // size] += (own, own + kw * r_h + fw * t_h)
    selfish_sums, total_sums = batches.T
    total = total_sums.sum()
    if len(batches) < 2 or total <= 0:
        return ledger, visits, z, k, 0.0
    residual = selfish_sums - selfish_sums.sum() / total * total_sums
    return ledger, visits, z, k, math.sqrt(np.sum(residual**2)) / total


_RANDOM_POLICIES = [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2)]


def _random_policy(truncation: int, policy_seed: int, m: int) -> tuple:
    """(table, config) of a rollout of a policy that picks a random
    available action in every state; it uses every action, reverts and the
    truncation boundary included."""
    params = ProtocolParams(alpha=0.35, gamma=0.3, split_ratio=0.6)
    table = build_transitions(params, truncation)
    pick = random.Random(policy_seed).choice
    policy = policy_of(table, lambda s: pick(table.actions(s)))
    weights = RewardWeights.from_regime("fee")
    result = _hand_built(policy, params, truncation, weights)
    return table, SimConfig(params, MdpPolicy(result), m, seed=5)


@pytest.mark.parametrize("truncation, policy_seed", _RANDOM_POLICIES)
def test_random_policy_rollout_matches_exact_value_and_reference(truncation, policy_seed):
    table, config = _random_policy(truncation, policy_seed, 100_000)
    result = config.strategy.result
    rep = run(config)
    # The solver's transition table gives the policy's exact value.
    exact = policy_value(table, result.weights, result.policy)
    assert abs(rep.relative_revenue - exact) < 4 * rep.std_error
    # Walking the compiled table one key block at a time gives the same ledger.
    ledger, visits, z, k, _ = _step_by_step(config)
    assert (rep.selfish_key_rewards, rep.honest_key_rewards) == tuple(ledger[:2])
    assert (rep.pairs_z, rep.pairs_k, rep.boundary_visits) == (z, k, visits)
    fees = (rep.selfish_fees, rep.honest_fees, rep.orphaned_fee_units)
    assert fees == pytest.approx(tuple(ledger[2:]), rel=1e-12, abs=0.0)


_R = 3 * _ROW  # key blocks per scan row, three to a word


@pytest.mark.parametrize(
    "m", [2, 3, 4, 127, 128, 129, _R - 1, _R, _R + 1, _SLICE + 1, _SLICE + 2]
)
@pytest.mark.parametrize("truncation, policy_seed", _RANDOM_POLICIES)
def test_policy_rollout_scan_matches_reference_at_edges(
    truncation, policy_seed, m, monkeypatch
):
    # m = 2 is the shortest run, one word with a padded code; 3 and 4 one
    # full word and a second of one code.  127 to 129 give a partial row
    # whose last word holds one, two and three codes; m around _R a row
    # short by one key block, a full row and a second row.  _SLICE + 1 and
    # _SLICE + 2 give a second slice of one and two key blocks; a slice is
    # not a whole number of words, so the first slice ends on a padded
    # word too.
    passes = []

    def counted(successors, codes, start, path):
        passes.append((_scan(successors, codes, start, path), len(codes)))
        return passes[-1][0]

    monkeypatch.setattr(simulator, "_scan", counted)
    _, config = _random_policy(truncation, policy_seed, m)
    rep = run(config)
    ledger, visits, z, k, se = _step_by_step(config)
    assert (rep.selfish_key_rewards, rep.honest_key_rewards) == tuple(ledger[:2])
    assert (rep.pairs_z, rep.pairs_k, rep.boundary_visits) == (z, k, visits)
    assert rep.keyblocks == m
    floats = (rep.selfish_fees, rep.honest_fees, rep.orphaned_fee_units, rep.std_error)
    assert floats == pytest.approx((*ledger[2:], se), rel=1e-12, abs=0.0)
    w = config.effective_weights()
    selfish = w.key_weight * ledger[0] + w.fee_weight * ledger[2]
    total = selfish + w.key_weight * ledger[1] + w.fee_weight * ledger[3]
    revenue = selfish / total if total > 0 else 0.0
    assert rep.relative_revenue == pytest.approx(revenue, rel=1e-12, abs=0.0)
    assert len(passes) == len(range(0, m, _SLICE))
    assert all(1 <= count <= rows for count, rows in passes)


def test_scan_is_exact_when_paths_never_merge():
    # A successor table that permutes the states for every code, so its
    # word table permutes them for every word: paths from different states
    # never merge, and only the pass bound ends the scan.  The scanned word
    # entries must be those of the sequential walk, one code at a time,
    # through the one-code table.
    states, rows = 7, 5
    successors = np.array(
        [3 * ((i + code + 1) % states) for i in range(states) for code in range(3)], np.int32
    )
    jumps = _word_table(successors)
    assert jumps.dtype == np.int32 and jumps.shape == (_WORDS * states,)
    words = np.random.default_rng(3).integers(0, _WORDS, (rows, _ROW), dtype=np.uint8)
    path = np.empty((rows, _ROW), np.int32)
    passes = _scan(jumps, words, _WORDS * 6, path)
    expected, s = [], 6
    for word in words.ravel().tolist():
        expected.append(_WORDS * s + word)
        for code in (word // 9, word // 3 % 3, word % 3):
            s = int(successors[3 * s + code]) // 3
    assert path.ravel().tolist() == expected
    assert 1 <= passes <= rows


def test_scan_of_a_period_two_chain_takes_one_pass():
    # Two states that swap at every key block, whatever its code: paths
    # from the two states never merge.  Every row starts an even number of
    # key blocks after row 0, so in the state row 0 starts in, the guess of
    # the first pass, and no row runs again.
    successors = np.array([3, 3, 3, 0, 0, 0], np.int32)
    rows = 9
    words = np.random.default_rng(5).integers(0, _WORDS, (rows, _ROW), dtype=np.uint8)
    path = np.empty((rows, _ROW), np.int32)
    assert _scan(_word_table(successors), words, 0, path) == 1
    state = np.arange(rows * _ROW).reshape(rows, _ROW) % 2
    assert np.array_equal(path, _WORDS * state + words)


def test_chain_rules_agree_with_solver_table():
    # The simulator's chain rules and the solver's transition table are
    # written independently; every compiled entry must give the successor
    # and rewards of its (state, action) pair in the table.  Each policy
    # takes one action wherever it is available.  Outcomes are listed
    # selfish block first; a race lists the match success before the broken
    # tie.  A revert folds into its target's entries.
    params = ProtocolParams(alpha=0.3, gamma=0.4, split_ratio=0.7)
    codes_by_count = {1: [[0, 1, 2]], 2: [[0], [1, 2]], 3: [[0], [1], [2]]}
    for truncation in (2, 4, 6):
        table = build_transitions(params, truncation)
        for preferred in MdpAction:
            def choose(s):
                return preferred if preferred in table.actions(s) else table.actions(s)[0]

            policy = policy_of(table, choose)
            result = _hand_built(policy, params, truncation)
            successors, deltas, visits = _compile(result)
            for i, state in enumerate(table.state_tuples):
                action = ACTION_ORDER[policy[i]]
                entries = slice(3 * i, 3 * i + 3)
                on_boundary = truncation in (state.l_a, state.l_h)
                if action == MdpAction.REVERT:
                    (outcome,) = table.outcomes(state, action)
                    assert tuple(outcome.reward) == (0.0, 0.0, 0.0, 0.0), state
                    j = table.state_index[outcome.next_state]
                    target = slice(3 * j, 3 * j + 3)
                    assert (successors[entries] == successors[target]).all(), state
                    assert (deltas[entries] == deltas[target]).all(), state
                    assert (visits[entries] == 2 * on_boundary).all(), state
                    continue
                assert (visits[entries] == on_boundary).all(), state
                outcomes = table.outcomes(state, action)
                for outcome, codes in zip(outcomes, codes_by_count[len(outcomes)]):
                    for code in codes:
                        e = 3 * i + code
                        target = table.state_tuples[successors[e] // 3]
                        r_a, r_h, t_a, t_h, orphaned = deltas[e].tolist()
                        assert target == outcome.next_state, (state, action, code)
                        got = (r_h, t_h, r_a, t_a)
                        assert got == pytest.approx(tuple(outcome.reward), abs=1e-12), (state, action)
                        assert r_a + r_h == pytest.approx(t_a + t_h + orphaned, abs=1e-12)
