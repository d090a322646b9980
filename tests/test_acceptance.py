"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion; pytest -v gives one
pass/fail line per criterion.  Stated runtime budgets are asserted.
"""
import math
import time

import numpy as np
import pytest

from ng_incentives import closedform as cf
from ng_incentives import concentration as cc
from ng_incentives import feescan as fs
from ng_incentives.cli import main as cli_main
from ng_incentives.mdp import (
    Fork,
    LastMicro,
    MdpAction,
    solve,
)
from ng_incentives.model import ProtocolParams, RewardWeights
from ng_incentives.simulator import (
    Extension,
    Inclusion,
    MdpPolicy,
    SimConfig,
    run,
)

import json
from pathlib import Path

from oracles import MdpState, RewardTuple, build_transitions

FIXTURE = Path(__file__).parent / "data" / "fees_fixture.csv"
REGIMES = ("fee", "equal", "key")


def _solve_revenue(alpha, r, regime, gamma=0.5, L=20):
    params = ProtocolParams(alpha=alpha, gamma=gamma, split_ratio=r)
    table = build_transitions(params, L)
    return solve(table, RewardWeights.from_regime(regime)).revenue


def test_criterion_01_whale_interval_via_cli(capsys):
    start = time.monotonic()
    code = cli_main(["bounds", "--alpha", "0.25", "--class", "whale"])
    out = capsys.readouterr().out
    assert code == 0
    (row,) = json.loads(out)["payload"]
    assert round(row["feasible_lower"], 4) == 0.3684
    assert round(row["feasible_upper"], 4) == 0.4286
    assert row["feasible_lower"] < 0.4 < row["feasible_upper"]
    assert not row["empty"]
    assert time.monotonic() - start < 1.0


def test_criterion_02_whale_infeasibility_root():
    start = time.monotonic()
    lo, hi = 0.25, 0.35
    assert not cf.feasible_interval(lo, "whale").empty
    assert cf.feasible_interval(hi, "whale").empty
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if cf.feasible_interval(mid, "whale").empty:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert abs(root - (1.0 - math.sqrt(2.0) / 2.0)) < 1e-6
    assert time.monotonic() - start < 1.0


def test_criterion_03_closed_form_vs_simulator():
    start = time.monotonic()
    m = 1_000_000
    seed = 0
    for alpha in (0.1, 0.2, 0.3):
        for r in (0.2, 0.4, 0.8):
            params = ProtocolParams(alpha=alpha, split_ratio=r)
            for rho in (0.0, 0.5, 1.0):
                for strategy, formula in (
                    (Inclusion(rho), cf.inclusion_attack_revenue),
                    (Extension(rho), cf.extension_attack_revenue),
                ):
                    seed += 1
                    rep = run(SimConfig(params, strategy, m, seed=seed))
                    expected = formula(alpha, r, rho)
                    tol = max(0.005, 4.0 * rep.std_error)
                    assert abs(rep.relative_revenue - expected) < tol, (
                        alpha, r, rho, strategy, rep.relative_revenue, expected
                    )
    assert time.monotonic() - start < 120.0


def test_criterion_04_mirror_symmetry():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        alpha = rng.uniform(0.001, 0.999)
        r = rng.uniform(0.0, 1.0)
        rho = rng.uniform(0.0, 1.0)
        lhs = cf.extension_attack_revenue(alpha, r, rho)
        rhs = cf.inclusion_attack_revenue(alpha, 1.0 - r, rho)
        assert abs(lhs - rhs) <= 1e-12


def test_criterion_05_incentive_compatible_interval():
    rng = np.random.default_rng(5678)
    count = 0
    while count < 500:
        alpha = rng.uniform(0.01, 0.45)
        beta = 1.0 - alpha
        if beta - alpha < 1e-6:
            continue
        r = rng.uniform(np.nextafter(alpha, 1.0), np.nextafter(beta, 0.0))
        if not alpha < r < beta:
            continue
        count += 1
        assert cf.optimal_inclusion_revenue(alpha, r) == (alpha, 0.0)
        assert cf.optimal_extension_revenue(alpha, r) == (alpha, 0.0)


def test_criterion_06_selfish_mining_threshold():
    start = time.monotonic()
    threshold_gap = 1e-3
    for regime in REGIMES:
        for alpha in (0.10, 0.15, 0.20, 0.22):
            rev = _solve_revenue(alpha, 0.4, regime)
            assert abs(rev - alpha) <= threshold_gap, (regime, alpha, rev)
        for alpha in (0.25, 0.30, 0.45):
            rev = _solve_revenue(alpha, 0.4, regime)
            assert rev - alpha > threshold_gap, (regime, alpha, rev)
        # locate where profitability crosses the 1e-3 margin
        lo, hi = 0.22, 0.25
        while hi - lo > 5e-4:
            mid = 0.5 * (lo + hi)
            if _solve_revenue(mid, 0.4, regime) - mid > threshold_gap:
                hi = mid
            else:
                lo = mid
        crossing = 0.5 * (lo + hi)
        assert 0.2271 <= crossing <= 0.2371, (regime, crossing)
    assert time.monotonic() - start < 600.0


def test_criterion_07_split_ratio_plateau():
    start = time.monotonic()
    alpha = 0.2321
    grid = [round(0.02 * k, 2) for k in range(51)]
    for regime in ("fee", "equal"):
        at_fair_share = {}
        for r in grid:
            rev = _solve_revenue(alpha, r, regime)
            at_fair_share[r] = abs(rev - alpha) <= 1e-3
        expected = {r: 0.2321 < r < 0.7679 for r in grid}
        assert at_fair_share == expected, (
            regime,
            {r: v for r, v in at_fair_share.items() if v != expected[r]},
        )
    assert time.monotonic() - start < 900.0


def test_criterion_08_regime_ordering_at_high_alpha():
    slack = 5e-5  # solver tolerance
    for alpha in (0.35, 0.40, 0.45):
        fee = _solve_revenue(alpha, 0.4, "fee")
        equal = _solve_revenue(alpha, 0.4, "equal")
        key = _solve_revenue(alpha, 0.4, "key")
        assert fee >= equal - slack >= key - 2 * slack, (alpha, fee, equal, key)
        if alpha == 0.45:
            assert fee - key > 1e-3


def test_criterion_09_policy_rollout_matches_solver():
    start = time.monotonic()
    for alpha in (0.3, 0.4):
        params = ProtocolParams(alpha=alpha, gamma=0.5, split_ratio=0.4)
        table = build_transitions(params, 20)
        for regime in ("fee", "key"):
            result = solve(table, RewardWeights.from_regime(regime))
            rep = run(SimConfig(params, MdpPolicy(result), 1_000_000, seed=17))
            assert abs(rep.relative_revenue - result.revenue) < 0.005, (
                alpha, regime, rep.relative_revenue, result.revenue
            )
    assert time.monotonic() - start < 300.0


def test_criterion_10_transition_row_groups():
    alpha, gamma, r = 0.3, 0.5, 0.4
    params = ProtocolParams(alpha=alpha, gamma=gamma, split_ratio=r)
    table = build_transitions(params, truncation=8)

    for state, action, outs in table.items():
        assert math.isclose(
            sum(o.probability for o in outs), 1.0, rel_tol=0.0, abs_tol=1e-12
        ), (state, action)

    la, lh = 5, 3
    NT, T, TP = Fork.NO_TIE, Fork.TIE, Fork.TIE_PRIME
    HI, HE, SP, SH = LastMicro.H_IN, LastMicro.H_EX, LastMicro.S_P, LastMicro.S_H
    a, g = alpha, gamma
    zero = RewardTuple(0, 0, 0, 0)

    def adopt_rows(reward, landing):
        return [
            (MdpState(1, 0, NT, landing), a, reward),
            (MdpState(0, 1, NT, landing), 1 - a, reward),
        ]

    def override_rows(reward, landing):
        return [
            (MdpState(la - lh, 0, NT, landing), a, reward),
            (MdpState(la - lh - 1, 1, NT, landing), 1 - a, reward),
        ]

    def race_rows(success, tie_kind, landing, last):
        return [
            (MdpState(la + 1, lh, tie_kind, last), a, zero),
            (MdpState(la - lh, 1, NT, landing), g * (1 - a), success),
            (MdpState(la, lh + 1, NT, last), (1 - g) * (1 - a), zero),
        ]

    # 13 symbolic row groups: 3 adopt, 3 override, 1 wait, 3 race, 3 revert.
    groups = [
        # adopt: selfish-published / selfish-hidden / honest ancestor
        ((la, lh, NT, SP), MdpAction.ADOPT,
         adopt_rows(RewardTuple(lh, lh - 1 + (1 - r), 0, r), HI)),
        ((la, lh, NT, SH), MdpAction.ADOPT,
         adopt_rows(RewardTuple(lh, lh - 1, 0, 0), HI)),
        ((la, lh, NT, HI), MdpAction.ADOPT,
         adopt_rows(RewardTuple(lh, lh, 0, 0), HI)),
        # override: included / excluded honest ancestor, selfish ancestor
        ((la, lh, NT, HI), MdpAction.OVERRIDE,
         override_rows(RewardTuple(0, r, lh + 1, lh + (1 - r)), SP)),
        ((la, lh, NT, HE), MdpAction.OVERRIDE,
         override_rows(RewardTuple(0, 0, lh + 1, lh), SP)),
        ((la, lh, NT, SP), MdpAction.OVERRIDE,
         override_rows(RewardTuple(0, 0, lh + 1, lh + 1), SP)),
        # wait without a tie
        ((la, lh, NT, HI), MdpAction.WAIT, [
            (MdpState(la + 1, lh, NT, HI), a, zero),
            (MdpState(la, lh + 1, NT, HI), 1 - a, zero),
        ]),
        # tie races: included / excluded honest ancestor, selfish ancestor
        ((la, lh, NT, HI), MdpAction.MATCH,
         race_rows(RewardTuple(0, r, lh, lh - 1 + (1 - r)), T, SP, HI)),
        ((la, lh, TP, HE), MdpAction.WAIT,
         race_rows(RewardTuple(0, 0, lh, lh - 1), TP, SH, HE)),
        ((la, lh, T, SP), MdpAction.WAIT,
         race_rows(RewardTuple(0, 0, lh, lh), T, SP, SP)),
        # reverts
        ((la, lh, TP, HI), MdpAction.REVERT,
         [(MdpState(la, lh, T, HI), 1.0, zero)]),
        ((2, 0, NT, SH), MdpAction.REVERT,
         [(MdpState(2, 0, NT, SP), 1.0, zero)]),
        ((0, 2, NT, HE), MdpAction.REVERT,
         [(MdpState(0, 2, NT, HI), 1.0, zero)]),
    ]
    assert len(groups) == 13
    for state, action, expected in groups:
        outs = table.outcomes(MdpState(*state), action)
        actual = [(o.next_state, o.probability, tuple(o.reward)) for o in outs]
        expected = [(s, p, tuple(float(x) for x in rw)) for s, p, rw in expected]
        assert actual == [
            (s, pytest.approx(p, abs=1e-15), pytest.approx(rw)) for s, p, rw in expected
        ], (state, action)


def test_criterion_11_pair_concentration_bound():
    start = time.monotonic()
    trials = 10_000
    seed = 99
    for alpha in (0.1, 0.3, 0.5):
        for delta in (0.1, 0.3):
            for m in (1_000, 10_000):
                seed += 1
                summary = cc.empirical_pair_summary(alpha, m, delta, trials, seed)
                bound = cc.pair_deviation_bound(alpha, m, delta)
                emp = summary.deviation_fraction
                se = math.sqrt(max(emp * (1 - emp), 0.0) / trials)
                assert emp <= bound + 3 * se, (alpha, delta, m, emp, bound)
    assert time.monotonic() - start < 120.0


def test_criterion_12_fee_distribution_fixture():
    records = fs.load_fees(FIXTURE)
    dist = fs.distribution(records, [1e-5, 1e-4, 5e-4, 1e-3])
    assert dist.cdf_at(0.0001) == 0.778
    assert dist.cdf_at(0.0005) == 0.985
