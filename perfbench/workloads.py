"""Workload definitions: the CLI invocations each workload runs, generated
from the benchmark seed, and the oracle that checks each invocation's output.

Each repetition of mdp_r_grid and mc_oracles gets inputs of its own, drawn
from (workload, seed, repetition), so that a cache keyed on full parameters
cannot hit across repetitions of one process; policy_rollout repeats the
criterion-09 inputs (see there).  The inputs' cost does not depend on the
seed, so runs with different seeds measure the same amount of work.

A check returns None when the output is within its oracle's tolerance and
a one-line reason otherwise.  Tolerances are those of the acceptance tests
in tests/test_acceptance.py.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from ng_incentives import closedform, concentration
from ng_incentives.mdp import build_transitions, solve
from ng_incentives.model import ProtocolParams, RewardWeights

ALPHA_PLATEAU = 0.2321  # criterion 07: selfish-mining threshold alpha
TRUNCATION = 20
FEES_FIXTURE = "tests/data/fees_fixture.csv"

Check = Callable[[dict], "str | None"]


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    check: Check


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _rng(workload: str, seed: int, rep: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{rep}")


# ------------------------------------------------------------------ mdp_r_grid


def _check_plateau(doc: dict, points: list[float], regimes: tuple[str, ...]) -> str | None:
    rows = doc["payload"]
    seen = sorted((row["regime"], row["r"]) for row in rows)
    wanted = sorted((regime, r) for r in points for regime in regimes)
    if seen != wanted:
        return f"grid rows {len(rows)} do not match the {len(wanted)} requested points"
    for row in rows:
        r, rev = row["r"], row["revenue"]
        at_fair_share = abs(rev - ALPHA_PLATEAU) <= 1e-3
        expected = ALPHA_PLATEAU < r < 1.0 - ALPHA_PLATEAU
        if at_fair_share != expected:
            return f"plateau: regime={row['regime']} r={r} revenue={rev}"
    return None


def mdp_r_grid(seed: int, rep: int, toy: bool = False) -> list[Invocation]:
    """Criterion-07 r-plateau scan at L = 20, one invocation on the CLI pool.

    The grid is 0:1:0.1 with every point moved by at most 0.008, which keeps
    each point at least 0.024 from the plateau edges 0.2321 and 0.7679.
    """
    rng = _rng("mdp_r_grid", seed, rep)
    ks = (1, 5, 9) if toy else range(11)
    # Reflect at 0 and 1 so the end points move inward instead of clipping.
    points = [
        float(_fmt(1.0 - abs(1.0 - abs(0.1 * k + rng.uniform(-0.008, 0.008)))))
        for k in ks
    ]
    regimes = ("fee",) if toy else ("fee", "equal")
    argv = ["mdp", "--alpha", str(ALPHA_PLATEAU), "--r-grid", ",".join(map(_fmt, points))]
    for regime in regimes:
        argv += ["--regime", regime]
    argv += ["--L", str(TRUNCATION)]
    return [Invocation(tuple(argv), partial(_check_plateau, points=points, regimes=regimes))]


# -------------------------------------------------------------- policy_rollout


def _check_rollout(doc: dict, alpha: float, r: float, regime: str) -> str | None:
    params = ProtocolParams(alpha=alpha, gamma=0.5, split_ratio=r)
    expected = solve(
        build_transitions(params, TRUNCATION), RewardWeights.from_regime(regime)
    ).revenue
    (row,) = doc["payload"]
    if not abs(row["relative_revenue"] - expected) < 0.005:
        return f"rollout {row['relative_revenue']} vs solver {expected} (alpha={alpha}, {regime})"
    return None


def policy_rollout(seed: int, rep: int, toy: bool = False) -> list[Invocation]:
    """Criterion 09 as CLI invocations: solve, then roll the policy out.

    These are criterion 09's own inputs, simulator seed 17 included, and the
    benchmark seed does not change them.  Against the criterion's tolerance
    of 0.005 the rollout is too noisy for arbitrary seeds: at alpha = 0.4
    (fee) and m = 10^6 its error has a standard deviation of about 0.0023
    over seeds, so about one seed in twenty fails.  Until the rollout's
    error shrinks, only the seed the acceptance test asserts is a valid
    input here.
    """
    cells = [(0.3, "fee")] if toy else [(a, g) for a in (0.3, 0.4) for g in ("fee", "key")]
    m = 200_000 if toy else 1_000_000
    out = []
    for alpha, regime in cells:
        argv = (
            "simulate", "--strategy", "mdpPolicy", "--alpha", str(alpha),
            "--gamma", "0.5", "--r", "0.4", "--regime", regime,
            "--m", str(m), "--L", str(TRUNCATION), "--seed", "17",
        )
        out.append(Invocation(argv, partial(_check_rollout, alpha=alpha, r=0.4, regime=regime)))
    return out


# ------------------------------------------------------------------ mc_oracles


def _check_interval(doc: dict, strategy: str, alpha: float, r: float, rho: float) -> str | None:
    if strategy == "honest":
        expected = alpha  # fair share: no microblock is orphaned
    elif strategy == "inclusion":
        expected = closedform.inclusion_attack_revenue(alpha, r, rho)
    else:
        expected = closedform.extension_attack_revenue(alpha, r, rho)
    (row,) = doc["payload"]
    tol = max(0.005, 4.0 * row["std_error"])
    if not abs(row["relative_revenue"] - expected) < tol:
        return f"{strategy} a={alpha} r={r} rho={rho}: {row['relative_revenue']} vs {expected}"
    return None


def _check_pairs(doc: dict, alpha: float, m: int, delta: float) -> str | None:
    (row,) = doc["payload"]
    bound = concentration.pair_deviation_bound(alpha, m, delta)
    emp = row["empirical_deviation"]
    se = math.sqrt(max(emp * (1.0 - emp), 0.0) / row["trials"])
    if not emp <= bound + 3.0 * se:
        return f"pairs a={alpha}: deviation {emp} above bound {bound} + 3 se"
    return None


def _check_bounds(doc: dict) -> str | None:
    (row,) = doc["payload"]
    got = (round(row["feasible_lower"], 4), round(row["feasible_upper"], 4))
    return None if got == (0.3684, 0.4286) else f"whale interval {got}"


def _check_revenue(doc: dict) -> str | None:
    # alpha = 0.3, r = 0.2: no deviation earns the fair share, and full
    # withholding earns (0.3 - 0.2 * 0.21) / (1 - 0.21) = 0.326582...
    if len(doc["payload"]) != 22:
        return f"{len(doc['payload'])} rows for 2 attacks x 11 rho values"
    for row in doc["payload"]:
        if row["rho"] == 0.0 and abs(row["revenue"] - 0.3) > 1e-12:
            return f"{row['attack']} at rho=0 gives {row['revenue']}"
        if row["attack"] == "inclusion" and row["rho"] == 1.0:
            if abs(row["revenue"] - 0.258 / 0.79) > 1e-9:
                return f"inclusion at rho=1 gives {row['revenue']}"
    return None


def _check_fees(doc: dict) -> str | None:
    cdf = {row["upper"]: row["value"] for row in doc["payload"] if row["kind"] == "cdf"}
    got = (cdf.get(0.0001), cdf.get(0.0005))
    return None if got == (0.778, 0.985) else f"fee CDF {got}"


def mc_oracles(seed: int, rep: int, toy: bool = False) -> list[Invocation]:
    """Vectorized Monte Carlo and closed-form paths; never touches mdp."""
    rng = _rng("mc_oracles", seed, rep)
    m = 100_000 if toy else 1_000_000
    out = []
    for alpha in (0.3,) if toy else (0.1, 0.2, 0.3):
        for r in (0.2,) if toy else (0.2, 0.4, 0.8):
            sims = [("honest", 0.0)] + [
                (strategy, rho)
                for strategy in ("inclusion", "extension")
                for rho in ((1.0,) if toy else (0.0, 0.5, 1.0))
            ]
            for strategy, rho in sims:
                argv = (
                    "simulate", "--strategy", strategy, "--alpha", str(alpha),
                    "--r", str(r), "--m", str(m), "--seed", str(rng.randrange(2**31)),
                )
                if strategy != "honest":
                    argv += ("--rho", str(rho))
                check = partial(_check_interval, strategy=strategy, alpha=alpha, r=r, rho=rho)
                out.append(Invocation(argv, check))
    pair_m, trials, delta = (1001, 500, 0.1) if toy else (10_001, 10_000, 0.1)
    for alpha in (0.3,) if toy else (0.1, 0.3, 0.5):
        argv = (
            "pairs", "--alpha", str(alpha), "--m", str(pair_m), "--delta", str(delta),
            "--trials", str(trials), "--seed", str(rng.randrange(2**31)),
        )
        out.append(Invocation(argv, partial(_check_pairs, alpha=alpha, m=pair_m, delta=delta)))
    out.append(Invocation(("bounds", "--alpha", "0.25", "--class", "whale"), _check_bounds))
    out.append(Invocation(
        ("revenue", "--alpha", "0.3", "--r", "0.2", "--rho-grid", "0:1:0.1"), _check_revenue
    ))
    out.append(Invocation(("fees", "--input", FEES_FIXTURE), _check_fees))
    return out


WORKLOADS = {
    "mdp_r_grid": mdp_r_grid,
    "policy_rollout": policy_rollout,
    "mc_oracles": mc_oracles,
}


def pool_workers(workload: str, nproc: int) -> int:
    """NG_INCENTIVES_THREADS for the untraced run: only the r-grid uses the
    CLI's process pool; the other subcommands run in-process."""
    return min(2, nproc) if workload == "mdp_r_grid" else 1
