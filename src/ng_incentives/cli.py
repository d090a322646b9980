"""Command-line interface emitting plot-ready tables as JSON or CSV.

Subcommands: bounds, revenue, mdp, simulate, pairs, fees.  Every invocation
is deterministic given its flags (and seed where applicable); JSON and CSV
payloads for the same invocation carry identical values.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import __version__, closedform, concentration, feescan
from .mdp import SolverError, build_transitions, solve
from .model import (
    ParameterError,
    ProtocolParams,
    RewardWeights,
    load_config,
    params_from_config,
)
from .simulator import Extension, Honest, Inclusion, MdpPolicy, SimConfig, run

REGIMES = ("fee", "equal", "key")


class UsageError(ValueError):
    """Invalid flag combination or value."""


@dataclass
class OutputEnvelope:
    format: str  # "json" or "csv"
    metadata: dict
    payload: list[dict]

    def render(self) -> str:
        if self.format == "json":
            return json.dumps(
                {"metadata": self.metadata, "payload": self.payload}, indent=2
            )
        buf = io.StringIO()
        for key in sorted(self.metadata):
            buf.write(f"# {key} = {_csv_scalar(self.metadata[key])}\n")
        if self.payload:
            fieldnames = list(self.payload[0].keys())
            writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
            writer.writeheader()
            for row in self.payload:
                writer.writerow({k: _csv_scalar(v) for k, v in row.items()})
        return buf.getvalue()


def _csv_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def parse_grid(spec: str) -> list[float]:
    """Parse 'a:b:step' (inclusive of both ends up to rounding) or a single
    number or a comma-separated list."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid must be a:b:step, got {spec!r}")
        try:
            a, b, step = (float(x) for x in parts)
        except ValueError:
            raise UsageError(f"non-numeric grid {spec!r}") from None
        if step <= 0 or b < a:
            raise UsageError("grid needs b >= a and step > 0")
        n = int(round((b - a) / step))
        grid = [a + i * step for i in range(n + 1)]
        if grid[-1] > b + 1e-12:
            grid.pop()
        return [round(x, 12) for x in grid]
    try:
        return [float(x) for x in spec.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"non-numeric grid {spec!r}") from None


def _worker_count() -> int:
    env = os.environ.get("NG_INCENTIVES_THREADS", "")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise UsageError(f"NG_INCENTIVES_THREADS must be an integer, got {env!r}")
        if n < 1:
            raise UsageError("NG_INCENTIVES_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1


def _base_params(args) -> ProtocolParams:
    base = ProtocolParams()
    if getattr(args, "config", None):
        base = params_from_config(load_config(args.config), base)
    overrides = {}
    for flag, field in (
        ("alpha", "alpha"),
        ("gamma", "gamma"),
        ("r", "split_ratio"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    return params_from_config(overrides, base)


# ---------------------------------------------------------------- subcommands


def cmd_bounds(args) -> OutputEnvelope:
    if args.alpha_grid:
        grid = parse_grid(args.alpha_grid)
    else:
        grid = [] if args.alpha is None else [args.alpha]
    if not grid:
        raise UsageError("bounds needs --alpha or --alpha-grid")
    for a in grid:
        if not 0.0 <= a < 0.5:
            raise UsageError(f"alpha grid values must lie in [0, 0.5), got {a}")
    rows = []
    for a in grid:
        b = closedform.ratio_bounds(a)
        interval = closedform.feasible_interval(a, args.transaction_class)
        rows.append(
            {
                "alpha": a,
                "inclusion_lower_v1": b.inclusion_lower_v1,
                "inclusion_lower_v2": b.inclusion_lower_v2,
                "extension_upper": b.extension_upper,
                "capacity_lower": b.capacity_lower,
                "capacity_upper": b.capacity_upper,
                "feasible_lower": interval.lower,
                "feasible_upper": interval.upper,
                "empty": interval.empty,
            }
        )
    meta = {"command": "bounds", "transaction_class": args.transaction_class}
    return OutputEnvelope(args.format, _metadata(meta), rows)


def cmd_revenue(args) -> OutputEnvelope:
    params = _base_params(args)
    grid = parse_grid(args.rho_grid) if args.rho_grid else [args.rho]
    attacks = ("inclusion", "extension") if args.attack == "both" else (args.attack,)
    rows = []
    for attack in attacks:
        fn = (
            closedform.inclusion_attack_revenue
            if attack == "inclusion"
            else closedform.extension_attack_revenue
        )
        for rho in grid:
            rows.append(
                {
                    "attack": attack,
                    "alpha": params.alpha,
                    "r": params.split_ratio,
                    "rho": rho,
                    "revenue": fn(params.alpha, params.split_ratio, rho),
                }
            )
    meta = {"command": "revenue", "alpha": params.alpha, "r": params.split_ratio}
    return OutputEnvelope(args.format, _metadata(meta), rows)


def _mdp_task(task: tuple[float, float, float, str, int]) -> dict:
    alpha, r, gamma, regime, L = task
    params = ProtocolParams(alpha=alpha, gamma=gamma, split_ratio=r)
    table = build_transitions(params, L)
    result = solve(table, RewardWeights.from_regime(regime))
    return {
        "alpha": alpha,
        "regime": regime,
        "r": r,
        "gamma": gamma,
        "revenue": result.revenue,
        "outer_iterations": result.outer_iterations,
    }


def cmd_mdp(args) -> OutputEnvelope:
    params = _base_params(args)
    regimes = args.regime if args.regime else list(REGIMES)
    for regime in regimes:
        if regime not in REGIMES:
            raise UsageError(f"unknown regime {regime!r}")
    if args.alpha_grid and args.r_grid:
        raise UsageError("use either --alpha-grid or --r-grid, not both")
    if args.r_grid:
        points = [(params.alpha, r) for r in parse_grid(args.r_grid)]
    elif args.alpha_grid:
        points = [(a, params.split_ratio) for a in parse_grid(args.alpha_grid)]
    else:
        points = [(params.alpha, params.split_ratio)]
    tasks = [
        (alpha, r, params.gamma, regime, args.L)
        for alpha, r in points
        for regime in regimes
    ]
    workers = min(_worker_count(), len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_mdp_task, tasks))
    else:
        rows = [_mdp_task(t) for t in tasks]
    meta = {"command": "mdp", "gamma": params.gamma, "truncation": args.L}
    return OutputEnvelope(args.format, _metadata(meta), rows)


def cmd_simulate(args) -> OutputEnvelope:
    params = _base_params(args)
    weights = RewardWeights.from_regime(args.regime) if args.regime else None
    if args.strategy == "honest":
        strategy = Honest()
    elif args.strategy == "inclusion":
        strategy = Inclusion(args.rho)
    elif args.strategy == "extension":
        strategy = Extension(args.rho)
    else:  # mdpPolicy
        table = build_transitions(params, args.L)
        result = solve(table, weights or RewardWeights.fee_dominated())
        strategy = MdpPolicy(result)
    config = SimConfig(
        params=params,
        strategy=strategy,
        horizon_keyblocks=args.m,
        seed=args.seed,
        interval_mode=args.interval_mode,
        weights=weights,
    )
    report = run(config)
    meta = {
        "command": "simulate",
        "strategy": args.strategy,
        "alpha": params.alpha,
        "r": params.split_ratio,
        "gamma": params.gamma,
        "seed": args.seed,
        "m": args.m,
    }
    return OutputEnvelope(args.format, _metadata(meta), [report.to_dict()])


def cmd_pairs(args) -> OutputEnvelope:
    summary = concentration.empirical_pair_summary(
        args.alpha, args.m, args.delta, args.trials, args.seed
    )
    if 0.0 < args.alpha < 1.0:
        bound = concentration.pair_deviation_bound(args.alpha, args.m, args.delta)
    else:
        bound = 4.0  # degenerate alpha: the bound is trivial
    row = {
        "alpha": args.alpha,
        "m": args.m,
        "delta": args.delta,
        "trials": args.trials,
        "empirical_deviation": summary.deviation_fraction,
        "analytic_bound": bound,
        "mean_z": summary.mean_z,
        "expected_pairs": summary.expected_pairs,
    }
    meta = {"command": "pairs", "seed": args.seed}
    return OutputEnvelope(args.format, _metadata(meta), [row])


def cmd_fees(args) -> OutputEnvelope:
    records = feescan.load_fees(args.input)
    edges = [float(x) for x in args.edges.split(",") if x.strip()]
    dist = feescan.distribution(records, edges)
    cls = feescan.classify(records, args.whale_threshold)
    rows = []
    bucket_bounds = [(None, edges[0])] + list(zip(edges, edges[1:])) + [(edges[-1], None)]
    for (lo, hi), count in zip(bucket_bounds, dist.bucket_counts):
        rows.append(
            {"kind": "bucket", "lower": lo, "upper": hi, "value": float(count)}
        )
    for edge in edges:
        rows.append(
            {"kind": "cdf", "lower": None, "upper": edge, "value": dist.cdf_at(edge)}
        )
    rows.append(
        {
            "kind": "regular_fraction",
            "lower": None,
            "upper": args.whale_threshold,
            "value": cls.regular_fraction,
        }
    )
    rows.append(
        {"kind": "mean_regular_fee", "lower": None, "upper": None, "value": cls.mean_regular_fee}
    )
    rows.append({"kind": "mean_fee", "lower": None, "upper": None, "value": cls.mean_fee})
    meta = {
        "command": "fees",
        "input": str(args.input),
        "records": dist.count,
        "whale_threshold": args.whale_threshold,
    }
    return OutputEnvelope(args.format, _metadata(meta), rows)


def _metadata(extra: dict) -> dict:
    return {"version": __version__, **extra}


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ng-incentives",
        description="Fee-splitting incentive analysis: bounds, attack revenue, "
        "selfish-mining optimization, simulation, and fee datasets.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", type=Path, default=None, help="write output to file")
        p.add_argument("--config", type=Path, default=None, help="flat key=value file")

    p = sub.add_parser("bounds", help="split-ratio bounds over an alpha grid")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--alpha-grid", default=None, metavar="A:B:STEP")
    p.add_argument(
        "--class",
        dest="transaction_class",
        choices=closedform.TRANSACTION_CLASSES,
        default="all",
    )
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("revenue", help="closed-form attack revenue over a rho grid")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--rho-grid", default=None, metavar="A:B:STEP")
    p.add_argument(
        "--attack", choices=("inclusion", "extension", "both"), default="both"
    )
    common(p)
    p.set_defaults(func=cmd_revenue)

    p = sub.add_parser("mdp", help="optimal selfish-mining revenue over a grid")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--alpha-grid", default=None, metavar="A:B:STEP")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--r-grid", default=None, metavar="A:B:STEP")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument(
        "--regime",
        action="append",
        default=None,
        help="fee, equal, or key; repeatable; default all three",
    )
    p.add_argument("--L", type=int, default=20, help="chain-length truncation")
    common(p)
    p.set_defaults(func=cmd_mdp)

    p = sub.add_parser("simulate", help="Monte Carlo mining simulation")
    p.add_argument(
        "--strategy",
        choices=("honest", "inclusion", "extension", "mdpPolicy"),
        required=True,
    )
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--m", type=int, default=1_000_000, help="key-block horizon")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--interval-mode", choices=("exponential", "deterministic"), default="exponential"
    )
    p.add_argument("--regime", choices=REGIMES, default=None)
    p.add_argument("--L", type=int, default=20)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pairs", help="pair-count concentration: empirical vs bound")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("fees", help="fee-dataset histogram, CDF, classification")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument(
        "--edges",
        default="0.00001,0.0001,0.0005,0.001,0.01",
        help="comma-separated ascending bucket edges",
    )
    p.add_argument("--whale-threshold", type=float, default=0.0001)
    common(p)
    p.set_defaults(func=cmd_fees)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args).render()
        if args.out:
            args.out.write_text(text + ("\n" if not text.endswith("\n") else ""))
        else:
            print(text)
    except SolverError as exc:
        print(
            f"error: solver failed to converge ({exc}); try a smaller --L",
            file=sys.stderr,
        )
        return 1
    except (UsageError, ParameterError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
