"""Command-line interface emitting plot-ready tables as JSON or CSV.

Subcommands: bounds, revenue, mdp, simulate, pairs, fees.  Every invocation
is deterministic given its flags (and seed where applicable); JSON and CSV
payloads for the same invocation carry identical values.

Importing this module loads the standard library, model and closedform
only: each handler imports the numpy modules it uses when it runs, so
bounds, revenue, --help and usage errors start without numpy.
"""
from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, closedform
from .model import (
    REGIMES,
    ParameterError,
    ProtocolParams,
    RewardWeights,
    SolverError,
    require,
)

if TYPE_CHECKING:
    from .mdp import SolveResult

# Most points a grid flag may expand to.
_MAX_GRID_POINTS = 1_000_000


class UsageError(ValueError):
    """Invalid flag combination or value."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit 2."""

    def error(self, message: str):
        raise UsageError(f"{message} (see {self.prog} --help)")

    def format_help(self) -> str:
        """The help, its usage line showing the flags named in the
        required default unbracketed: they and their groups are marked
        required only while it is formatted (see _check_flags)."""
        required = {dest for dests in self.get_default("required") or () for dest in dests}
        marked = [a for a in self._actions if a.dest in required] + [
            g for g in self._mutually_exclusive_groups
            if any(a.dest in required for a in g._group_actions)
        ]
        for item in marked:
            item.required = True
        try:
            return super().format_help()
        finally:
            for item in marked:
                item.required = False


def _render(fmt: str, metadata: dict, rows: list[dict]) -> str:
    """The JSON document or the CSV table (metadata as '#' lines)."""
    if fmt == "json":
        return json.dumps({"metadata": metadata, "payload": rows}, indent=2)
    buf = io.StringIO()
    for key in sorted(metadata):
        buf.write(f"# {key} = {_csv_scalar(metadata[key])}\n")
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        for row in rows:
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
        if not all(map(math.isfinite, (a, b, step))):
            raise UsageError(f"grid bounds and step must be finite, got {spec!r}")
        if step <= 0 or b < a:
            raise UsageError("grid needs b >= a and step > 0")
        span = (b - a) / step
        if not span < _MAX_GRID_POINTS:
            raise UsageError(f"grid {spec!r} has more than {_MAX_GRID_POINTS} points")
        n = int(round(span))
        grid = [a + i * step for i in range(n + 1)]
        if grid[-1] > b + 1e-12:
            grid.pop()
        return [round(x, 12) for x in grid]
    try:
        grid = [float(x) for x in spec.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"non-numeric grid {spec!r}") from None
    if not grid:
        raise UsageError(f"grid {spec!r} has no values")
    return grid


def _grid(text: str) -> list[float]:
    """A grid flag's value: the points of parse_grid."""
    try:
        return parse_grid(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _edges(text: str) -> list[float]:
    """An --edges value: comma-separated numbers that feescan.check_edges
    accepts."""
    from . import feescan

    try:
        edges = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None
    try:
        feescan.check_edges(edges)
    except ParameterError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return edges


def _points(args, name: str) -> list[float]:
    """The points of --NAME-grid if it was given, else [--NAME]."""
    grid = getattr(args, f"{name}_grid")
    return [getattr(args, name)] if grid is None else grid


def _check_flags(args, unknown: list[str], prog: str) -> None:
    """Name the unknown flags, else the missing required ones, and point at
    the subcommand's help.  argparse checks required=True before it names
    an unknown flag, so no flag sets it; args.required holds one tuple of
    dests per required flag or exclusive group, and _Parser.format_help
    reads it too."""
    missing = [
        " or ".join("--" + dest.replace("_", "-") for dest in dests)
        for dests in getattr(args, "required", ())
        if all(getattr(args, dest) is None for dest in dests)
    ]
    if unknown:
        message = f"unrecognized arguments: {' '.join(unknown)}"
    elif missing:
        message = f"the following arguments are required: {', '.join(missing)}"
    else:
        return
    raise UsageError(f"{message} (see {prog} {args.subcommand} --help)")


# Library parameters whose flags have other names.
_FLAG_DESTS = {"split_ratio": "r", "horizon_keyblocks": "m", "truncation": "L"}


def _flag_message(args, message: str) -> str:
    """A library range error that begins with a parameter's name, with that
    name replaced by the flag that set the parameter: its grid flag if one
    was given, else the flag itself."""
    name, space, rest = message.partition(" ")
    dest = _FLAG_DESTS.get(name, name)
    for flag in (f"{dest}_grid", dest):
        if getattr(args, flag, None) is not None:
            return "--" + flag.replace("_", "-") + space + rest
    return message


# ---------------------------------------------------------------- subcommands


def cmd_bounds(args) -> tuple[dict, list[dict]]:
    rows = []
    for a in _points(args, "alpha"):
        require(0.0 <= a < 0.5, f"alpha must lie in [0, 0.5), got {a}")
        interval = closedform.feasible_interval(a, args.transaction_class)
        rows.append(
            {
                "alpha": a,
                **asdict(closedform.ratio_bounds(a)),
                "feasible_lower": interval.lower,
                "feasible_upper": interval.upper,
                "empty": interval.empty,
            }
        )
    meta = {"command": "bounds", "transaction_class": args.transaction_class}
    return meta, rows


def cmd_revenue(args) -> tuple[dict, list[dict]]:
    params = ProtocolParams(alpha=args.alpha, split_ratio=args.r)
    grid = _points(args, "rho")
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
    return meta, rows


def cmd_mdp(args) -> tuple[dict, list[dict]]:
    # The one rule the parser's groups cannot express, checked before numpy loads.
    if args.alpha_grid is not None and args.r_grid is not None:
        raise UsageError("argument --r-grid: not allowed with argument --alpha-grid")
    from .mdp import build_transitions, solve

    regimes = args.regime if args.regime else list(REGIMES)
    points = [(a, r) for a in _points(args, "alpha") for r in _points(args, "r")]
    # The grid coordinate is the one parameter that varies over the points.
    axis = 0 if args.alpha_grid is not None else 1
    rows = []
    previous = {regime: [] for regime in regimes}  # its last two (coordinate, result)
    for point in points:
        alpha, r = point
        params = ProtocolParams(alpha=alpha, gamma=args.gamma, split_ratio=r)
        table = build_transitions(params, args.L)
        for regime in regimes:
            start = _grid_start(previous[regime], point[axis])
            result = solve(table, RewardWeights.from_regime(regime), start)
            previous[regime] = [*previous[regime][-1:], (point[axis], result)]
            rows.append(
                {
                    "alpha": alpha,
                    "regime": regime,
                    "r": r,
                    "gamma": args.gamma,
                    "revenue": result.revenue,
                    "outer_iterations": result.outer_iterations,
                }
            )
    meta = {"command": "mdp", "gamma": args.gamma, "truncation": args.L}
    return meta, rows


def _grid_start(previous: list, t: float) -> SolveResult | None:
    """The start of a grid row's solve from its regime's last two rows, as
    (grid coordinate, result): none for the first row, the previous result
    for the second, and from the third on that result with its bias
    replaced by the line through the two rows' biases at this row's
    coordinate.  Where the policy is constant the bias is affine in r, so
    the line is exact there; the solve's span test certifies any bias, and
    the policy and distribution it starts from are the previous row's.  Two
    rows at one coordinate give no line, so the previous bias is kept."""
    if not previous:
        return None
    *earlier, (t1, last) = previous
    if not earlier or earlier[0][0] == t1:
        return last
    ((t0, before),) = earlier
    return replace(last, bias=last.bias + (last.bias - before.bias) * ((t - t1) / (t1 - t0)))


def cmd_simulate(args) -> tuple[dict, list[dict]]:
    from .simulator import Extension, Honest, Inclusion, MdpPolicy, SimConfig, run

    params = ProtocolParams(alpha=args.alpha, gamma=args.gamma, split_ratio=args.r)
    weights = RewardWeights.from_regime(args.regime)
    if args.strategy == "inclusion":
        strategy = Inclusion(args.rho)
    elif args.strategy == "extension":
        strategy = Extension(args.rho)
    else:  # honest, and mdpPolicy until its policy is solved
        strategy = Honest()
    # SimConfig checks the horizon and seed before an mdpPolicy table is built.
    config = SimConfig(
        params=params,
        strategy=strategy,
        horizon_keyblocks=args.m,
        seed=args.seed,
        weights=weights,
    )
    if args.strategy == "mdpPolicy":
        from .mdp import build_transitions, solve

        result = solve(build_transitions(params, args.L), weights)
        config = replace(config, strategy=MdpPolicy(result))
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
    return meta, [asdict(report)]


def cmd_pairs(args) -> tuple[dict, list[dict]]:
    from . import concentration

    summary = concentration.empirical_pair_summary(
        args.alpha, args.m, args.delta, args.trials, args.seed
    )
    row = {
        "alpha": args.alpha,
        "m": args.m,
        "delta": args.delta,
        "trials": args.trials,
        "empirical_deviation": summary.deviation_fraction,
        "analytic_bound": concentration.pair_deviation_bound(args.alpha, args.m, args.delta),
        "mean_z": summary.mean_z,
        "expected_pairs": summary.expected_pairs,
    }
    meta = {"command": "pairs", "seed": args.seed}
    return meta, [row]


def cmd_fees(args) -> tuple[dict, list[dict]]:
    from . import feescan

    fees = feescan.load_fees(args.input)
    edges = args.edges
    dist = feescan.distribution(fees, edges)
    cls = feescan.classify(fees, args.whale_threshold)
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
    return meta, rows


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ng-incentives",
        description="Fee-splitting incentive analysis: bounds, attack revenue, "
        "selfish-mining optimization, simulation, and fee datasets.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", type=Path, default=None, help="write output to file")

    p = sub.add_parser("bounds", help="split-ratio bounds over an alpha grid")
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--alpha", type=float, help="this or --alpha-grid is required")
    grid.add_argument(
        "--alpha-grid", type=_grid, metavar="A:B:STEP", help="this or --alpha is required"
    )
    p.add_argument(
        "--class",
        dest="transaction_class",
        choices=closedform.TRANSACTION_CLASSES,
        default="all",
    )
    common(p)
    p.set_defaults(func=cmd_bounds, required=[("alpha", "alpha_grid")])

    p = sub.add_parser("revenue", help="closed-form attack revenue over a rho grid")
    p.add_argument("--alpha", type=float, default=ProtocolParams.alpha)
    p.add_argument("--r", type=float, default=ProtocolParams.split_ratio)
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--rho", type=float, default=0.0)
    grid.add_argument("--rho-grid", type=_grid, metavar="A:B:STEP")
    p.add_argument(
        "--attack", choices=("inclusion", "extension", "both"), default="both"
    )
    common(p)
    p.set_defaults(func=cmd_revenue)

    p = sub.add_parser("mdp", help="optimal selfish-mining revenue over a grid")
    for name, default in (("alpha", ProtocolParams.alpha), ("r", ProtocolParams.split_ratio)):
        grid = p.add_mutually_exclusive_group()
        grid.add_argument(f"--{name}", type=float, default=default)
        grid.add_argument(f"--{name}-grid", type=_grid, metavar="A:B:STEP")
    p.add_argument("--gamma", type=float, default=ProtocolParams.gamma)
    p.add_argument(
        "--regime",
        action="append",
        choices=REGIMES,
        default=None,
        help="repeatable; default all three",
    )
    p.add_argument("--L", type=int, default=20, help="chain-length truncation")
    common(p)
    p.set_defaults(func=cmd_mdp)

    p = sub.add_parser("simulate", help="Monte Carlo mining simulation")
    p.add_argument(
        "--strategy",
        choices=("honest", "inclusion", "extension", "mdpPolicy"),
        help="required",
    )
    p.add_argument("--alpha", type=float, default=ProtocolParams.alpha)
    p.add_argument("--r", type=float, default=ProtocolParams.split_ratio)
    p.add_argument("--gamma", type=float, default=ProtocolParams.gamma)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--m", type=int, default=1_000_000, help="key-block horizon")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--regime", choices=REGIMES, default="fee", help="default: %(default)s")
    p.add_argument("--L", type=int, default=20)
    common(p)
    p.set_defaults(func=cmd_simulate, required=[("strategy",)])

    p = sub.add_parser("pairs", help="pair-count concentration: empirical vs bound")
    p.add_argument("--alpha", type=float, help="required")
    p.add_argument("--m", type=int, help="required")
    p.add_argument("--delta", type=float, help="required")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_pairs, required=[("alpha",), ("m",), ("delta",)])

    p = sub.add_parser("fees", help="fee-dataset histogram, CDF, classification")
    p.add_argument("--input", type=Path, help="required")
    p.add_argument(
        "--edges",
        type=_edges,
        default="0.00001,0.0001,0.0005,0.001,0.01",
        help="comma-separated ascending bucket edges",
    )
    p.add_argument("--whale-threshold", type=float, default=0.0001)
    common(p)
    p.set_defaults(func=cmd_fees, required=[("input",)])

    return parser


# perfbench/tracing.py wraps these three names on this module as well as in
# their defining modules, whose bindings the handlers call.  Drop this once
# the benchmark no longer lists cli among its tracing targets.
_TRACED_NAMES = {"build_transitions": "mdp", "solve": "mdp", "run": "simulator"}


def __getattr__(name: str):
    """mdp.build_transitions, mdp.solve or simulator.run, importing its
    module on first access (PEP 562); no other name resolves."""
    if name not in _TRACED_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_TRACED_NAMES[name]}", __package__), name)


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
        args, unknown = parser.parse_known_args(argv)
        _check_flags(args, unknown, parser.prog)
        try:
            metadata, rows = args.func(args)
        except ParameterError as exc:
            raise UsageError(_flag_message(args, str(exc))) from None
        text = _render(args.format, {"version": __version__, **metadata}, rows)
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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
