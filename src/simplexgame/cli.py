"""Command-line interface.

Subcommands: run, sweep, predict, oracle, compare-strengths, verify-reduction,
zeta.  Exit codes: 0 success, 1 validation problem (including usage errors),
2 I/O failure.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analytics, harness, oracle
from .errors import ValidationError
from .game import GameConfig, check_node_count, draw_strategy_matrix
from .geometry import StrengthDistribution, build_simplex, debug_dict


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _seed(raw: str) -> int:
    """The type of every --seed flag: a non-negative integer, as numpy seeds are."""
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {raw!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="simplexgame",
                     description="Simulate node-choice games and measure anarchy.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="single learning trajectory, written as CSV")
    run.add_argument("--config", required=True, help="key=value config file")
    run.add_argument("--seed", type=_seed, default=None)
    run.add_argument("--out", required=True, help="trajectory CSV path")
    run.add_argument("--dump-simplex", default=None, help="optional simplex JSON path")

    sw = sub.add_parser("sweep", help="lambda sweep with realization averaging")
    sw.add_argument("--config", required=True)
    sw.add_argument("--seed", type=_seed, default=None)
    sw.add_argument("--out", required=True)
    sw.add_argument("--format", choices=("csv", "json"), default="csv")

    pred = sub.add_parser("predict", help="analytic frustration curve as CSV")
    pred.add_argument("--S", type=int, required=True, dest="strategies")
    pred.add_argument("--B", type=int, required=True, dest="nodes")
    pred.add_argument("--lambda-grid", required=True)
    pred.add_argument("--out", default=None)

    orc = sub.add_parser("oracle", help="exhaustive tiny-game equilibrium report")
    orc.add_argument("--N", type=int, required=True, dest="players")
    orc.add_argument("--S", type=int, required=True, dest="strategies")
    orc.add_argument("--M", type=int, required=True, dest="signals")
    orc.add_argument("--B", type=int, required=True, dest="nodes")
    orc.add_argument("--seed", type=_seed, default=0)
    orc.add_argument("--strengths", default="uniform")
    orc.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
    orc.add_argument("--out", default=None)

    for name, text in (("compare-strengths",
                        "paired sweeps under two strength distributions"),
                       ("verify-reduction",
                        "paired sweeps of a game and its 2-node reduction")):
        paired = sub.add_parser(name, help=text)
        paired.add_argument("--config", required=True)
        paired.add_argument("--seed", type=_seed, default=None)
        paired.add_argument("--out", required=True)

    zt = sub.add_parser("zeta", help="expected minimum of S standard normals")
    zt.add_argument("--S", type=int, required=True, dest="strategies")
    zt.add_argument("--method", choices=("quadrature", "monte-carlo"),
                    default="quadrature")
    zt.add_argument("--samples", type=int, default=10**6)
    zt.add_argument("--seed", type=_seed, default=0)
    return parser


def _cmd_run(args) -> int:
    exp = harness.experiment_from_file(args.config, seed=args.seed)
    result = harness.single_run(exp)
    harness.export_trajectory(result.trajectory, args.out)
    if args.dump_simplex:
        with open(args.dump_simplex, "w") as fh:
            json.dump(debug_dict(result.simplex), fh, indent=2, sort_keys=True)
    print(f"wrote {result.trajectory.length} iterations to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    exp = harness.experiment_from_file(args.config, seed=args.seed)
    result = harness.sweep(exp)
    written = harness.export_sweep(result, args.out, args.format)
    print(f"wrote {', '.join(written)} (config hash {result.config_hash[:12]})")
    return 0


def _cmd_predict(args) -> int:
    grid = harness.parse_lambda_grid(args.lambda_grid)
    pred = analytics.prediction_for(args.strategies, args.nodes)
    lines = ["lambda,predicted_R"]
    for lam in grid:
        value = analytics.predicted_anarchy(lam, args.strategies, args.nodes)
        lines.append(f"{float(lam)!r},{value!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        harness._write_text(args.out, text)
        print(f"wrote {len(grid)} points to {args.out} "
              f"(lambda_c={pred.lambda_c!r}, zeta={pred.zeta!r})")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_oracle(args) -> int:
    check_node_count(args.nodes)   # before the strengths are built
    try:   # the config file's strengths syntax; ValueError means a non-number
        spec = harness._parse_value("strengths", args.strengths)
    except ValueError as exc:
        raise ValidationError(f"--strengths {args.strengths!r}: {exc}") from exc
    if spec == "random":
        raise ValidationError("--strengths must be uniform or a comma list; the oracle "
                              "solves one fixed game, not random draws")
    y = StrengthDistribution(np.asarray(harness._strengths_spec(spec, args.nodes)))
    config = GameConfig(players=args.players, nodes=args.nodes, signals=args.signals,
                        strategies_per_player=args.strategies, strengths=y)
    oracle.check_budget(config, args.budget)   # before the table is drawn
    rng = np.random.default_rng(args.seed)
    simplex = build_simplex(y)
    matrix = draw_strategy_matrix(config, rng)
    report = oracle.oracle_report(matrix, simplex, config, args.budget)
    report["seed"] = args.seed
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        harness._write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_paired(args) -> int:
    exp = harness.experiment_from_file(args.config, seed=args.seed)
    if args.command == "compare-strengths":
        result = harness.compare_strengths(exp)
    else:
        result = harness.verify_reduction(exp)
    lines = ["lambda,mean_A,mean_B,gap,pooled_se"]
    for row in result.per_lambda:
        lines.append(",".join(harness._fmt(v) for v in
                              (row.realized_lambda, row.mean_a, row.mean_b,
                               row.gap, row.pooled_se)))
    harness._write_text(args.out, "\n".join(lines) + "\n")
    print(f"max mean gap {result.max_gap!r}; wrote {args.out}")
    return 0


def _cmd_zeta(args) -> int:
    if args.method == "quadrature":
        value = analytics.zeta(args.strategies)
        print(f"zeta({args.strategies}) = {value!r}")
    else:
        value, stderr = analytics.zeta_monte_carlo(args.strategies, args.samples,
                                                   args.seed)
        print(f"zeta({args.strategies}) = {value!r} +/- {stderr!r} "
              f"({args.samples} samples)")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "predict": _cmd_predict,
    "oracle": _cmd_oracle,
    "compare-strengths": _cmd_paired,
    "verify-reduction": _cmd_paired,
    "zeta": _cmd_zeta,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
