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
from .errors import ValidationError, check_count
from .game import draw_strategy_matrix
from .geometry import build_simplex, debug_dict


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _seed(raw: str) -> int:
    """The type of every --seed flag: a count, as numpy seeds are."""
    try:
        value = int(raw)
    except ValueError:
        value = raw
    try:
        check_count(value, "seed")
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
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


def _play(args, command):
    """command(experiment of args.config), whose ValidationErrors name the file too."""
    exp = harness.experiment_from_file(args.config, seed=args.seed)
    try:
        return command(exp)
    except ValidationError as exc:
        raise type(exc)(f"{args.config}: {exc}") from exc


def _cmd_run(args) -> int:
    def run_and_dump(exp):
        # the dump is built before any write: strengths too skewed for vertices fail here
        result = harness.single_run(exp)
        dump = debug_dict(build_simplex(result.config.strengths)) if args.dump_simplex else None
        return result, dump

    result, dump = _play(args, run_and_dump)
    harness.export_trajectory(result, args.out)
    if dump is not None:
        harness._write_text(args.dump_simplex, json.dumps(dump, indent=2, sort_keys=True))
    print(f"wrote {result.iterations} iterations to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    result = _play(args, harness.sweep)
    written = harness.export_sweep(result, args.out, args.format)
    print(f"wrote {', '.join(written)} (config hash {result.config_hash[:12]})")
    return 0


def _cmd_predict(args) -> int:
    grid = harness.parse_lambda_grid(args.lambda_grid)
    zeta = analytics.zeta(args.strategies)   # before lambda_c: --S 0 fails here first
    lambda_c = analytics.critical_lambda(args.strategies, args.nodes)
    text = harness.csv_text("lambda,predicted_R", (
        (lam, analytics.predicted_anarchy(lam, args.strategies, args.nodes))
        for lam in grid))
    if args.out:
        harness._write_text(args.out, text)
        print(f"wrote {len(grid)} points to {args.out} "
              f"(lambda_c={lambda_c!r}, zeta={zeta!r})")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_oracle(args) -> int:
    try:   # the config file's strengths syntax
        spec = harness.parse_strengths(args.strengths)
        if spec == "random":
            raise ValidationError("must be uniform or a comma list; the oracle solves "
                                  "one fixed game, not random draws")
    except ValueError as exc:   # ValidationError is a ValueError
        raise ValidationError(f"--strengths {args.strengths!r}: {exc}") from exc
    try:
        # the oracle plays no rounds, so no learning rate can overflow its scores
        exp = harness.ExperimentConfig(players=args.players, nodes=args.nodes,
                                       strategies=args.strategies, signals=args.signals,
                                       strengths=spec, iterations=0)
    except ValidationError as exc:
        field = exc.fields[0]
        flag = {"players": "--N", "strategies": "--S", "signals": "--M", "nodes": "--B",
                "strengths": "--strengths"}[field]
        # a strengths check names its field, which the flag replaces
        raise ValidationError(f"{flag}: {str(exc).removeprefix(f'{field}: ')}") from exc
    config = harness._draw_game(exp, exp.strengths, exp.signals)
    oracle.check_budget(config, args.budget)   # before the table is drawn
    rng = np.random.default_rng(args.seed)
    matrix = draw_strategy_matrix(config, rng)
    report = oracle.oracle_report(matrix, config, args.budget)
    report["seed"] = args.seed
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        harness._write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_paired(args) -> int:
    result = _play(args, harness.compare_strengths if args.command == "compare-strengths"
                   else harness.verify_reduction)
    harness._write_text(args.out, harness.csv_text(
        "lambda,mean_A,mean_B,gap,pooled_se",
        ((row.realized_lambda, row.mean_a, row.mean_b, row.gap, row.pooled_se)
         for row in result.per_lambda)))
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
