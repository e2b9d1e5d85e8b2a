"""Experiment harness: config files, seeding, sweeps, averaging, export.

A sweep walks a grid of training parameters lambda = M/N, runs K independent
realizations per point (fresh strategy matrix each, fresh strengths too when
configured), measures the steady-state frustration of each run, and attaches
the analytic curve.  Every realization derives its own seed from the master
seed and its grid coordinates, so whole sweeps are reproducible byte for byte.
"""
from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import analytics, learning
from .errors import ValidationError
from .game import GameConfig, StrategyMatrix, draw_strategy_matrix, expected_frustration
from .geometry import Simplex, StrengthDistribution, build_simplex
from .learning import ConvergenceSettings, LearningConfig, LearnerState, Trajectory

WORKERS_ENV = "SIMPLEXGAME_WORKERS"
MEASUREMENT_MODES = ("final-profile", "windowed-trace")

CONFIG_KEYS = {
    "players", "nodes", "signals", "strategies", "strengths", "strengths_b",
    "efficiencies", "efficiencies_b", "payoff_mode", "gamma", "iterations",
    "t_max", "window", "check_every", "lambda_grid", "realizations",
    "measurement", "snapshot_stride", "seed",
}


@dataclass
class ExperimentConfig:
    """Everything one experiment needs; `strengths` may be a distribution,
    "uniform", or "random" (fresh proper strengths per realization)."""

    players: int
    nodes: int
    strategies: int
    signals: int | None = None
    lambda_grid: tuple | None = None
    strengths: object = "uniform"
    strengths_b: object = None          # second arm for strength comparisons
    efficiencies: tuple | None = None   # raw per-node rates, reporting only
    payoff_mode: str = "linear"
    gamma: float = 20.0
    iterations: int = 2000
    t_max: int = 5000
    window: int = 200
    check_every: int = 100
    realizations: int = 25
    measurement: str = "final-profile"
    snapshot_stride: int = 0
    master_seed: int = 0

    def __post_init__(self):
        if self.realizations < 1:
            raise ValidationError("realizations must be >= 1")
        ConvergenceSettings(window=self.window, check_every=self.check_every)  # validates
        LearningConfig(gamma=self.gamma)  # validates
        if self.t_max < self.window:
            raise ValidationError("t_max must be >= window")
        if self.measurement not in MEASUREMENT_MODES:
            raise ValidationError(f"measurement must be one of {MEASUREMENT_MODES}")
        if self.master_seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.lambda_grid is not None:
            grid = tuple(float(v) for v in self.lambda_grid)
            if any(v <= 0.0 for v in grid):
                raise ValidationError("lambda grid values must be > 0")
            self.lambda_grid = grid


def _strengths_spec(strengths, nodes: int):
    """Normalize a strengths field to "random" or a concrete tuple of weights."""
    if isinstance(strengths, StrengthDistribution):
        return tuple(float(w) for w in strengths.weights)
    if strengths == "random":
        return "random"
    if strengths == "uniform" or strengths is None:
        return tuple(float(w) for w in StrengthDistribution.uniform(nodes).weights)
    return tuple(float(w) for w in StrengthDistribution(np.asarray(strengths)).weights)


def _resolve_strengths(spec, nodes: int, rng) -> StrengthDistribution:
    if spec == "random":
        return StrengthDistribution.random_proper(nodes, rng)
    return StrengthDistribution(np.asarray(spec))


def signals_for(lam: float, players: int) -> int:
    """M = round(lambda * N), half away from zero, clamped to >= 1."""
    return max(1, int(np.floor(lam * players + 0.5)))


def child_seed(master_seed: int, lambda_index: int, realization: int) -> int:
    """Derived 64-bit seed for one realization.

    The triple (master seed, grid index, realization index) is fed as the
    entropy of a SeedSequence, so distinct coordinates give independent
    streams by construction; the returned word reproduces the realization.
    """
    ss = np.random.SeedSequence((int(master_seed), int(lambda_index), int(realization)))
    return int(ss.generate_state(1, np.uint64)[0])


def measure_steady_state(state: LearnerState, c: StrategyMatrix, simplex: Simplex,
                         config: GameConfig, mode: str = "final-profile",
                         trajectory: Trajectory | None = None,
                         window: int = 200) -> float:
    """Steady-state frustration of a finished run.

    final-profile evaluates the exact signal-averaged frustration of the final
    mixed profile (deterministic); windowed-trace averages the instantaneous
    trace over the last `window` iterations, matching what a trace plot shows.
    """
    if mode == "final-profile":
        return expected_frustration(c, state.profile(), simplex, config)
    if mode == "windowed-trace":
        if trajectory is None or trajectory.length == 0:
            raise ValidationError("windowed-trace mode needs a non-empty trajectory")
        return float(trajectory.frustrations[-window:].mean())
    raise ValidationError(f"measurement must be one of {MEASUREMENT_MODES}")


@dataclass(frozen=True)
class RealizationRow:
    lambda_index: int
    realized_lambda: float
    realization: int
    seed: int
    steady_r: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class SummaryRow:
    realized_lambda: float
    mean_r: float
    std_r: float
    predicted_r: float


@dataclass
class SweepResult:
    rows: list
    summary: list
    config: dict
    config_hash: str
    wall_clock_seconds: float

    def rows_for(self, lambda_index: int):
        return [r for r in self.rows if r.lambda_index == lambda_index]


@dataclass(frozen=True)
class _Task:
    master_seed: int
    lambda_index: int
    realization: int
    signals: int
    players: int
    nodes: int
    strategies: int
    strengths: object    # "random" or tuple of weights
    payoff_mode: str
    gamma: float
    t_max: int
    window: int
    check_every: int
    measurement: str


def _run_task(task: _Task) -> RealizationRow:
    seed = child_seed(task.master_seed, task.lambda_index, task.realization)
    rng = np.random.default_rng(seed)
    y = _resolve_strengths(task.strengths, task.nodes, rng)
    config = GameConfig(players=task.players, nodes=task.nodes, signals=task.signals,
                        strategies_per_player=task.strategies, strengths=y,
                        payoff_mode=task.payoff_mode)
    simplex = build_simplex(y)
    matrix = draw_strategy_matrix(config, rng)
    result = learning.run(
        config,
        LearningConfig(gamma=task.gamma, iterations=task.t_max),
        rng, matrix=matrix, simplex=simplex,
        convergence=ConvergenceSettings(window=task.window, check_every=task.check_every,
                                        stop_reasons=("purity",)),
    )
    steady = measure_steady_state(result.state, matrix, simplex, config,
                                  task.measurement, result.trajectory, task.window)
    converged = result.converged
    if not converged and result.trajectory.length >= task.window:
        converged = learning.detect_convergence(
            result.state, result.trajectory, task.window).converged
    return RealizationRow(
        lambda_index=task.lambda_index,
        realized_lambda=task.signals / task.players,
        realization=task.realization,
        seed=seed,
        steady_r=steady,
        converged=converged,
        iterations=result.state.iteration,
    )


def _worker_count(n_tasks: int) -> int:
    raw = os.environ.get(WORKERS_ENV)
    workers = int(raw) if raw else (os.cpu_count() or 1)
    return max(1, min(workers, n_tasks))


def _execute(tasks: list) -> list:
    workers = _worker_count(len(tasks))
    if workers == 1:
        rows = [_run_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_task, tasks, chunksize=1))
    return sorted(rows, key=lambda r: (r.lambda_index, r.realization))


def _summarize(rows: list, strategies: int, nodes: int) -> list:
    summary = []
    for li in sorted({r.lambda_index for r in rows}):
        group = [r for r in rows if r.lambda_index == li]
        values = np.array([r.steady_r for r in group])
        lam = group[0].realized_lambda
        summary.append(SummaryRow(
            realized_lambda=lam,
            mean_r=float(values.mean()),
            std_r=float(values.std(ddof=1)) if values.size > 1 else 0.0,
            predicted_r=analytics.predicted_anarchy(lam, strategies, nodes),
        ))
    return summary


def semantic_config(exp: ExperimentConfig) -> dict:
    """The fields that define the experiment (hash input); output options excluded."""
    return {
        "players": exp.players,
        "nodes": exp.nodes,
        "strategies": exp.strategies,
        "signals": exp.signals,
        "lambda_grid": list(exp.lambda_grid) if exp.lambda_grid else None,
        "strengths": _strengths_spec(exp.strengths, exp.nodes),
        "efficiencies": list(exp.efficiencies) if exp.efficiencies else None,
        "payoff_mode": exp.payoff_mode,
        "gamma": exp.gamma,
        "t_max": exp.t_max,
        "window": exp.window,
        "check_every": exp.check_every,
        "realizations": exp.realizations,
        "measurement": exp.measurement,
        "master_seed": exp.master_seed,
    }


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _sweep_points(exp: ExperimentConfig, points: list, strengths_spec) -> SweepResult:
    """Run realizations for explicit (grid index, signal count) points."""
    start = time.perf_counter()
    tasks = [
        _Task(master_seed=exp.master_seed, lambda_index=li, realization=k,
              signals=m, players=exp.players, nodes=exp.nodes,
              strategies=exp.strategies, strengths=strengths_spec,
              payoff_mode=exp.payoff_mode, gamma=exp.gamma, t_max=exp.t_max,
              window=exp.window, check_every=exp.check_every,
              measurement=exp.measurement)
        for li, m in points
        for k in range(exp.realizations)
    ]
    rows = _execute(tasks)
    summary = _summarize(rows, exp.strategies, exp.nodes)
    cfg = semantic_config(exp)
    return SweepResult(rows=rows, summary=summary, config=cfg,
                       config_hash=config_hash(cfg),
                       wall_clock_seconds=time.perf_counter() - start)


def sweep(exp: ExperimentConfig) -> SweepResult:
    """Run the full lambda grid of an experiment."""
    if not exp.lambda_grid:
        raise ValidationError("sweep needs a lambda_grid")
    points = [(li, signals_for(lam, exp.players)) for li, lam in enumerate(exp.lambda_grid)]
    return _sweep_points(exp, points, _strengths_spec(exp.strengths, exp.nodes))


@dataclass
class ComparisonRow:
    realized_lambda: float
    mean_a: float
    mean_b: float
    gap: float
    pooled_se: float


@dataclass
class ComparisonResult:
    result_a: SweepResult
    result_b: SweepResult
    per_lambda: list

    @property
    def max_gap(self) -> float:
        return max(r.gap for r in self.per_lambda)


def _pair(result_a: SweepResult, result_b: SweepResult, k: int) -> list:
    paired = []
    for sa, sb in zip(result_a.summary, result_b.summary):
        se_a = sa.std_r / np.sqrt(k)
        se_b = sb.std_r / np.sqrt(k)
        paired.append(ComparisonRow(
            realized_lambda=sa.realized_lambda,
            mean_a=sa.mean_r, mean_b=sb.mean_r,
            gap=abs(sa.mean_r - sb.mean_r),
            pooled_se=float(np.hypot(se_a, se_b)),
        ))
    return paired


def compare_strengths(exp: ExperimentConfig, strengths_b=None) -> ComparisonResult:
    """Paired-seed sweeps of the same game under two strength distributions."""
    spec_b = strengths_b if strengths_b is not None else exp.strengths_b
    if spec_b is None:
        raise ValidationError("compare_strengths needs a second strength distribution")
    result_a = sweep(exp)
    exp_b = replace(exp, strengths=_strengths_spec(spec_b, exp.nodes),
                    strengths_b=None, efficiencies=None)
    result_b = sweep(exp_b)
    return ComparisonResult(result_a, result_b, _pair(result_a, result_b, exp.realizations))


def verify_reduction(exp: ExperimentConfig) -> ComparisonResult:
    """Paired-seed sweeps of a game and its 2-node reduction (signals scaled by B-1).

    The reduced arm is anchored on the original arm's signal counts: each grid
    point's M becomes exactly M * (B - 1), so both arms sit on the same
    predicted curve.
    """
    if not exp.lambda_grid:
        raise ValidationError("verify_reduction needs a lambda_grid")
    points = [(li, signals_for(lam, exp.players)) for li, lam in enumerate(exp.lambda_grid)]
    result_a = _sweep_points(exp, points, _strengths_spec(exp.strengths, exp.nodes))

    reduced_points = [(li, m * (exp.nodes - 1)) for li, m in points]
    exp_b = replace(exp, nodes=2, strengths="uniform", strengths_b=None,
                    efficiencies=None)
    result_b = _sweep_points(exp_b, reduced_points,
                             _strengths_spec("uniform", 2))
    return ComparisonResult(result_a, result_b, _pair(result_a, result_b, exp.realizations))


# ---------------------------------------------------------------------------
# export

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip, no numpy repr wrapper
    return str(value)


def _write_text(path, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def sweep_data_csv(result: SweepResult) -> str:
    lines = ["lambda,realization,seed,steady_R,converged,iterations"]
    for r in result.rows:
        lines.append(",".join([
            _fmt(r.realized_lambda), str(r.realization), str(r.seed),
            _fmt(r.steady_r), _fmt(r.converged), str(r.iterations),
        ]))
    return "\n".join(lines) + "\n"


def sweep_summary_csv(result: SweepResult) -> str:
    lines = ["lambda,mean_R,std_R,predicted_R"]
    for s in result.summary:
        lines.append(",".join([
            _fmt(s.realized_lambda), _fmt(s.mean_r), _fmt(s.std_r), _fmt(s.predicted_r),
        ]))
    return "\n".join(lines) + "\n"


def sweep_json(result: SweepResult) -> str:
    payload = {
        "config": result.config,
        "config_hash": result.config_hash,
        "rows": [
            {
                "lambda_index": r.lambda_index,
                "lambda": r.realized_lambda,
                "realization": r.realization,
                "seed": r.seed,
                "steady_R": r.steady_r,
                "converged": bool(r.converged),
                "iterations": r.iterations,
            }
            for r in result.rows
        ],
        "summary": [
            {
                "lambda": s.realized_lambda,
                "mean_R": s.mean_r,
                "std_R": s.std_r,
                "predicted_R": s.predicted_r,
            }
            for s in result.summary
        ],
        "metadata": {"wall_clock_seconds": result.wall_clock_seconds},
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def summary_path_for(path: str) -> str:
    base, ext = os.path.splitext(path)
    return f"{base}_summary{ext or '.csv'}"


def export_sweep(result: SweepResult, path: str, fmt: str = "csv") -> list:
    """Write sweep data; csv gives a data file plus a _summary sibling, json one file.

    Output is byte-stable for fixed inputs except the wall-clock metadata
    field, which lives only inside the JSON metadata object.
    """
    written = []
    if fmt == "csv":
        _write_text(path, sweep_data_csv(result))
        written.append(path)
        sp = summary_path_for(path)
        _write_text(sp, sweep_summary_csv(result))
        written.append(sp)
    elif fmt == "json":
        _write_text(path, sweep_json(result))
        written.append(path)
    else:
        raise ValidationError(f"unknown export format {fmt!r}")
    return written


def load_sweep_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def trajectory_csv(trajectory: Trajectory) -> str:
    lines = ["t,m,R_t,purity"]
    for t in range(trajectory.length):
        lines.append(",".join([
            str(t), str(int(trajectory.signals[t])),
            _fmt(float(trajectory.frustrations[t])),
            _fmt(float(trajectory.purities[t])),
        ]))
    return "\n".join(lines) + "\n"


def export_trajectory(trajectory: Trajectory, path: str) -> None:
    _write_text(path, trajectory_csv(trajectory))


# ---------------------------------------------------------------------------
# single runs (trace plots)

def single_run(exp: ExperimentConfig, matrix: StrategyMatrix | None = None
               ) -> learning.RunResult:
    """One seeded trajectory: resolve strengths, draw the matrix, iterate."""
    if exp.signals is None:
        raise ValidationError("single runs need an explicit signal count")
    rng = np.random.default_rng(exp.master_seed)
    y = _resolve_strengths(_strengths_spec(exp.strengths, exp.nodes), exp.nodes, rng)
    config = GameConfig(players=exp.players, nodes=exp.nodes, signals=exp.signals,
                        strategies_per_player=exp.strategies, strengths=y,
                        payoff_mode=exp.payoff_mode,
                        raw_efficiencies=exp.efficiencies)
    learn = LearningConfig(gamma=exp.gamma, iterations=exp.iterations,
                           snapshot_stride=exp.snapshot_stride)
    return learning.run(config, learn, rng, matrix=matrix)


# ---------------------------------------------------------------------------
# config files

def _parse_value(key: str, raw: str):
    if key in {"players", "nodes", "signals", "strategies", "iterations", "t_max",
               "window", "check_every", "realizations", "snapshot_stride", "seed"}:
        return int(raw)
    if key == "gamma":
        return float(raw)
    if key in {"strengths", "strengths_b"}:
        if raw in {"uniform", "random"}:
            return raw
        return tuple(float(v) for v in raw.split(","))
    if key in {"efficiencies", "efficiencies_b"}:
        return tuple(float(v) for v in raw.split(","))
    if key == "lambda_grid":
        return parse_lambda_grid(raw)
    if key in {"payoff_mode", "measurement"}:
        return raw
    raise ValidationError(f"unknown config key {key!r}")


def parse_lambda_grid(raw: str) -> tuple:
    """Either a comma list "0.1,0.5,1" or "start:end:count" for a linear grid."""
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid spec must be start:end:count, got {raw!r}")
        start, end, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValidationError("grid count must be >= 1")
        return tuple(float(v) for v in np.linspace(start, end, count))
    return tuple(float(v) for v in raw.split(","))


def parse_config_file(path: str) -> dict:
    """Flat key=value file with '#' comments; unknown or repeated keys are errors."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValidationError(f"{path}:{lineno}: expected key = value")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in values:
                raise ValidationError(f"{path}:{lineno}: duplicate config key {key!r}")
            values[key] = _parse_value(key, raw)
    return values


def experiment_from_file(path: str, seed: int | None = None) -> ExperimentConfig:
    values = parse_config_file(path)
    for required in ("players", "nodes", "strategies"):
        if required not in values:
            raise ValidationError(f"{path}: missing required key {required!r}")
    strengths = values.get("strengths", "uniform")
    efficiencies = values.get("efficiencies")
    if efficiencies is not None:
        if "strengths" in values:
            raise ValidationError(f"{path}: give strengths or efficiencies, not both")
        strengths = tuple(
            float(w) for w in
            StrengthDistribution.from_efficiencies(np.asarray(efficiencies)).weights
        )
    strengths_b = values.get("strengths_b")
    if values.get("efficiencies_b") is not None:
        if strengths_b is not None:
            raise ValidationError(f"{path}: give strengths_b or efficiencies_b, not both")
        strengths_b = tuple(
            float(w) for w in
            StrengthDistribution.from_efficiencies(
                np.asarray(values["efficiencies_b"])).weights
        )
    return ExperimentConfig(
        players=values["players"],
        nodes=values["nodes"],
        strategies=values["strategies"],
        signals=values.get("signals"),
        lambda_grid=values.get("lambda_grid"),
        strengths=strengths,
        strengths_b=strengths_b,
        efficiencies=efficiencies,
        payoff_mode=values.get("payoff_mode", "linear"),
        gamma=values.get("gamma", 20.0),
        iterations=values.get("iterations", 2000),
        t_max=values.get("t_max", 5000),
        window=values.get("window", 200),
        check_every=values.get("check_every", 100),
        realizations=values.get("realizations", 25),
        measurement=values.get("measurement", "final-profile"),
        snapshot_stride=values.get("snapshot_stride", 0),
        master_seed=seed if seed is not None else values.get("seed", 0),
    )
