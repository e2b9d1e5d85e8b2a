"""Experiment harness: config files, seeding, sweeps, averaging, export.

A sweep walks a grid of training parameters lambda = M/N, runs K independent
realizations per point (fresh strategy matrix each, fresh strengths too when
configured), measures the steady-state frustration of each run, and attaches
the analytic curve.  Every realization derives its own seed from the master
seed and its grid coordinates, so whole sweeps are reproducible byte for byte.

The (grid point, realization) tasks are dealt round-robin into one batch per
worker process; each batch sets up its realizations, plays them in lockstep
(`learning.run_lockstep`) and measures each.  A realization's row depends
only on its own seed, not on its batch or the worker count.
"""
from __future__ import annotations

import hashlib
import io
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
MAX_GRID_POINTS = 10**6  # a start:end:count grid larger than this is a typo, not a sweep

CONFIG_KEYS = {
    "players", "nodes", "signals", "strategies", "strengths", "strengths_b",
    "efficiencies", "efficiencies_b", "gamma", "iterations",
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
            if not all(0.0 < v < np.inf for v in grid):
                raise ValidationError("lambda grid values must be > 0 and finite")
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


def _run_batch(job: tuple) -> list:
    """Set up, play in lockstep and measure one batch of realizations.

    `job` is (experiment, ((grid index, realization, signal count), ...)).
    Each realization seeds its own generator from its coordinates and draws
    its strengths and strategy matrix from it before play, as it would alone.
    """
    exp, coords = job
    spec = _strengths_spec(exp.strengths, exp.nodes)
    seeds, games = [], []
    for lambda_index, realization, signals in coords:
        seed = child_seed(exp.master_seed, lambda_index, realization)
        rng = np.random.default_rng(seed)
        y = _resolve_strengths(spec, exp.nodes, rng)
        config = GameConfig(players=exp.players, nodes=exp.nodes, signals=signals,
                            strategies_per_player=exp.strategies, strengths=y)
        simplex = build_simplex(y)
        seeds.append(seed)
        games.append((config, draw_strategy_matrix(config, rng), simplex, rng))
    results = learning.run_lockstep(
        games, LearningConfig(gamma=exp.gamma, iterations=exp.t_max),
        ConvergenceSettings(window=exp.window, check_every=exp.check_every,
                            stop_reasons=("purity",)))
    rows = []
    for (lambda_index, realization, signals), seed, (config, *_), result in zip(
            coords, seeds, games, results):
        steady = measure_steady_state(result.state, result.matrix, result.simplex, config,
                                      exp.measurement, result.trajectory, exp.window)
        rows.append(RealizationRow(
            lambda_index=lambda_index,
            realized_lambda=signals / exp.players,
            realization=realization,
            seed=seed,
            steady_r=steady,
            converged=result.converged,
            iterations=result.state.iteration,
        ))
    return rows


def _worker_count(n_tasks: int) -> int:
    raw = os.environ.get(WORKERS_ENV)
    if not raw:
        return min(os.cpu_count() or 1, n_tasks)
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValidationError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return min(workers, n_tasks)


def _execute(exp: ExperimentConfig, points: list) -> list:
    """Rows of every realization at (grid index, signal count) points, in grid order.

    Tasks are dealt round-robin, not by grid point: long realizations then
    spread over the batches, and a single point still uses every worker.
    """
    coords = [(li, k, m) for li, m in points for k in range(exp.realizations)]
    workers = _worker_count(len(coords))
    jobs = [(exp, tuple(coords[j::workers])) for j in range(workers)]
    if workers == 1:
        rows = _run_batch(jobs[0])
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [row for batch in pool.map(_run_batch, jobs) for row in batch]
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


def _sweep_points(exp: ExperimentConfig, points: list) -> SweepResult:
    """Run realizations for explicit (grid index, signal count) points."""
    start = time.perf_counter()
    rows = _execute(exp, points)
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
    return _sweep_points(exp, points)


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
    exp_b = replace(exp, strengths=_strengths_spec(spec_b, exp.nodes), strengths_b=None)
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
    result_a = _sweep_points(exp, points)

    reduced_points = [(li, m * (exp.nodes - 1)) for li, m in points]
    exp_b = replace(exp, nodes=2, strengths="uniform", strengths_b=None)
    result_b = _sweep_points(exp_b, reduced_points)
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
                        strategies_per_player=exp.strategies, strengths=y)
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
    if key == "measurement":
        return raw
    raise ValidationError(f"unknown config key {key!r}")


def parse_lambda_grid(raw: str) -> tuple:
    """Either a comma list "0.1,0.5,1" or "start:end:count" for a linear grid."""
    parts = raw.split(":")
    if len(parts) not in (1, 3):
        raise ValidationError(f"grid spec must be start:end:count, got {raw!r}")
    try:
        if len(parts) == 1:
            return tuple(float(v) for v in raw.split(","))
        start, end, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"bad lambda grid {raw!r}: {exc}") from exc
    if not 1 <= count <= MAX_GRID_POINTS:
        raise ValidationError(f"grid count must be in [1, {MAX_GRID_POINTS}]")
    if not (np.isfinite(start) and np.isfinite(end)):
        raise ValidationError("grid start and end must be finite")
    return tuple(float(v) for v in np.linspace(start, end, count))


def parse_config_file(path: str) -> dict:
    """Flat UTF-8 key=value file with '#' comments; unknown or repeated keys are errors."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        content = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"{path}:{lineno}: not UTF-8 text "
                              f"(byte 0x{data[exc.start]:02x})") from exc
    values = {}
    for lineno, line in enumerate(io.StringIO(content, newline=None), start=1):
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
        try:
            values[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {key} = {raw!r}: {exc}") from exc
    return values


def experiment_from_file(path: str, seed: int | None = None) -> ExperimentConfig:
    values = parse_config_file(path)
    for required in ("players", "nodes", "strategies"):
        if required not in values:
            raise ValidationError(f"{path}: missing required key {required!r}")
    for arm in ("", "_b"):       # raw efficiencies are normalized into strengths
        if f"efficiencies{arm}" in values:
            if f"strengths{arm}" in values:
                raise ValidationError(
                    f"{path}: give strengths{arm} or efficiencies{arm}, not both")
            values[f"strengths{arm}"] = tuple(float(w) for w in (
                StrengthDistribution.from_efficiencies(values[f"efficiencies{arm}"]).weights))
    return ExperimentConfig(
        players=values["players"],
        nodes=values["nodes"],
        strategies=values["strategies"],
        signals=values.get("signals"),
        lambda_grid=values.get("lambda_grid"),
        strengths=values.get("strengths", "uniform"),
        strengths_b=values.get("strengths_b"),
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
