"""Experiment harness: config files, seeding, sweeps, averaging, export.

A sweep walks a grid of training parameters lambda = M/N, runs K independent
realizations per point (fresh strategy matrix each, fresh strengths too when
configured), measures the steady-state frustration of each run, and attaches
the analytic curve.  Every realization derives its own seed from the master
seed and its grid coordinates, so whole sweeps are reproducible byte for byte.

The (grid point, realization) tasks are dealt round-robin into one batch per
worker process; each batch sets up its realizations as (config, matrix, rng)
games, plays them in lockstep (`learning.run_lockstep`) and measures each
from its `RunResult`, which carries its game's config and last `window`
rounds.  No simplex is built: every measurement is computed in count space.
A realization's row depends only on its own seed, not its batch or worker count.
`ExperimentConfig` checks every field as it is built, and `experiment_from_file`
alone turns a failed check's `ValidationError.fields` into a `file:line`.
"""
from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import time
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import analytics, learning
from .errors import ValidationError, check_count
from .game import (GameConfig, MixedProfile, StrengthDistribution, check_node_count,
                   draw_strategy_matrix, expected_frustration)

WORKERS_ENV = "SIMPLEXGAME_WORKERS"
MEASUREMENT_MODES = ("final-profile", "windowed-trace")
MAX_GRID_POINTS = 10**6  # a start:end:count grid larger than this is a typo, not a sweep
_CSV_ROUNDS = 1 << 14  # rounds formatted at a time when a trajectory is written
# (field, least value) of each count of an ExperimentConfig but nodes, in check order
_COUNT_FIELDS = (("players", 1), ("strategies", 1), ("signals", 1), ("realizations", 1),
                 ("iterations", 0), ("t_max", 0), ("window", 1), ("check_every", 1),
                 ("master_seed", 0))


@dataclass
class ExperimentConfig:
    """Everything one experiment needs, and the one copy of each default.
    `strengths` (and `strengths_b`, the second arm of a comparison, if not
    None) may be a distribution, "uniform", None, a sequence of B weights, or
    "random" (fresh proper strengths per realization); each is normalized to
    "random" or a tuple of B weights.  A sweep plays each realization for up to
    t_max rounds, a single run for `iterations`."""

    players: int
    nodes: int
    strategies: int
    signals: int | None = None
    lambda_grid: tuple | None = None
    strengths: object = "uniform"
    strengths_b: object = None
    gamma: float = 20.0
    iterations: int = 2000
    t_max: int = 5000
    window: int = 200
    check_every: int = 100
    realizations: int = 25
    measurement: str = "final-profile"
    master_seed: int = 0

    def __post_init__(self):
        """Check every field, tagging a failed check's ValidationError with it
        (t_max against window with both, t_max first), and last what play would
        find overflowing under fixed strengths: each arm's game at the largest
        and smallest grid M with gamma over t_max, as a sweep's batches play
        it, then at `signals` with gamma over `iterations`, as a run does."""
        try:
            field = "nodes"
            check_node_count(self.nodes)   # before any per-node strengths are built
            for field, least in _COUNT_FIELDS:
                if getattr(self, field) is not None:
                    check_count(getattr(self, field), field, least)
            for field in ("strengths", "strengths_b"):
                if field == "strengths" or self.strengths_b is not None:
                    setattr(self, field, _strengths_field(field, getattr(self, field), self.nodes))
            field = "gamma"
            rate = learning._check_rate(self.gamma)
            for field, bad, message in (
                    (("t_max", "window"), self.t_max < self.window, "t_max must be >= window"),
                    ("measurement", self.measurement not in MEASUREMENT_MODES,
                     f"measurement must be one of {MEASUREMENT_MODES}")):
                if bad:
                    raise ValidationError(message)
            field = "lambda_grid"
            if self.lambda_grid is not None:
                grid = tuple(float(v) for v in self.lambda_grid)
                # players >= 1, so a finite lambda * players is a finite lambda
                try:
                    finite = all(0.0 < v and v * self.players < np.inf for v in grid)
                except OverflowError:   # more players than a float holds
                    finite = False
                if not finite:
                    raise ValidationError("lambda grid values must be > 0, "
                                          "with lambda * players finite")
                self.lambda_grid = grid or None
            for arm in ("strengths", "strengths_b"):
                weights = getattr(self, arm)
                if weights is None or weights == "random":
                    continue
                plays = []   # (signal count, rounds) of the games the experiment plays
                if self.lambda_grid is not None:
                    signals = [signals_for(lam, self.players) for lam in self.lambda_grid]
                    plays += [(max(signals), self.t_max), (min(signals), self.t_max)]
                if self.signals is not None:
                    plays.append((self.signals, self.iterations))
                for signals, rounds in plays:
                    field = arm   # GameConfig checks the count-space terms
                    game = _draw_game(self, weights, signals)
                    field = "gamma"
                    learning._check_score_range(rate, rounds, game)
        except ValidationError as exc:
            exc.fields = (field,) if isinstance(field, str) else field
            raise


def _strengths_field(name: str, value, nodes: int):
    """The marker "random", or the tuple of `nodes` weights a strengths field means."""
    if isinstance(value, str) and value == "random":
        return value
    if value is None or isinstance(value, str) and value == "uniform":
        value = StrengthDistribution.uniform(nodes)
    try:
        y = StrengthDistribution(getattr(value, "weights", value))
        if y.node_count != nodes:
            raise ValidationError(f"strengths have {y.node_count} nodes, config says {nodes}")
    except (TypeError, ValueError) as exc:   # ValidationError is a ValueError
        raise ValidationError(f"{name}: {exc}") from exc
    return tuple(y.weights.tolist())


def _draw_game(exp: ExperimentConfig, strengths, signals: int, rng=None) -> GameConfig:
    """exp's game at `signals` signals under `strengths`, a strengths field's
    value; "random" strengths are drawn from `rng` first."""
    y = (StrengthDistribution.random_proper(exp.nodes, rng) if strengths == "random"
         else StrengthDistribution(strengths))
    return GameConfig(players=exp.players, nodes=exp.nodes, signals=signals,
                      strategies_per_player=exp.strategies, strengths=y)


def signals_for(lam: float, players: int) -> int:
    """M = round(lambda * N), half away from zero, clamped to >= 1."""
    check_count(players, "players", 1)
    return max(1, int(np.floor(lam * players + 0.5)))


def child_seed(master_seed: int, lambda_index: int, realization: int) -> int:
    """Derived 64-bit seed for one realization.

    The triple (master seed, grid index, realization index) is fed as the
    entropy of a SeedSequence, so distinct coordinates give independent
    streams by construction; the returned word reproduces the realization.
    """
    for name, value in (("master_seed", master_seed), ("lambda_index", lambda_index),
                        ("realization", realization)):
        check_count(value, name)
    ss = np.random.SeedSequence((int(master_seed), int(lambda_index), int(realization)))
    return int(ss.generate_state(1, np.uint64)[0])


def measure_steady_state(result: learning.RunResult, mode: str, window: int) -> float:
    """Steady-state frustration of a finished run.

    final-profile evaluates the exact signal-averaged frustration of the final
    mixed profile (deterministic); windowed-trace averages the instantaneous
    trace over the last `window` iterations, matching what a trace plot shows.
    """
    if mode == "final-profile":
        return expected_frustration(result.matrix, MixedProfile(result.probabilities),
                                    result.config)
    if mode == "windowed-trace":
        check_count(window, "window", 1)
        if not result.frustrations.size:
            raise ValidationError("windowed-trace mode needs a non-empty trajectory")
        return float(result.frustrations[-window:].mean())
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


def _run_batch(job: tuple) -> list:
    """Set up, play in lockstep and measure one batch of realizations.

    `job` is (experiment, ((grid index, realization, signal count), ...)).
    Each realization seeds its own generator from its coordinates and draws
    its strengths and strategy matrix from it before play, as it would alone.
    """
    exp, coords = job
    seeds, games = [], []
    for lambda_index, realization, signals in coords:
        seed = child_seed(exp.master_seed, lambda_index, realization)
        rng = np.random.default_rng(seed)
        config = _draw_game(exp, exp.strengths, signals, rng)
        seeds.append(seed)
        games.append((config, draw_strategy_matrix(config, rng), rng))
    results = learning.run_lockstep(games, exp.gamma, exp.t_max, exp.check_every, exp.window)
    rows = []
    for (lambda_index, realization, signals), seed, result in zip(coords, seeds, results):
        rows.append(RealizationRow(
            lambda_index=lambda_index, realized_lambda=signals / exp.players,
            realization=realization, seed=seed,
            steady_r=measure_steady_state(result, exp.measurement, exp.window),
            converged=result.converged, iterations=result.iterations))
    return rows


def _worker_count(n_tasks: int) -> int:
    """SIMPLEXGAME_WORKERS, or else all CPUs this process may run on, capped at
    those CPUs and at the task count."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    raw = os.environ.get(WORKERS_ENV)
    if not raw:
        return min(cpus, n_tasks)
    try:
        workers = int(raw)
    except ValueError:
        workers = raw
    check_count(workers, WORKERS_ENV, 1)
    return min(workers, cpus, n_tasks)


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
        # imported here: it loads multiprocessing, socket and subprocess, which
        # a one-worker run and every other command never use
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = [row for batch in pool.map(_run_batch, jobs) for row in batch]
        except BrokenProcessPool as exc:
            raise OSError(f"a sweep worker, one of {workers} processes, died: {exc}") from exc
    return sorted(rows, key=lambda r: (r.lambda_index, r.realization))


def _summarize(rows: list, strategies: int, nodes: int) -> list:
    """One summary row per grid point of `rows`, which `_execute` sorts by grid index."""
    summary = []
    for _, group in itertools.groupby(rows, key=lambda r: r.lambda_index):
        group = list(group)
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
    """The fields that define a sweep (hash input); `iterations` sizes single runs
    only, and a comparison sweeps its `strengths_b` arm as an experiment of its own."""
    return {f.name: getattr(exp, f.name) for f in fields(exp)
            if f.name not in ("iterations", "strengths_b")}


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


def _grid_points(exp: ExperimentConfig, what: str) -> list:
    """(grid index, signal count) of every lambda grid point."""
    if not exp.lambda_grid:
        raise ValidationError(f"{what} needs a lambda_grid")
    return [(li, signals_for(lam, exp.players)) for li, lam in enumerate(exp.lambda_grid)]


def sweep(exp: ExperimentConfig) -> SweepResult:
    """Run the full lambda grid of an experiment."""
    return _sweep_points(exp, _grid_points(exp, "sweep"))


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
    return [ComparisonRow(realized_lambda=sa.realized_lambda, mean_a=sa.mean_r,
                          mean_b=sb.mean_r, gap=abs(sa.mean_r - sb.mean_r),
                          pooled_se=float(np.hypot(sa.std_r / np.sqrt(k),
                                                   sb.std_r / np.sqrt(k))))
            for sa, sb in zip(result_a.summary, result_b.summary)]


def compare_strengths(exp: ExperimentConfig) -> ComparisonResult:
    """Paired-seed sweeps of the same game under `strengths` and `strengths_b`."""
    if exp.strengths_b is None:
        raise ValidationError("compare_strengths needs a second strength distribution")
    exp_b = replace(exp, strengths=exp.strengths_b, strengths_b=None)  # checked before any play
    result_a = sweep(exp)
    result_b = sweep(exp_b)
    return ComparisonResult(result_a, result_b, _pair(result_a, result_b, exp.realizations))


def verify_reduction(exp: ExperimentConfig) -> ComparisonResult:
    """Paired-seed sweeps of a game and its 2-node reduction (signals scaled by B-1).

    The reduced arm is anchored on the original arm's signal counts: each grid
    point's M becomes exactly M * (B - 1), so both arms sit on the same
    predicted curve.
    """
    points = _grid_points(exp, "verify_reduction")
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


def _write_text(path, text) -> None:
    """Write `text`: one string, or an iterable of strings written in turn."""
    try:
        with open(path, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _csv_lines(rows):
    return (",".join(map(_fmt, row)) + "\n" for row in rows)


def csv_text(header: str, rows) -> str:
    """The header line, then one line of comma-joined cells per row."""
    return "".join([header, "\n", *_csv_lines(rows)])


# the columns of the data and summary files, which name the JSON fields too
_ROW_COLUMNS = "lambda,realization,seed,steady_R,converged,iterations"
_SUMMARY_COLUMNS = "lambda,mean_R,std_R,predicted_R"


def _row_cells(r: RealizationRow) -> tuple:
    return (r.realized_lambda, r.realization, r.seed, r.steady_r, bool(r.converged),
            r.iterations)


def _summary_cells(s: SummaryRow) -> tuple:
    return s.realized_lambda, s.mean_r, s.std_r, s.predicted_r


def sweep_data_csv(result: SweepResult) -> str:
    return csv_text(_ROW_COLUMNS, map(_row_cells, result.rows))


def sweep_summary_csv(result: SweepResult) -> str:
    return csv_text(_SUMMARY_COLUMNS, map(_summary_cells, result.summary))


def sweep_json(result: SweepResult) -> str:
    payload = {
        "config": result.config,
        "config_hash": result.config_hash,
        "rows": [dict(zip(_ROW_COLUMNS.split(","), _row_cells(r)),
                      lambda_index=r.lambda_index) for r in result.rows],
        "summary": [dict(zip(_SUMMARY_COLUMNS.split(","), _summary_cells(s)))
                    for s in result.summary],
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
    if fmt == "csv":
        texts = {path: sweep_data_csv(result),
                 summary_path_for(path): sweep_summary_csv(result)}
    elif fmt == "json":
        texts = {path: sweep_json(result)}
    else:
        raise ValidationError(f"unknown export format {fmt!r}")
    for target, text in texts.items():
        _write_text(target, text)
    return list(texts)


def _trajectory_csv(result: learning.RunResult):
    """The `t,m,R_t,purity` CSV of every held round, in texts of _CSV_ROUNDS rounds."""
    yield "t,m,R_t,purity\n"
    rounds = len(result.signals)
    for start in range(0, rounds, _CSV_ROUNDS):
        part = slice(start, start + _CSV_ROUNDS)
        yield "".join(_csv_lines(zip(
            range(start, rounds), result.signals[part].tolist(),
            result.frustrations[part].tolist(), result.purities[part].tolist())))


def export_trajectory(result: learning.RunResult, path: str) -> None:
    """Write a run's trajectory CSV, holding the text of one chunk of rounds at a time."""
    _write_text(path, _trajectory_csv(result))


# ---------------------------------------------------------------------------
# single runs (trace plots)

def single_run(exp: ExperimentConfig) -> learning.RunResult:
    """One seeded trajectory: resolve strengths, draw the matrix, iterate."""
    if exp.signals is None:
        raise ValidationError("single runs need an explicit signal count")
    rng = np.random.default_rng(exp.master_seed)
    return learning.run(_draw_game(exp, exp.strengths, exp.signals, rng), rng,
                        gamma=exp.gamma, iterations=exp.iterations)


# ---------------------------------------------------------------------------
# config files

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
    check_count(count, "grid count", 1, MAX_GRID_POINTS + 1)
    if not (np.isfinite(start) and np.isfinite(end)):
        raise ValidationError("grid start and end must be finite")
    return tuple(float(v) for v in np.linspace(start, end, count))


def parse_strengths(raw: str):
    """Strengths text: "uniform", "random", or a comma list of weights."""
    if raw in ("uniform", "random"):
        return raw
    return tuple(float(v) for v in raw.split(","))


def _parse_efficiencies(raw: str) -> StrengthDistribution:
    return StrengthDistribution.from_efficiencies(tuple(float(v) for v in raw.split(",")))


# config key -> (ExperimentConfig field, parser of the value text)
CONFIG_KEYS = {
    "players": ("players", int),
    "nodes": ("nodes", int),
    "signals": ("signals", int),
    "strategies": ("strategies", int),
    "strengths": ("strengths", parse_strengths),
    "strengths_b": ("strengths_b", parse_strengths),
    "efficiencies": ("strengths", _parse_efficiencies),
    "efficiencies_b": ("strengths_b", _parse_efficiencies),
    "gamma": ("gamma", float),
    "iterations": ("iterations", int),
    "t_max": ("t_max", int),
    "window": ("window", int),
    "check_every": ("check_every", int),
    "lambda_grid": ("lambda_grid", parse_lambda_grid),
    "realizations": ("realizations", int),
    "measurement": ("measurement", str),
    "seed": ("master_seed", int),
}


def _parse_config(path: str) -> tuple[dict, dict]:
    """ExperimentConfig fields from a flat UTF-8 key=value file with '#'
    comments, and the line number that set each one.

    Unknown keys, and a second key for a field already set, are errors.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        content = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"{path}:{lineno}: not UTF-8 text "
                              f"(byte 0x{data[exc.start]:02x})") from exc
    values, set_by, set_at = {}, {}, {}
    for lineno, line in enumerate(io.StringIO(content, newline=None), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ValidationError(f"{path}:{lineno}: expected key = value")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        field, parse = CONFIG_KEYS[key]
        if field in set_by:
            other = set_by[field]
            raise ValidationError(f"{path}:{lineno}: " + (
                f"duplicate config key {key!r}" if other == key else
                f"{key!r} and {other!r} both set {field}; give one of them"))
        set_by[field], set_at[field] = key, lineno
        try:
            values[field] = parse(raw)
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {key} = {raw!r}: {exc}") from exc
    return values, set_at


def experiment_from_file(path: str, seed: int | None = None) -> ExperimentConfig:
    """The experiment a config file describes, a bad value failing at `file:line`;
    `seed` overrides its `seed` key."""
    values, set_at = _parse_config(path)
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in values:
            raise ValidationError(f"{path}: missing required key {f.name!r}")
    if seed is not None:
        values["master_seed"] = seed
        set_at.pop("master_seed", None)
    try:
        return ExperimentConfig(**values)
    except ValidationError as exc:
        where = next((f"{path}:{set_at[f]}" for f in exc.fields if f in set_at), path)
        raise ValidationError(f"{where}: {exc}") from exc
