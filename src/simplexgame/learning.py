"""Iterated play: counterfactual rewards, exponential learning, replicator flow.

Each round a uniform signal is broadcast, players sample a strategy from
their softmax probabilities, bets resolve, and every player scores all of
its strategies with the payoff each one would have earned, computed in count
space as (1 - N'_r / (y_r N)) / M with N'_r the occupancy of the strategy's
node r after the player's own swap.  Only `reward_vector` still reads the
simplex vertices.  Scores feed back into the softmax.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .game import (GameConfig, MixedProfile, PureInstance, StrategyMatrix,
                   draw_strategy_matrix, strategy_payoffs)
from .geometry import Simplex, build_simplex

log = logging.getLogger(__name__)

DEFAULT_LEARNING_RATE = 20.0
PURITY_THRESHOLD = 0.999
PLATEAU_REL_TOL = 1e-3


@dataclass
class LearningConfig:
    """Knobs of an iterated run; gamma may be a scalar or one rate per player."""

    gamma: float | np.ndarray = DEFAULT_LEARNING_RATE
    iterations: int = 2000
    snapshot_stride: int = 0

    def __post_init__(self):
        rates = np.asarray(self.gamma, dtype=float)
        if not np.all((0.0 <= rates) & (rates < np.inf)):
            raise ValidationError("learning rates must be finite and >= 0")


class LearnerState:
    """Mutable per-player scores and softmax probabilities.

    Single-writer: `iterate` updates a state in place and must not be called
    concurrently on the same instance.  Distinct states are independent.
    """

    def __init__(self, scores, learning_rates, iteration=0):
        # strategy-major layout: reductions over S run as length-N vector operations
        self.scores = np.asarray(scores, dtype=float, order="F")
        self.learning_rates = np.asarray(learning_rates, dtype=float)
        self.iteration = int(iteration)
        self.probabilities = _softmax_rows(self.scores, self.learning_rates)

    @classmethod
    def initial(cls, config: GameConfig, gamma=DEFAULT_LEARNING_RATE) -> "LearnerState":
        rates = np.broadcast_to(np.asarray(gamma, dtype=float), (config.players,)).copy()
        if not np.all((0.0 <= rates) & (rates < np.inf)):
            raise ValidationError("learning rates must be finite and >= 0")
        return cls(np.zeros((config.players, config.strategies_per_player)), rates)

    @property
    def purity(self) -> float:
        """min over players of the largest strategy probability."""
        return float(self.probabilities.max(axis=1).min())

    def profile(self) -> MixedProfile:
        return MixedProfile(self.probabilities.copy())


class Trajectory:
    """Per-iteration record of (signal, instantaneous frustration, purity)."""

    def __init__(self, capacity: int, snapshot_stride: int = 0):
        self._signals = np.empty(capacity, dtype=np.int64)
        self._frustrations = np.empty(capacity, dtype=float)
        self._purities = np.empty(capacity, dtype=float)
        self.snapshot_stride = snapshot_stride
        self.snapshots: list[tuple[int, np.ndarray, np.ndarray]] = []
        self.length = 0

    def append(self, signal: int, frustration: float, purity: float) -> None:
        i = self.length
        self._signals[i] = signal
        self._frustrations[i] = frustration
        self._purities[i] = purity
        self.length = i + 1

    def __len__(self) -> int:
        return self.length

    @property
    def signals(self) -> np.ndarray:
        return self._signals[: self.length]

    @property
    def frustrations(self) -> np.ndarray:
        return self._frustrations[: self.length]

    @property
    def purities(self) -> np.ndarray:
        return self._purities[: self.length]


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    signal: int
    frustration: float
    purity: float
    counts: np.ndarray  # realized per-node occupancy


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    purity: float
    plateau_r: float
    reason: str | None = None  # "purity" | "plateau" | None


@dataclass
class ConvergenceSettings:
    window: int = 200
    check_every: int = 100
    purity_threshold: float = PURITY_THRESHOLD
    plateau_rel_tol: float = PLATEAU_REL_TOL
    # which detections may stop a run early; plateau detection on a noisy
    # trace false-triggers under repeated checks, so sweeps restrict to purity
    stop_reasons: tuple = ("purity", "plateau")

    def __post_init__(self):
        if self.window < 1 or self.check_every < 1:
            raise ValidationError("window and check_every must be >= 1")


@dataclass
class RunResult:
    state: LearnerState
    trajectory: Trajectory
    matrix: StrategyMatrix
    simplex: Simplex
    converged: bool
    report: ConvergenceReport | None


def softmax_probabilities(scores, gamma: float) -> np.ndarray:
    """exp(gamma * U_s) / sum, computed max-shifted so large scores never overflow."""
    scores = np.asarray(scores, dtype=float)
    if not 0.0 <= gamma < np.inf or not np.all(np.isfinite(scores)):
        raise ValidationError("gamma must be finite and >= 0, scores finite")
    return _softmax_rows(scores[None, :], np.array([gamma], dtype=float))[0]


def _softmax_rows(scores: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    z = gammas[:, None] * scores
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def reward_vector(c: StrategyMatrix, inst: PureInstance, realized_b: np.ndarray,
                  i: int, s: Simplex, config: GameConfig) -> np.ndarray:
    """Counterfactual per-strategy rewards for player i in one realized round.

    W_is = -(1/(M N)) q(c_is^m) . [b + (q(c_is^m) - q(c_i,played^m))], i.e. the
    payoff strategy s would have earned had player i swapped only its own bet,
    rescaled by 1/M.  At the played strategy the bracket reduces to b.
    """
    m = inst.signal
    qm = s.vertices[c.entries[i, :, m].astype(np.int64)]          # (S, D)
    played = s.vertices[int(c.entries[i, inst.choices[i], m])]    # (D,)
    shifted = realized_b[None, :] + qm - played[None, :]
    return -np.einsum("sd,sd->s", qm, shifted) / (config.signals * config.players)


def iterate(state: LearnerState, c: StrategyMatrix, simplex: Simplex,
            config: GameConfig, rng: np.random.Generator) -> IterationRecord:
    """Play one round and update the state in place.

    Consumes the rng in a fixed order (one signal draw, then one uniform per
    player), so a seeded generator makes whole trajectories reproducible.
    """
    n, strategies = state.scores.shape
    m = int(rng.integers(config.signals))

    # inverse-cdf sampling; the last cumulative probability counts as 1
    draws = rng.random(n)
    cdf = state.probabilities[:, 0].copy()
    choices = np.zeros(n, dtype=np.intp)
    for k in range(1, strategies):
        choices += draws > cdf
        cdf += state.probabilities[:, k]

    table = c.entries[:, :, m]                       # (N, S), contiguous
    played = table[np.arange(n), choices]
    counts = np.bincount(played, minlength=config.nodes)

    inv_y = 1.0 / simplex.strengths.weights
    occupancy = counts[table] + (table != played[:, None])
    rewards = (1.0 - occupancy * inv_y[table] / config.players) / config.signals

    state.scores += rewards
    state.probabilities = _softmax_rows(state.scores, state.learning_rates)
    state.iteration += 1

    r_t = float(counts @ (counts * inv_y) - n * n) / (config.players * (config.nodes - 1))
    return IterationRecord(state.iteration, m, r_t, state.purity, counts)


def run(config: GameConfig, learn: LearningConfig, seed,
        matrix: StrategyMatrix | None = None, simplex: Simplex | None = None,
        convergence: ConvergenceSettings | None = None) -> RunResult:
    """Iterate a game for learn.iterations rounds (stopping early if asked).

    The seed feeds a single generator that first draws the strategy matrix
    (unless one is supplied) and then drives the play stream.
    """
    if learn.iterations < 0:
        raise ValidationError("iterations must be >= 0")
    rng = np.random.default_rng(seed)
    if simplex is None:
        simplex = build_simplex(config.strengths)
    if matrix is None:
        matrix = draw_strategy_matrix(config, rng)
    elif matrix.shape != (config.players, config.strategies_per_player, config.signals) \
            or matrix.entries.max(initial=0) >= config.nodes:
        raise ValidationError(f"strategy matrix {matrix.shape} does not fit {config}")
    state = LearnerState.initial(config, learn.gamma)
    traj = Trajectory(learn.iterations, learn.snapshot_stride)

    converged = False
    report = None
    for t in range(learn.iterations):
        rec = iterate(state, matrix, simplex, config, rng)
        traj.append(rec.signal, rec.frustration, rec.purity)
        if learn.snapshot_stride and t % learn.snapshot_stride == 0:
            traj.snapshots.append((rec.iteration, rec.counts, state.probabilities.copy()))
        if convergence is not None and (t + 1) % convergence.check_every == 0 \
                and traj.length >= 2 * convergence.window:
            report = detect_convergence(state, traj, convergence.window,
                                        convergence.purity_threshold,
                                        convergence.plateau_rel_tol)
            if report.converged and report.reason in convergence.stop_reasons:
                converged = True
                break
    return RunResult(state, traj, matrix, simplex, converged, report)


def replicator_flow(c: StrategyMatrix, p: MixedProfile, simplex: Simplex,
                    config: GameConfig, gammas) -> np.ndarray:
    """dp_is/dtau = gamma_i p_is (u_i(rest; s) - u_i(mixed)).

    Better-performing strategies grow; every row of the output sums to zero,
    so the flow stays tangent to the product of probability simplices.
    """
    rows = p.rows if hasattr(p, "rows") else np.asarray(p, dtype=float)
    gammas = np.broadcast_to(np.asarray(gammas, dtype=float), (config.players,))
    per_strategy = strategy_payoffs(c, rows, simplex, config)
    mixed = np.einsum("is,is->i", rows, per_strategy)
    return gammas[:, None] * rows * (per_strategy - mixed[:, None])


def integrate_replicator(c: StrategyMatrix, p0: MixedProfile, simplex: Simplex,
                         config: GameConfig, gamma, tau_end: float,
                         step: float) -> list[MixedProfile]:
    """Classical 4-stage explicit integration of the replicator flow.

    Rows are renormalized after every step; negative components (possible
    only through roundoff or an overly large step) are clipped to zero with
    a logged warning.  A non-finite derivative aborts with a diagnostic.
    """
    if step <= 0.0:
        raise ValidationError("step must be > 0")
    n_steps = max(1, int(round(tau_end / step)))
    rows = p0.rows.copy()
    out = [MixedProfile(rows.copy())]

    def flow(r):
        d = replicator_flow(c, r, simplex, config, gamma)
        if not np.all(np.isfinite(d)):
            raise FloatingPointError(
                f"non-finite replicator derivative at tau={len(out) * step:.6g}")
        return d

    for _ in range(n_steps):
        k1 = flow(rows)
        k2 = flow(rows + 0.5 * step * k1)
        k3 = flow(rows + 0.5 * step * k2)
        k4 = flow(rows + step * k3)
        rows = rows + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.any(rows < 0.0):
            worst = float(rows.min())
            if worst < -1e-9:
                log.warning("replicator step clipped negative probability %.3e", worst)
            rows = np.clip(rows, 0.0, None)
        rows /= rows.sum(axis=1, keepdims=True)
        out.append(MixedProfile(rows.copy()))
    return out


def random_baseline(config: GameConfig, seed, iterations: int) -> Trajectory:
    """Unsophisticated play: every round each player picks node r w.p. y_r."""
    if iterations < 1:
        raise ValidationError("iterations must be >= 1")
    rng = np.random.default_rng(seed)
    n, b_nodes = config.players, config.nodes
    picks = rng.choice(b_nodes, size=(iterations, n), p=config.strengths.weights)
    counts = np.zeros((iterations, b_nodes))
    np.add.at(counts, (np.arange(iterations)[:, None], picks), 1.0)
    r_t = (counts**2 @ (1.0 / config.strengths.weights) - n * n) / (n * (b_nodes - 1))
    traj = Trajectory(iterations)
    for t in range(iterations):
        traj.append(-1, float(r_t[t]), np.nan)
    return traj


def detect_convergence(state: LearnerState, trajectory: Trajectory, window: int,
                       purity_threshold: float = PURITY_THRESHOLD,
                       plateau_rel_tol: float = PLATEAU_REL_TOL) -> ConvergenceReport:
    """Stopping rule: near-pure probabilities, or a flat frustration trace.

    Converged when min-over-players top probability reaches the threshold, or
    when the windowed mean of R_t moved by less than the relative tolerance
    between the last two windows.  plateau_r is the mean over the final window.
    """
    if trajectory.length < window:
        raise ValidationError(
            f"trajectory has {trajectory.length} iterations, need >= {window}")
    r = trajectory.frustrations
    plateau_r = float(r[-window:].mean())
    purity = state.purity
    reason = None
    if purity >= purity_threshold:
        reason = "purity"
    elif trajectory.length >= 2 * window:
        prev = float(r[-2 * window: -window].mean())
        if abs(plateau_r - prev) <= plateau_rel_tol * max(plateau_r, prev, 1e-9):
            reason = "plateau"
    return ConvergenceReport(converged=reason is not None, purity=purity,
                             plateau_r=plateau_r, reason=reason)
