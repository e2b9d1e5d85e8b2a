"""Iterated play: counterfactual rewards, exponential learning, replicator flow.

Each round a uniform signal is broadcast, players sample a strategy from
their softmax probabilities, bets resolve, and every player scores all of
its strategies with the payoff each one would have earned, computed in count
space as (1 - N'_r / (y_r N)) / M with N'_r the occupancy of the strategy's
node r after the player's own swap.  Only `reward_vector` still reads the
simplex vertices.  Scores feed back into the softmax.

`Lockstep`, the only play state, holds (K, S, N) scores and probabilities of
K realizations, all starting at zero scores; `lockstep_round` plays one round
of all of them per call.  Realizations of a batch share N, S, B and the
learning rates but may differ in M and strengths, and each draws from its
own generator in the order a lone run would, so its trajectory does not
depend on what else shares the batch.  `run_lockstep` plays a batch until
every realization has stopped, and writes a realization's frozen
`LearnerState` and `Trajectory` once, when it stops; `run` is a batch of one.

A realization stops at a check, every check_every rounds once 2 * window
rounds are recorded, when the kernel's purity after that round (min over
players of the largest strategy probability) reaches PURITY_THRESHOLD.  That
is the only stopping rule: a run that never reaches it plays all its rounds.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_allocation
from .game import (GameConfig, MixedProfile, PureInstance, StrategyMatrix,
                   draw_strategy_matrix, strategy_payoffs)
from .geometry import Simplex, build_simplex

log = logging.getLogger(__name__)

DEFAULT_LEARNING_RATE = 20.0
PURITY_THRESHOLD = 0.999
_ROW_BYTES = 24  # a recorded round: one int64 signal and two float64 values
_OWN_SWAP = np.array([0, 1])  # a node's occupancy after a swap: N_r if it is played, else N_r + 1


def _check_rates(gamma) -> np.ndarray:
    """gamma as a float array, after checking every rate is finite and >= 0."""
    rates = np.asarray(gamma, dtype=float)
    if not np.all((0.0 <= rates) & (rates < np.inf)):
        raise ValidationError("learning rates must be finite and >= 0")
    return rates


@dataclass
class LearningConfig:
    """Knobs of an iterated run; gamma may be a scalar or one rate per player."""

    gamma: float | np.ndarray = DEFAULT_LEARNING_RATE
    iterations: int = 2000

    def __post_init__(self):
        _check_rates(self.gamma)
        if self.iterations < 0:
            raise ValidationError("iterations must be >= 0")


@dataclass(frozen=True, eq=False)
class LearnerState:
    """A finished run's per-player (N, S) scores and softmax probabilities."""

    scores: np.ndarray
    probabilities: np.ndarray
    iteration: int

    def profile(self) -> MixedProfile:
        return MixedProfile(self.probabilities.copy())


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Per-iteration record of (signal, instantaneous frustration, purity)."""

    signals: np.ndarray
    frustrations: np.ndarray
    purities: np.ndarray

    def __len__(self) -> int:
        return len(self.signals)


@dataclass
class ConvergenceSettings:
    """Purity checks every check_every rounds, from 2 * window rounds on."""

    window: int = 200
    check_every: int = 100

    def __post_init__(self):
        if self.window < 1 or self.check_every < 1:
            raise ValidationError("window and check_every must be >= 1")


@dataclass
class RunResult:
    state: LearnerState
    trajectory: Trajectory
    matrix: StrategyMatrix
    simplex: Simplex
    converged: bool  # stopped at a purity check


def softmax_probabilities(scores, gamma: float) -> np.ndarray:
    """exp(gamma * U_s) / sum, computed max-shifted so large scores never overflow."""
    scores = np.asarray(scores, dtype=float)
    _check_rates(gamma)
    if not np.all(np.isfinite(scores)):
        raise ValidationError("scores must be finite")
    return _softmax(scores[None, :, None], gamma)[0, :, 0]


def _fold(op, a: np.ndarray) -> np.ndarray:
    """op folded over the strategy axis of a (K, S, N) array, s = 0, 1, ... in turn.

    A fixed order keeps sums independent of K and N, and for small S the
    loop of whole-row operations is cheaper than an axis reduction.
    """
    out = a[:, 0]
    for s in range(1, a.shape[1]):
        out = op(out, a[:, s])
    return out


def _softmax(scores: np.ndarray, rates) -> np.ndarray:
    """Softmax of rates * scores over the strategy axis of (K, S, N) scores."""
    z = rates * scores
    z -= _fold(np.maximum, z)[:, None]
    e = np.exp(z)
    return e / _fold(np.add, e)[:, None]


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


class Lockstep:
    """Working arrays of K realizations that share N, S and B, played in lockstep.

    `games` are (config, matrix, simplex, rng) tuples.  Scores start at zero
    and probabilities uniform, both (K, S, N); every row learns at the rates
    gamma (a scalar or one per player), one (1, 1, N) array.  Realization k's
    signal-major table is rows offsets[k] .. offsets[k] + M_k of `tables`, one
    (sum M, N, S) uint8 array, and it plays from its own generator rngs[k].
    """

    def __init__(self, games: list, gamma=DEFAULT_LEARNING_RATE):
        bases = [matrix.entries.transpose(2, 0, 1) for _, matrix, _, _ in games]
        self.tables = bases[0] if len(bases) == 1 else np.concatenate(bases)
        _, n, strategies = self.tables.shape
        self.scores = np.zeros((len(games), strategies, n))
        self.rates = np.broadcast_to(_check_rates(gamma), (1, 1, n))
        self.probabilities = _softmax(self.scores, self.rates)
        self.signal_counts = [config.signals for config, _, _, _ in games]
        self.offsets = np.cumsum([0] + self.signal_counts[:-1])
        self.signals = np.array(self.signal_counts, dtype=float)[:, None, None]
        self.inv_y = np.stack([1.0 / simplex.strengths.weights
                               for _, _, simplex, _ in games])[:, :, None]
        self.rngs = [rng for _, _, _, rng in games]
        self.nodes = self.inv_y.shape[1]
        self._index()

    def _index(self) -> None:
        k, strategies, n = self.scores.shape
        # flat index of player i's first entry in a (K, N, S) table slice
        self.cells = strategies * np.arange(k * n).reshape(k, n)
        # realization k's nodes are slots k*B .. k*B + B-1 of the (K, B) counts
        self.slot_base = self.nodes * np.arange(k)[:, None, None]

    def keep(self, rows) -> None:
        """Drop every working row not in `rows` (indices in the current order)."""
        self.scores = self.scores[rows]
        self.probabilities = self.probabilities[rows]
        self.offsets = self.offsets[rows]
        self.signals = self.signals[rows]
        self.inv_y = self.inv_y[rows]
        self.signal_counts = [self.signal_counts[j] for j in rows]
        self.rngs = [self.rngs[j] for j in rows]
        self._index()


def lockstep_round(batch: Lockstep):
    """Play one round of every realization in the batch and update it in place.

    Realization k draws its signal with rngs[k].integers(M_k) and then N
    uniforms, the order a lone run keeps, so seeded runs are reproducible
    whatever else shares the batch.  A strategy's reward depends only on its
    node r and on whether r is the played node (occupancy N_r) or not
    (N_r + 1), so rewards are computed per (k, r, swap) and gathered.
    Returns per row the signal (K,), node counts (K, B), sum_r N_r^2 / y_r (K,),
    which `_frustration` turns into R_t, and purity (K,).
    """
    k, strategies, n = batch.scores.shape
    signals = np.empty(k, dtype=np.intp)
    draws = np.empty((k, n))
    for j, rng in enumerate(batch.rngs):
        signals[j] = rng.integers(batch.signal_counts[j])
        rng.random(out=draws[j])

    # inverse-cdf sampling; the last cumulative probability counts as 1
    p = batch.probabilities
    cdf = p[:, 0]
    pick = batch.cells
    for s in range(1, strategies):
        if s > 1:
            cdf = cdf + p[:, s - 1]
        pick = pick + (draws > cdf)

    slots = batch.tables.take(batch.offsets + signals, axis=0) + batch.slot_base  # (K, N, S)
    played = slots.take(pick)                                         # (K, N)
    counts = np.bincount(played.ravel(), minlength=k * batch.nodes).reshape(k, -1)

    by_node = counts[:, :, None]
    occupancy = by_node + _OWN_SWAP                                   # (K, B, 2)
    node_reward = (1.0 - occupancy * batch.inv_y / n) / batch.signals
    swapped = slots != played[:, :, None]
    batch.scores += node_reward.take(2 * slots + swapped).transpose(0, 2, 1)
    batch.probabilities = p = _softmax(batch.scores, batch.rates)

    # one dot product per row, the same reduction a lone counts @ (counts / y) makes
    squares = np.matmul(counts[:, None, :], by_node * batch.inv_y)[:, 0, 0]
    return signals, counts, squares, _fold(np.maximum, p).min(axis=1)


def _frustration(squares, players: int, nodes: int):
    """R_t = |b|^2 / (N (B-1)) from sum_r N_r^2 / y_r, as |b|^2 = sum_r N_r^2 / y_r - N^2."""
    return (squares - players * players) / (players * (nodes - 1))


def run(config: GameConfig, learn: LearningConfig, seed,
        matrix: StrategyMatrix | None = None, simplex: Simplex | None = None,
        convergence: ConvergenceSettings | None = None) -> RunResult:
    """Iterate a game for learn.iterations rounds (stopping early if asked).

    The seed feeds a single generator that first draws the strategy matrix
    (unless one is supplied) and then drives the play stream.
    """
    rng = np.random.default_rng(seed)
    if simplex is None:
        simplex = build_simplex(config.strengths)
    if matrix is None:
        matrix = draw_strategy_matrix(config, rng)
    elif matrix.shape != (config.players, config.strategies_per_player, config.signals) \
            or matrix.entries.max(initial=0) >= config.nodes:
        raise ValidationError(f"strategy matrix {matrix.shape} does not fit {config}")
    return run_lockstep([(config, matrix, simplex, rng)], learn, convergence)[0]


def run_lockstep(games: list, learn: LearningConfig,
                 convergence: ConvergenceSettings | None = None) -> list:
    """Play (config, matrix, simplex, rng) games in lockstep; one RunResult each.

    Every game starts from the uniform state and plays up to learn.iterations
    rounds.  Each stops on its own when a check (every check_every rounds
    once 2 * window rounds are recorded) finds its purity at or above
    PURITY_THRESHOLD; its record is written then and it leaves the working
    arrays.  The games must share N, S and B; matrices must fit their configs, and
    each simplex must be built from its config's strengths.
    """
    shapes = {(c.players, c.strategies_per_player, c.nodes) for c, _, _, _ in games}
    if len(shapes) != 1:
        raise ValidationError(f"lockstep games must share N, S and B, got {sorted(shapes)}")
    (n, _, nodes), = shapes
    if not all(np.array_equal(s.strengths.weights, c.strengths.weights)
               for c, _, s, _ in games):
        raise ValidationError("a game's simplex strengths differ from its config's strengths")
    total, iterations = len(games), learn.iterations
    check_allocation(total * iterations * _ROW_BYTES,
                     f"{total} trajectories of {iterations} iterations")
    batch = Lockstep(games, learn.gamma)
    # row k holds game k's recorded rounds
    signals, frustrations, purities = (np.empty((total, iterations), dtype=dtype)
                                       for dtype in (np.int64, float, float))
    results = [None] * total
    active = np.arange(total)   # game index of each working row

    def settle(j: int, rounds: int, converged: bool) -> None:
        k = active[j]
        _, matrix, simplex, _ = games[k]
        results[k] = RunResult(
            LearnerState(batch.scores[j].T.copy(), batch.probabilities[j].T.copy(), rounds),
            Trajectory(signals[k, :rounds], frustrations[k, :rounds], purities[k, :rounds]),
            matrix, simplex, converged)

    # rounds between checks are played round-major, then written per record
    every = convergence.check_every if convergence is not None else max(iterations, 1)
    for start in range(0, iterations, every):
        end = min(start + every, iterations)
        m, squares, purity = (np.empty((end - start, active.size), dtype=dtype)
                              for dtype in (np.int64, float, float))
        for t in range(end - start):
            m[t], _, squares[t], purity[t] = lockstep_round(batch)
        signals[active, start:end] = m.T
        frustrations[active, start:end] = _frustration(squares, n, nodes).T
        purities[active, start:end] = purity.T
        # the 2 * window gate stays: with the cadence it fixes each row's iterations
        if convergence is None or end % every or end < 2 * convergence.window:
            continue
        pure = purity[-1] >= PURITY_THRESHOLD
        if pure.any():
            for j in np.flatnonzero(pure):
                settle(j, end, True)
            kept = np.flatnonzero(~pure)
            active = active[kept]
            if not active.size:
                break
            batch.keep(kept)
    for j in range(active.size):
        settle(j, iterations, False)
    return results


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
    r_t = _frustration(counts**2 @ (1.0 / config.strengths.weights), n, b_nodes)
    return Trajectory(np.full(iterations, -1), r_t, np.full(iterations, np.nan))
