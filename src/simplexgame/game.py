"""Game instances: strategy matrices, bets, allocations, payoffs, frustration.

Players process a broadcast signal m in {1..M} with S preprogrammed
strategies; each strategy maps every signal to one of B weighted nodes.
Payoffs are congestion payoffs, which the simplex encoding turns into dot
products with the aggregate bet b = sum of chosen vertices.  As q_r . q_l = -1 +
delta_rl / y_r, the mixed-profile payoffs and frustrations are computed in count
space, q_r . b = N_r / y_r - N, and nothing here reads the vertices.
A game is fixed by N, B, M, S and the strengths alone: raw per-node
efficiencies are an input format that `StrengthDistribution.from_efficiencies`
normalizes into strengths, and every payoff is the linear congestion payoff.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_allocation
from .geometry import Simplex, StrengthDistribution, _readonly

ROW_SUM_TOL = 1e-12
TABLE_BLOCK = 1 << 17  # strategy-table entries per block when drawing or reading the table
MAX_NODES = int(np.iinfo(np.uint8).max)  # node indices are stored as bytes


def check_node_count(nodes: int) -> None:
    """2 <= B <= MAX_NODES; checked before any per-node array is built."""
    if nodes < 2:
        raise ValidationError("nodes must be >= 2")
    if nodes > MAX_NODES:
        raise ValidationError(f"node indices are stored as bytes; nodes must be <= {MAX_NODES}")


@dataclass(frozen=True)
class GameConfig:
    """Static parameters of one game: N players, B nodes, M signals, S strategies."""

    players: int
    nodes: int
    signals: int
    strategies_per_player: int
    strengths: StrengthDistribution

    def __post_init__(self):
        if self.players < 1:
            raise ValidationError("players must be >= 1")
        check_node_count(self.nodes)
        if self.signals < 1:
            raise ValidationError("signals must be >= 1")
        if self.strategies_per_player < 1:
            raise ValidationError("strategies_per_player must be >= 1")
        if self.strengths.node_count != self.nodes:
            raise ValidationError(
                f"strengths have {self.strengths.node_count} nodes, config says {self.nodes}"
            )

    @property
    def training_parameter(self) -> float:
        """lambda = M/N, always recomputed from the stored fields."""
        return self.signals / self.players


@dataclass(frozen=True)
class StrategyMatrix:
    """Dense N x S x M table of node indices in {0..B-1}, stored signal-major (M, N, S)."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries)
        if e.ndim != 3:
            raise ValidationError(f"strategy matrix must be 3-d, got shape {e.shape}")
        if e.dtype != np.uint8 and (e.dtype.kind not in "biuf" or np.any(
                (e < 0) | (e > MAX_NODES) | (e % 1 != 0))):  # NaN fails the last test
            raise ValidationError(f"strategy matrix entries must be integers in [0, {MAX_NODES}]")
        by_signal = _readonly(np.ascontiguousarray(e.transpose(2, 0, 1), dtype=np.uint8))
        object.__setattr__(self, "entries", by_signal.transpose(1, 2, 0))

    @property
    def shape(self) -> tuple:
        return self.entries.shape


@dataclass(frozen=True)
class PureInstance:
    """One realized round: the broadcast signal plus each player's strategy pick."""

    signal: int
    choices: np.ndarray  # (N,) strategy indices

    def __post_init__(self):
        object.__setattr__(self, "choices",
                           _readonly(np.asarray(self.choices, dtype=np.int64)))


@dataclass(frozen=True)
class MixedProfile:
    """N x S row-stochastic matrix of strategy probabilities."""

    rows: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.rows, dtype=float)
        if p.ndim != 2:
            raise ValidationError(f"profile must be 2-d, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValidationError("profile probabilities must be finite")
        if np.any(p < 0.0):
            raise ValidationError("profile probabilities must be nonnegative")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
            raise ValidationError("each profile row must sum to 1")
        object.__setattr__(self, "rows", _readonly(p))

    @classmethod
    def uniform(cls, players: int, strategies: int) -> "MixedProfile":
        return cls(np.full((players, strategies), 1.0 / strategies))

    @classmethod
    def pure(cls, choices, strategies: int) -> "MixedProfile":
        choices = np.asarray(choices, dtype=np.int64)
        rows = np.zeros((choices.size, strategies))
        rows[np.arange(choices.size), choices] = 1.0
        return cls(rows)


@dataclass(frozen=True)
class Allocation:
    """Per-node occupancy counts for one realized round."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if np.any(c < 0):
            raise ValidationError("allocation counts must be >= 0")
        object.__setattr__(self, "counts", _readonly(c))

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def draw_strategy_matrix(config: GameConfig, rng: np.random.Generator) -> StrategyMatrix:
    """Draw every entry independently: node r with probability y_r.

    Same entries and generator state as rng.choice(B, size=(N, S, M), p=y):
    uniforms in (player, strategy, signal) order through the normalized cdf.
    Drawing blocks of player rows straight into the uint8 table keeps the
    transient to one block instead of (N, S, M) int64 picks and float uniforms.
    """
    n, s, m = config.players, config.strategies_per_player, config.signals
    check_allocation(n * s * m, f"a {n} x {s} x {m} strategy table")
    cdf = np.cumsum(config.strengths.weights)
    cdf /= cdf[-1]
    by_signal = np.empty((m, n, s), dtype=np.uint8)
    rows = max(1, TABLE_BLOCK // (s * m))
    for start in range(0, n, rows):
        uniforms = rng.random((min(rows, n - start), s, m))
        picks = cdf.searchsorted(uniforms, side="right")
        by_signal[:, start:start + rows] = picks.transpose(2, 0, 1)
    return StrategyMatrix(by_signal.transpose(1, 2, 0))


def resolve_bets(c: StrategyMatrix, inst: PureInstance,
                 nodes: int | None = None) -> tuple[np.ndarray, Allocation]:
    """Map each player's picked strategy to its node; count occupancies."""
    n, s, m = c.shape
    if not (0 <= inst.signal < m):
        raise ValidationError(f"signal {inst.signal} out of range [0, {m})")
    if inst.choices.size != n or np.any(inst.choices < 0) or np.any(inst.choices >= s):
        raise ValidationError("strategy choices out of range")
    picked = c.entries[np.arange(n), inst.choices, inst.signal].astype(np.int64)
    minlength = nodes if nodes is not None else int(c.entries.max()) + 1
    counts = np.bincount(picked, minlength=minlength)
    return picked, Allocation(counts)


def _signal_keys(c: StrategyMatrix, nodes: int):
    """(first signal, (Mb, N, S) keys m*B + c_ism) per block of at most TABLE_BLOCK entries."""
    table = c.entries.transpose(2, 0, 1)
    step = max(1, TABLE_BLOCK // (table.shape[1] * table.shape[2]))
    for start in range(0, table.shape[0], step):
        block = table[start:start + step]
        yield start, block + (np.arange(start, start + block.shape[0]) * nodes)[:, None, None]


def _signal_occupancy(c: StrategyMatrix, rows: np.ndarray, nodes: int) -> np.ndarray:
    """Mean occupancy sum_is p_is [c_ism = r] at m*B + r.

    Signals own disjoint key ranges, so one bincount per block of signals
    adds every bin's weights in the same order as one bincount of the table.
    """
    parts = []
    for start, keys in _signal_keys(c, nodes):
        weights = np.broadcast_to(rows, keys.shape).reshape(-1)
        parts.append(np.bincount(keys.reshape(-1) - start * nodes, weights,
                                 minlength=keys.shape[0] * nodes))
    return np.concatenate(parts)


def strategy_payoffs(c: StrategyMatrix, p: MixedProfile | np.ndarray, s: Simplex,
                     config: GameConfig) -> np.ndarray:
    """(N, S) matrix of signal-averaged payoffs u_i(rest mixed; strategy s).

    Entry (i, s) is the payoff player i expects when committing to its s-th
    strategy while everyone else keeps playing the mixed profile.  Dotting
    row i with p's row i recovers player i's fully mixed payoff (p may be raw
    rows).  Count space: u_is = (N - mean_m[(O_ism + 1) / y(c_ism)]) / N with
    O_ism the others' mean occupancy of node c_ism under signal m.  The table
    is read in blocks of signals, and each sum over m adds the later blocks
    row by row, so it runs in m order like one sum over the whole table.
    """
    rows = p.rows if isinstance(p, MixedProfile) else np.asarray(p, dtype=float)
    occupancy = _signal_occupancy(c, rows, s.node_count)
    inv_y = np.tile(1.0 / s.strengths.weights, c.shape[2])
    strategies = c.shape[1]
    sums = {}

    def add(key, term):   # the first block as numpy sums a whole table, then row by row
        if key not in sums:
            sums[key] = term.sum(axis=0)
        else:
            for row in term:
                sums[key] += row

    for _, keys in _signal_keys(c, s.node_count):
        w = np.take(inv_y, keys)                                       # 1 / y(c_ism)
        add("all", (np.take(occupancy, keys) + 1.0) * w)
        for j in range(strategies):  # player i's own sum_k p_ik [c_ikm = c_ijm]
            for k in range(strategies):
                add((j, k), (keys[:, :, j] == keys[:, :, k]) * w[:, :, j])
    total = sums["all"] / c.shape[2]
    for j in range(strategies):
        for k in range(strategies):
            total[:, j] -= rows[:, k] * (sums[j, k] / c.shape[2])
    return (config.players - total) / config.players


def mixed_correlated_payoff(c: StrategyMatrix, p: MixedProfile, i: int, s: Simplex,
                            config: GameConfig) -> float:
    """Player i's signal-averaged payoff with every player mixing."""
    per_strategy = strategy_payoffs(c, p, s, config)
    return float(p.rows[i] @ per_strategy[i])


def frustration(c: StrategyMatrix, p: MixedProfile, s: Simplex, config: GameConfig) -> float:
    """Signal-averaged squared mean bet, normalized by N (B-1).

    Averages the squared norm of the per-signal mean bet exactly over all M
    signals, as sum_r O_mr^2 / y_r - (sum_r O_mr)^2 on mean occupancies O_mr.
    """
    occupancy = _signal_occupancy(c, p.rows, s.node_count).reshape(-1, s.node_count)
    squared = occupancy**2 @ (1.0 / s.strengths.weights) - occupancy.sum(axis=1) ** 2
    return float(squared.sum()) / (occupancy.shape[0] * config.players * (config.nodes - 1))


def expected_frustration(c: StrategyMatrix, p: MixedProfile, s: Simplex,
                         config: GameConfig) -> float:
    """Exact frustration level of a mixed profile: -(sum_i u_i*) / (B-1).

    Unlike `frustration`, this is the expectation of |b|^2 under independent
    strategy sampling, so it includes each player's own mixing variance.  The
    two agree exactly at pure profiles.
    """
    per_strategy = strategy_payoffs(c, p, s, config)
    u_star_total = float(np.einsum("is,is->", p.rows, per_strategy))
    return -u_star_total / (config.nodes - 1)


def save_strategy_matrix(c: StrategyMatrix, path, fmt: str = "json") -> None:
    """Write the table row-major (player, strategy, signal) as JSON or raw bytes."""
    flat = c.entries.reshape(-1)
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(flat.tolist(), fh)
    elif fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(flat.tobytes())
    else:
        raise ValidationError(f"unknown strategy matrix format {fmt!r}")


def load_strategy_matrix(path, players: int, strategies: int, signals: int,
                         fmt: str = "json") -> StrategyMatrix:
    shape = (players, strategies, signals)
    check_allocation(players * strategies * signals,
                     f"a {players} x {strategies} x {signals} strategy table")
    if fmt == "json":
        with open(path) as fh:
            flat = np.asarray(json.load(fh), dtype=np.uint8)
    elif fmt == "binary":
        with open(path, "rb") as fh:
            flat = np.frombuffer(fh.read(), dtype=np.uint8)
    else:
        raise ValidationError(f"unknown strategy matrix format {fmt!r}")
    if flat.size != players * strategies * signals:
        raise ValidationError(
            f"file holds {flat.size} entries, expected {players * strategies * signals}"
        )
    return StrategyMatrix(flat.reshape(shape).copy())
