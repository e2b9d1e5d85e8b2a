"""Game instances: strategy matrices, bets, allocations, payoffs, frustration.

Players process a broadcast signal m in {1..M} with S preprogrammed
strategies; each strategy maps every signal to one of B weighted nodes.
Payoffs are congestion payoffs, which the simplex encoding turns into dot
products with the aggregate bet b = sum of chosen vertices.  As q_r . q_l = -1 +
delta_rl / y_r, the mixed-profile payoffs and frustrations are computed in count
space, q_r . b = N_r / y_r - N, and nothing here reads the vertices.
The (N, S, M) table is drawn by counting cdf thresholds below each uniform
and read once per payoff evaluation, one block of signals at a time; both give
the same bytes as rng.choice and as one whole-table sum in signal order.
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
TABLE_BLOCK = 1 << 17  # table entries per drawn or read block; payoff terms per payoff block
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
    A uniform u picks the number of thresholds cdf[r] <= u, which is what
    rng.choice's cdf.searchsorted(u, side="right") returns; cdf[-1] is exactly
    1.0, above every uniform, so only the B-1 inner thresholds are counted.
    Counting them into the uint8 table, one block of player rows at a time,
    keeps the transient to one block of uniforms.
    """
    n, s, m = config.players, config.strategies_per_player, config.signals
    check_allocation(n * s * m, f"a {n} x {s} x {m} strategy table")
    cdf = np.cumsum(config.strengths.weights)
    cdf /= cdf[-1]
    by_signal = np.empty((m, n, s), dtype=np.uint8)
    rows = max(1, TABLE_BLOCK // (s * m))
    for start in range(0, n, rows):
        uniforms = rng.random((min(rows, n - start), s, m))
        picks = np.zeros(uniforms.shape, dtype=np.uint8)
        above = np.empty(uniforms.shape, dtype=bool)
        for threshold in cdf[:-1]:
            np.greater_equal(uniforms, threshold, out=above)
            picks += above.view(np.uint8)
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


def _check_fit(c: StrategyMatrix, rows: np.ndarray, s: Simplex, config: GameConfig) -> None:
    """The table, the simplex and the (N, S) profile rows all belong to config's game."""
    if c.shape != (config.players, config.strategies_per_player, config.signals) \
            or s.node_count != config.nodes:
        raise ValidationError(f"a {' x '.join(map(str, c.shape))} strategy table on a "
                              f"{s.node_count}-node simplex does not fit {config}")
    if rows.shape != c.shape[:2]:
        raise ValidationError(f"profile has shape {rows.shape}, the game needs {c.shape[:2]}")


def _signal_blocks(c: StrategyMatrix, rows: np.ndarray, nodes: int, step: int):
    """(keys, occupancy) per block of `step` signals, in signal order.

    keys (Mb, N, S) = m*B + c_ism with m counted from the block's first signal,
    and occupancy[m*B + r] = sum_is p_is [c_ism = r] is that signal's mean
    occupancy.  Signals own disjoint key ranges, so one bincount per block
    adds every bin's weights in the same order as one bincount of the table.
    The keys live in one buffer that the next block overwrites.
    """
    table = c.entries.transpose(2, 0, 1)
    step = min(step, table.shape[0])
    offsets = (np.arange(step) * nodes)[:, None, None]
    weights = np.broadcast_to(rows, (step,) + table.shape[1:]).reshape(-1)
    buffer = np.empty((step,) + table.shape[1:], dtype=np.intp)
    for start in range(0, table.shape[0], step):
        block = table[start:start + step]
        if block.max() >= nodes:
            raise ValidationError(f"strategy table holds node {block.max()} "
                                  f"of a {nodes}-node game")
        keys = np.add(block, offsets[:block.shape[0]], out=buffer[:block.shape[0]])
        yield keys, np.bincount(keys.reshape(-1), weights[:keys.size],
                                minlength=keys.shape[0] * nodes)


def strategy_payoffs(c: StrategyMatrix, p: MixedProfile | np.ndarray, s: Simplex,
                     config: GameConfig) -> np.ndarray:
    """(N, S) matrix of signal-averaged payoffs u_i(rest mixed; strategy s).

    Entry (i, s) is the payoff player i expects when committing to its s-th
    strategy while everyone else keeps playing the mixed profile.  Dotting
    row i with p's row i recovers player i's fully mixed payoff (p may be raw
    rows).  Count space: u_is = (N - mean_m[(O_ism + 1) / y(c_ism)]) / N with
    O_ism the others' mean occupancy of node c_ism under signal m.

    One pass over the table.  Each block of signals gathers (O + 1) / y and
    player i's own 1 / y per entry with one take, and [c_ijm = c_ikm] / y(c_ijm)
    for each pair j < k (the pair (k, j) is the same number and (j, j) is the
    own term).  The terms go into stacks below the running sums, and one sum
    over a stack's signal axis adds them row by row: every sum runs in m order,
    as one sum over the whole table would, whatever the block size.
    """
    rows = p.rows if isinstance(p, MixedProfile) else np.asarray(p, dtype=float)
    _check_fit(c, rows, s, config)
    n, strategies, m = c.shape
    pairs = [(j, k) for j in range(strategies) for k in range(j + 1, strategies)]
    # Row 0 of a stack holds the running sums.  numpy sums a lone contiguous
    # axis pairwise, out of m order, so a one-player pair stack gets a spare column.
    width = 2 if n * len(pairs) == 1 else len(pairs)
    # a block's stacked terms fill at most TABLE_BLOCK numbers
    signals = min(m, max(1, TABLE_BLOCK // (n * (2 * strategies + width))))
    inv_y = np.tile(1.0 / s.strengths.weights, signals)
    lookup = np.empty((inv_y.size, 2))   # per (signal, node): (O + 1) / y and 1 / y
    stack = np.zeros((signals + 1, n, strategies, 2))
    pair_stack = np.zeros((signals + 1, n, width))
    sums, pair_sums = np.zeros(stack.shape[1:]), np.zeros(pair_stack.shape[1:])
    for keys, occupancy in _signal_blocks(c, rows, s.node_count, signals):
        size = keys.shape[0]
        per_key = lookup[:occupancy.size]
        np.multiply(occupancy + 1.0, inv_y[:occupancy.size], out=per_key[:, 0])
        per_key[:, 1] = inv_y[:occupancy.size]
        terms = stack[1:size + 1]
        # keys are in range; "clip" lets take write into the stack without a copy
        np.take(per_key, keys, axis=0, out=terms, mode="clip")
        for col, (j, k) in enumerate(pairs):
            np.multiply(keys[..., j] == keys[..., k], terms[..., j, 1],
                        out=pair_stack[1:size + 1, :, col])
        for stacked, running in ((stack, sums), (pair_stack, pair_sums)):
            stacked[0] = running
            np.sum(stacked[:size + 1], axis=0, out=running)
    same = {(j, j): sums[:, j, 1] for j in range(strategies)}
    for col, (j, k) in enumerate(pairs):
        same[j, k] = same[k, j] = pair_sums[:, col]
    total = sums[:, :, 0] / m
    for j in range(strategies):   # player i's own sum_k p_ik [c_ikm = c_ijm]
        for k in range(strategies):
            total[:, j] -= rows[:, k] * (same[j, k] / m)
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
    _check_fit(c, p.rows, s, config)
    step = max(1, TABLE_BLOCK // (config.players * config.strategies_per_player))
    occupancy = np.concatenate([occupancy for _, occupancy in
                                _signal_blocks(c, p.rows, s.node_count, step)])
    occupancy = occupancy.reshape(-1, s.node_count)
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
    """Read a table written by `save_strategy_matrix`.

    A JSON file must hold one flat list of integer node indices in
    [0, MAX_NODES]; anything else (floats, booleans, nesting, out-of-range
    values) is a ValidationError rather than a silently cast byte.
    """
    shape = (players, strategies, signals)
    check_allocation(players * strategies * signals,
                     f"a {players} x {strategies} x {signals} strategy table")
    if fmt == "json":
        with open(path) as fh:
            try:
                values = json.load(fh)
            except json.JSONDecodeError as err:
                raise ValidationError(f"strategy matrix file is not JSON: {err}") from None
        # bool is a subclass of int; StrategyMatrix checks the range
        if not isinstance(values, list) or not all(type(v) is int for v in values):
            raise ValidationError("a JSON strategy matrix must be a flat list of integers")
        flat = np.array(values)
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
