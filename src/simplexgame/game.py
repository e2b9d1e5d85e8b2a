"""Game instances: strategy matrices, bets, occupancies, payoffs, frustration.

Players process a broadcast signal m in {1..M} with S preprogrammed
strategies; each strategy maps every signal to one of B weighted nodes.
Payoffs are congestion payoffs, which the simplex encoding turns into dot
products with the aggregate bet b = sum of chosen vertices.  As q_r . q_l = -1 +
delta_rl / y_r, the mixed-profile payoffs, and through them the expected
frustration, are computed in count space, q_r . b = N_r / y_r - N, and nothing
here reads the vertices.
The (N, S, M) table is drawn by counting cdf thresholds below each uniform
and read once per payoff evaluation, one block of signals at a time; both give
the same bytes as rng.choice and as one whole-table sum in signal order.
A game is fixed by N, B, M, S and the strengths alone, and the strengths live
here: `from_efficiencies` normalizes raw per-node efficiencies into them,
`random_proper` draws them, and `GameConfig` rejects any whose count-space
terms overflow.  Every payoff is the linear congestion payoff.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStrengthsError, ValidationError, check_allocation, check_count

SUM_TOL = 1e-12   # strengths and each profile row sum to 1 within this
PROPERNESS_THRESHOLD = 10.0   # largest degeneracy index `random_proper` accepts
MAX_PROPER_DRAWS = 10_000
TABLE_BLOCK = 1 << 17  # table entries per drawn or read block; payoff terms per payoff block
MAX_NODES = int(np.iinfo(np.uint8).max)  # node indices are stored as bytes


def check_node_count(nodes: int) -> None:
    """2 <= B <= MAX_NODES; checked before any per-node array is built."""
    check_count(nodes, "nodes", 2)
    if nodes > MAX_NODES:
        raise ValidationError(f"node indices are stored as bytes; nodes must be <= {MAX_NODES}")


def _readonly(a: np.ndarray, given=None) -> np.ndarray:
    """a, made from the caller's `given`, read-only and C-contiguous: copied if it
    views `given` and an array under it is writeable, so a caller's array is
    neither aliased nor frozen, and a drawn or loaded table is not copied."""
    a = np.ascontiguousarray(a)
    base = a
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if isinstance(base, np.ndarray) and np.may_share_memory(a, given):
        a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class StrengthDistribution:
    """Normalized node strengths: all weights positive, summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.size < 2:
            raise ValidationError(f"need at least 2 nodes, got {w.size}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("strengths must be finite")
        if np.any(w <= 0.0):
            raise ValidationError("every strength must be > 0")
        if abs(w.sum() - 1.0) > SUM_TOL:
            raise ValidationError(f"strengths must sum to 1 (got {float(w.sum())!r})")
        object.__setattr__(self, "weights", _readonly(w, self.weights))

    @property
    def node_count(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, node_count: int) -> "StrengthDistribution":
        check_count(node_count, "node_count", 2)
        return cls(np.full(node_count, 1.0 / node_count))

    @classmethod
    def from_efficiencies(cls, raw: np.ndarray) -> "StrengthDistribution":
        """Normalize raw per-node spectral efficiencies (e.g. Mbps) to strengths."""
        raw = np.asarray(raw, dtype=float).reshape(-1)
        if raw.size < 2 or np.any(raw <= 0.0) or not np.all(np.isfinite(raw)):
            raise ValidationError("efficiencies must be at least 2 positive finite values")
        return cls(raw / raw.sum())

    @classmethod
    def random_proper(cls, node_count, rng, alpha=1.0) -> "StrengthDistribution":
        """Draw Dirichlet(alpha) strengths until one's degeneracy index is at most
        PROPERNESS_THRESHOLD; DegenerateStrengthsError after MAX_PROPER_DRAWS."""
        check_count(node_count, "node_count", 2)
        if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real) \
                or not 0.0 < alpha < np.inf:
            raise ValidationError(f"alpha must be a finite number > 0, got {alpha!r}")
        for _ in range(MAX_PROPER_DRAWS):
            y = cls(rng.dirichlet(np.full(node_count, float(alpha))))
            if _properness_index(y) <= PROPERNESS_THRESHOLD:
                return y
        raise DegenerateStrengthsError(f"no proper strengths in {MAX_PROPER_DRAWS} draws")


def _properness_index(y: StrengthDistribution) -> float:
    """Degeneracy index (1/(B-1)) sum_r (1/y_r - B); zero iff y is uniform."""
    return float(np.sum(1.0 / y.weights - y.node_count) / (y.node_count - 1))


@dataclass(frozen=True)
class GameConfig:
    """Static parameters of one game: N players, B nodes, M signals, S strategies."""

    players: int
    nodes: int
    signals: int
    strategies_per_player: int
    strengths: StrengthDistribution

    def __post_init__(self):
        check_node_count(self.nodes)
        for field in ("players", "signals", "strategies_per_player"):
            check_count(getattr(self, field), field, 1)
        if self.strengths.node_count != self.nodes:
            raise ValidationError(f"strengths have {self.strengths.node_count} nodes, "
                                  f"config says {self.nodes}")
        # the largest count-space term, a payoff sum over M signals of (N + 1)^2 / y_r,
        # must be finite; comparing the exact integer side never overflows
        weakest = float(self.strengths.weights.min())
        if self.signals * (self.players + 1) ** 2 > float(np.finfo(float).max) * weakest:
            raise ValidationError(
                f"strengths down to {weakest!r} overflow the count-space terms of "
                f"{self.players} players and {self.signals} signals")

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
        if e.dtype != np.uint8 and (e.dtype.kind not in "iuf" or np.any(
                (e < 0) | (e > MAX_NODES) | (e % 1 != 0))):  # NaN fails the last test
            raise ValidationError(f"strategy matrix entries must be integers in [0, {MAX_NODES}]")
        by_signal = _readonly(e.transpose(2, 0, 1).astype(np.uint8, copy=False), self.entries)
        object.__setattr__(self, "entries", by_signal.transpose(1, 2, 0))

    @property
    def shape(self) -> tuple:
        return self.entries.shape


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
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > SUM_TOL:
            raise ValidationError("each profile row must sum to 1")
        object.__setattr__(self, "rows", _readonly(p, self.rows))

    @classmethod
    def uniform(cls, players: int, strategies: int) -> "MixedProfile":
        check_count(players, "players", 1)
        check_count(strategies, "strategies", 1)
        return cls(np.full((players, strategies), 1.0 / strategies))

    @classmethod
    def pure(cls, choices, strategies: int) -> "MixedProfile":
        check_count(strategies, "strategies", 1)
        choices = _check_choices(choices, strategies, np.size(choices))
        rows = np.zeros((choices.size, strategies))
        rows[np.arange(choices.size), choices] = 1.0
        return cls(rows)


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
    rows = max(1, TABLE_BLOCK // (s * m))
    # the table, and one block's uniforms, picks and flags: 8 + 1 + 1 bytes an entry
    check_allocation(n * s * m + 10 * min(rows, n) * s * m,
                     f"a {n} x {s} x {m} strategy table and its draw")
    cdf = np.cumsum(config.strengths.weights)
    cdf /= cdf[-1]
    by_signal = np.empty((m, n, s), dtype=np.uint8)
    for start in range(0, n, rows):
        uniforms = rng.random((min(rows, n - start), s, m))
        picks = np.zeros(uniforms.shape, dtype=np.uint8)
        above = np.empty(uniforms.shape, dtype=bool)
        for threshold in cdf[:-1]:
            np.greater_equal(uniforms, threshold, out=above)
            picks += above.view(np.uint8)
        by_signal[:, start:start + rows] = picks.transpose(2, 0, 1)
        del uniforms, picks, above   # freed before the next block is drawn
    by_signal.setflags(write=False)   # handed over, so the table is not copied
    return StrategyMatrix(by_signal.transpose(1, 2, 0))


def _check_choices(choices, strategies: int, players: int) -> np.ndarray:
    """choices as a 1-d integer array of `players` strategy indices in
    [0, strategies); a float or a bool is refused, not truncated."""
    choices = np.asarray(choices)
    if choices.dtype.kind not in "iu":
        raise ValidationError(f"strategy choices must be integers, got {choices.dtype}")
    if choices.shape != (players,) or np.any(choices < 0) or np.any(choices >= strategies):
        raise ValidationError("strategy choices out of range")
    return choices


def resolve_bets(c: StrategyMatrix, signal: int, choices: np.ndarray,
                 config: GameConfig) -> tuple[np.ndarray, np.ndarray]:
    """One realized round: the node each player i bets on under `signal` when
    it plays its strategy choices[i], and the read-only int64 occupancies of
    the B nodes.  The table must fit config's game, and the signal and the
    choices must be indices in range."""
    check_matrix(c, config)
    n, s, m = c.shape
    check_count(signal, "signal", 0, m)
    choices = _check_choices(choices, s, n)
    picked = c.entries[np.arange(n), choices, signal].astype(np.int64)
    return picked, _readonly(np.bincount(picked, minlength=config.nodes))


def check_matrix(c: StrategyMatrix, config: GameConfig) -> None:
    """The table belongs to config's game: shape (N, S, M) and every node below B."""
    if c.shape != (config.players, config.strategies_per_player, config.signals):
        raise ValidationError(f"a {' x '.join(map(str, c.shape))} strategy table "
                              f"does not fit {config}")
    top = int(c.entries.max())
    if top >= config.nodes:
        raise ValidationError(f"strategy table holds node {top} of a {config.nodes}-node game")


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
        keys = np.add(block, offsets[:block.shape[0]], out=buffer[:block.shape[0]])
        yield keys, np.bincount(keys.reshape(-1), weights[:keys.size],
                                minlength=keys.shape[0] * nodes)


def fold_rows(terms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(K, P) terms summed over K in order, as one running sum along P (into
    `out` too, if given).  numpy reduces axis 0 of a C-ordered (K, P) array
    that way whenever P >= 2, but sums a contiguous column pairwise: a gather
    may come out column-major, and a (K, 1) stack is reduced as two copies."""
    columns = terms.shape[1]
    if columns == 1:
        terms = np.repeat(terms, 2, axis=1)
    total = np.add.reduce(np.ascontiguousarray(terms), axis=0)[:columns]
    if out is not None:
        out[...] = total
    return total


def strategy_payoffs(c: StrategyMatrix, p: MixedProfile, config: GameConfig) -> np.ndarray:
    """(N, S) matrix of signal-averaged payoffs u_i(rest mixed; strategy s).

    Entry (i, s) is the payoff player i expects when committing to its s-th
    strategy while everyone else keeps playing the mixed profile.  Dotting
    row i with p's row i recovers player i's fully mixed payoff.  Count space:
    u_is = (N - mean_m[(O_ism + 1) / y(c_ism)]) / N with
    O_ism the others' mean occupancy of node c_ism under signal m.

    One pass over the table.  Each block of signals gathers (O + 1) / y and
    player i's own 1 / y per entry with one take, and [c_ijm = c_ikm] / y(c_ijm)
    for each pair j < k (the pair (k, j) is the same number and (j, j) is the
    own term).  The terms go into stacks below their row 0, the running sums,
    and `fold_rows` adds a stack row by row into row 0: every sum runs in m
    order, as one sum over the whole table would, whatever the block size.
    """
    rows = p.rows
    check_matrix(c, config)   # the table and the (N, S) rows belong to config's game
    if rows.shape != c.shape[:2]:
        raise ValidationError(f"profile has shape {rows.shape}, the game needs {c.shape[:2]}")
    n, strategies, m = c.shape
    pairs = [(j, k) for j in range(strategies) for k in range(j + 1, strategies)]
    # a block's stacked terms fill at most TABLE_BLOCK numbers
    signals = min(m, max(1, TABLE_BLOCK // (n * (2 * strategies + len(pairs)))))
    inv_y = np.tile(1.0 / config.strengths.weights, signals)
    lookup = np.empty((inv_y.size, 2))   # per (signal, node): (O + 1) / y and 1 / y
    stack = np.zeros((signals + 1, n, strategies, 2))
    pair_stack = np.zeros((signals + 1, n, len(pairs)))
    for keys, occupancy in _signal_blocks(c, rows, config.nodes, signals):
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
        for stacked in (stack, pair_stack):
            running = stacked[0].reshape(-1)
            fold_rows(stacked[:size + 1].reshape(size + 1, running.size), running)
    sums, pair_sums = stack[0], pair_stack[0]
    same = {(j, j): sums[:, j, 1] for j in range(strategies)}
    for col, (j, k) in enumerate(pairs):
        same[j, k] = same[k, j] = pair_sums[:, col]
    total = sums[:, :, 0] / m
    for j in range(strategies):   # player i's own sum_k p_ik [c_ikm = c_ijm]
        for k in range(strategies):
            total[:, j] -= rows[:, k] * (same[j, k] / m)
    return (config.players - total) / config.players


def expected_frustration(c: StrategyMatrix, p: MixedProfile, config: GameConfig) -> float:
    """Exact frustration level of a mixed profile: -(sum_i u_i*) / (B-1).

    This is the expectation of |b|^2 / (N (B-1)) under independent strategy
    sampling, averaged over the M signals, so it includes each player's own
    mixing variance; at a pure profile it is the signal average of R_t.
    """
    per_strategy = strategy_payoffs(c, p, config)
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
    for name, count in (("players", players), ("strategies", strategies), ("signals", signals)):
        check_count(count, name, 1)
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
    return StrategyMatrix(flat.reshape(shape))
