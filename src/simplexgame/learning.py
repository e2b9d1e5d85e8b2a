"""Iterated play: counterfactual rewards, exponential learning, replicator flow.

Each round a uniform signal is broadcast, players sample a strategy from
their softmax probabilities, bets resolve, and every player scores all of
its strategies with the payoff each one would have earned, computed in count
space as (1 - N'_r / (y_r N)) / M with N'_r the occupancy of the strategy's
node r after the player's own swap.  Only `reward_vector` still reads the
simplex vertices.  Scores feed back into the softmax.

`Lockstep`, the only play state, holds (S, K, N) scores and probabilities of
K realizations, strategy-major so that each strategy's slice is a contiguous
(K, N) plane, all starting at zero scores; `lockstep_round` plays one round
of all of them per call, and `play_block` draws a block of T rounds ahead,
takes their table slices as one (T, S, K, N) slot array, plays them, and
reads the block's purities from the (T, K, N) softmax totals the rounds
wrote.  Realizations of a batch share N, S, B and the learning rates
but may differ in M and strengths, and each draws from its own generator in
the order a lone run would, so its trajectory does not depend on what else
shares the batch.  A block's draws are decoded from the PCG64 word stream
(one `random_raw` call per realization and block) to the values that
per-call `integers(M)` and `random(N)` give; any other bit generator, a
draw that numpy would reject and redraw, or a numpy whose draws fail the
decode's one-time self-check replays the block per call.  `run_lockstep`
plays a batch of (config, matrix, rng) games, whose `GameConfig` alone gives
the strengths the rewards read, until every realization has stopped, and
writes a realization's frozen `LearnerState` and `Trajectory` once, when it
stops; `run` is a batch of one.

A realization stops at a check, every check_every rounds once 2 * window
rounds are recorded, when its purity after that round (min over players of
the largest strategy probability) reaches PURITY_THRESHOLD.  That
is the only stopping rule: a run that never reaches it plays all its rounds.
"""
from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_allocation
from .game import (GameConfig, MixedProfile, PureInstance, StrategyMatrix,
                   check_matrix, draw_strategy_matrix, strategy_payoffs)
from .geometry import Simplex

log = logging.getLogger(__name__)

DEFAULT_LEARNING_RATE = 20.0
PURITY_THRESHOLD = 0.999
_ROW_BYTES = 24  # a recorded round: one int64 signal and two float64 values
# rounds are drawn in blocks of at most 2**15 uniforms per realization, and
# of fewer rounds once a batch would draw more than 2**20 uniforms per block,
# or hold more than 2**21 slots (T S K N) in its slot array; for S <= 2 the
# uniforms set the limit
_BLOCK_WORDS = 2**15
_BATCH_WORDS = 2**20


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
    config: GameConfig
    converged: bool  # stopped at a purity check


def _softmax(scores: np.ndarray, rates, out: np.ndarray | None = None,
             total: np.ndarray | None = None) -> np.ndarray:
    """Softmax of rates * scores over the leading strategy axis of (S, K, N) scores.

    Written to `out` (S, K, N) if given, and each player's sum of the shifted
    exponentials to `total` (K, N) if given; rates is one number or one per
    player.  The max and the sum fold over s = 0, 1, ... in turn: max is exact
    in any order, and an axis reduction may sum pairwise (it does for N = 1
    and S >= 8), so its result would depend on N.  After the shift the top
    strategy's exponential is exactly 1, so a player's largest probability is
    exactly 1 / total.
    """
    z = np.multiply(scores, rates, out=out)
    strategies = z.shape[0]
    if total is None:
        total = np.empty(z.shape[1:])
    peak = z[0] if strategies == 1 else np.maximum(z[0], z[1], out=total)
    for s in range(2, strategies):
        np.maximum(peak, z[s], out=peak)
    z -= peak
    np.exp(z, out=z)
    if strategies == 1:
        np.copyto(total, z[0])
    else:
        np.add(z[0], z[1], out=total)
    for s in range(2, strategies):
        np.add(total, z[s], out=total)
    z /= total
    return z


def reward_vector(c: StrategyMatrix, inst: PureInstance, realized_b: np.ndarray,
                  i: int, s: Simplex, config: GameConfig) -> np.ndarray:
    """Counterfactual per-strategy rewards for player i in one realized round.

    W_is = -(1/(M N)) q(c_is^m) . [b + (q(c_is^m) - q(c_i,played^m))], i.e. the
    payoff strategy s would have earned had player i swapped only its own bet,
    rescaled by 1/M.  At the played strategy the bracket reduces to b.  The
    table must fit config's game and s be the simplex of config's strengths.
    """
    check_matrix(c, config)
    if not np.array_equal(s.strengths.weights, config.strengths.weights):
        raise ValidationError("the simplex is built from other strengths than the game's")
    m = inst.signal
    qm = s.vertices[c.entries[i, :, m].astype(np.int64)]          # (S, D)
    played = s.vertices[int(c.entries[i, inst.choices[i], m])]    # (D,)
    shifted = realized_b[None, :] + qm - played[None, :]
    return -np.einsum("sd,sd->s", qm, shifted) / (config.signals * config.players)


def _decode(bits: np.random.PCG64, signal_count: int, draws: np.ndarray):
    """Decode a block of rounds from one `random_raw` call of a PCG64 generator.

    Fills draws (T, N) with the uniforms and returns the T signals that T
    rounds of integers(M) then random(N) would give, and leaves the generator
    where those calls would: a uniform is (w >> 11) * 2^-53 of a 64-bit word
    w; a signal is Lemire's multiply-shift of a 32-bit draw, and a word serves
    its low half to one round's signal and buffers its high half
    (has_uint32, uinteger) for the next.  M = 1 draws no signal.  Returns
    None, with the generator restored, if any draw lands in Lemire's
    rejection zone, where the per-call path draws again.
    """
    rounds, n = draws.shape
    if signal_count == 1:
        words = bits.random_raw(rounds * n).reshape(rounds, n)
        np.multiply(words >> 11, 2.0**-53, out=draws)
        return np.zeros(rounds, dtype=np.int64)
    state = bits.state
    lead = state["has_uint32"]   # the first round reads the buffered half
    pairs, odd = divmod(rounds - lead, 2)
    words = bits.random_raw(rounds * n + pairs + odd)
    # after the lead round's N uniforms, two rounds share 2N + 1 words: their
    # signal word, then each round's N uniforms; an odd last round takes N + 1
    body = slice(lead * n, lead * n + pairs * (2 * n + 1))
    signal_words = words[body.start:body.stop + odd:2 * n + 1]
    # a signal word's low half serves one round and its high half the next,
    # the order of its two 32-bit halves in little-endian layout
    ordered = signal_words.astype("<u8", copy=False)[:, None].view("<u4").ravel()
    halves = np.empty(rounds, dtype=np.uint64)
    halves[:lead] = state["uinteger"]
    halves[lead:] = ordered[:rounds - lead]
    scaled = halves * np.uint64(signal_count)
    if ((scaled & 0xFFFFFFFF) < (2**32 - signal_count) % signal_count).any():
        bits.state = state
        return None
    # the buffer keeps the high half of the last signal word, used or not
    after = bits.state
    after["has_uint32"] = odd
    if pairs or odd:
        after["uinteger"] = int(signal_words[-1]) >> 32
    bits.state = after

    shifted = words >> 11
    both = shifted[body].reshape(pairs, 2 * n + 1)[:, 1:].reshape(pairs, 2, n)
    np.multiply(shifted[:body.start].reshape(lead, n), 2.0**-53, out=draws[:lead])
    np.multiply(both, 2.0**-53, out=draws[lead:rounds - odd].reshape(pairs, 2, n))
    np.multiply(shifted[body.stop + 1:].reshape(odd, n), 2.0**-53, out=draws[rounds - odd:])
    return (scaled >> 32).view(np.int64)


def _replay(rng: np.random.Generator, signal_count: int, draws: np.ndarray) -> np.ndarray:
    """The block drawn per call: integers(M), then random(N), round by round."""
    signals = np.empty(len(draws), dtype=np.int64)
    for t in range(len(draws)):
        signals[t] = rng.integers(signal_count)
        rng.random(out=draws[t])
    return signals


@functools.cache
def _decode_checked() -> bool:
    """Whether `_decode` gives this numpy's per-call draws; checked once per process."""
    for signal_count, rounds in ((1, 3), (2, 5), (3, 4), (50, 1), (2000, 7)):
        for buffered in (0, 1):
            fast, slow = (np.random.Generator(np.random.PCG64(signal_count))
                          for _ in range(2))
            for rng in (fast, slow)[:2 * buffered]:
                rng.integers(2)   # leaves the high half of a word buffered
            got, want = np.empty((rounds, 3)), np.empty((rounds, 3))
            signals = _decode(fast.bit_generator, signal_count, got)
            expected = _replay(slow, signal_count, want)
            if (signals is None or not np.array_equal(signals, expected)
                    or got.tobytes() != want.tobytes()
                    or fast.bit_generator.state != slow.bit_generator.state):
                log.warning("bulk decode of PCG64 draws disagrees with numpy %s; "
                            "drawing per call", np.__version__)
                return False
    return True


def _draw_block(rng: np.random.Generator, signal_count: int, draws: np.ndarray) -> np.ndarray:
    """T rounds' signals (T,) and uniforms, written to draws (T, N), from one generator.

    The values and the generator's state afterwards are those of T rounds of
    rng.integers(M) then rng.random(N).  A PCG64 stream is decoded in bulk;
    any other bit generator, M >= 2^32 (numpy's 64-bit path), a draw in
    Lemire's rejection zone or a failed self-check replays the block per call.
    """
    bits = rng.bit_generator
    if type(bits) is np.random.PCG64 and signal_count < 2**32 and len(draws) \
            and _decode_checked():
        signals = _decode(bits, signal_count, draws)
        if signals is not None:
            return signals
    return _replay(rng, signal_count, draws)


class Lockstep:
    """Working arrays of K realizations that share N, S and B, played in lockstep.

    `games` are (config, matrix, rng) tuples.  Scores start at zero
    and probabilities uniform, both (S, K, N), so that each strategy's slice
    is a contiguous (K, N) plane; every row learns at the rates gamma, one
    float or one (N,) array of per-player rates.  Realization k's
    signal-major table is rows offsets[k] .. offsets[k] + M_k of `tables`, one
    (sum M, N, S) uint8 array, and it plays from its own generator rngs[k].
    """

    def __init__(self, games: list, gamma=DEFAULT_LEARNING_RATE):
        bases = [matrix.entries.transpose(2, 0, 1) for _, matrix, _ in games]
        self.tables = bases[0] if len(bases) == 1 else np.concatenate(bases)
        _, n, strategies = self.tables.shape
        rates = _check_rates(gamma)
        if rates.size != 1 and rates.shape != (n,):
            raise ValidationError(f"gamma gives {rates.size} learning rates in shape "
                                  f"{rates.shape} for {n} players; give one rate or {n}")
        self.rates = rates.item() if rates.size == 1 else rates
        self.scores = np.zeros((strategies, len(games), n))
        self.probabilities = _softmax(self.scores, self.rates)
        self.signal_counts = [config.signals for config, _, _ in games]
        self.offsets = np.cumsum([0] + self.signal_counts[:-1])
        self.signals = np.array(self.signal_counts, dtype=float)[:, None, None]
        self.inv_y = np.stack([1.0 / config.strengths.weights
                               for config, _, _ in games])[:, :, None]
        self.rngs = [rng for _, _, rng in games]
        self.nodes = self.inv_y.shape[1]
        self._index()
        # a block's arrays are views of these, reused from block to block:
        # faulting in fresh pages for them every block cost about a tenth of
        # play at K = 4 to 8
        self._floats = np.empty(0)
        self._ints = np.empty(0, dtype=np.int64)

    def _index(self) -> None:
        _, k, n = self.scores.shape
        # realization k's nodes are slots k*B .. k*B + B-1 of the (K, B) counts
        self.slot_base = self.nodes * np.arange(k)[:, None]
        # the reward (1 - occ / y_r / N) / M_k of a strategy on slot k*B + r at
        # occupancy occ = 0 .. N + 1, entry (k*B + r) * (N + 2) + occ, and the
        # first entry (k*B + r) * (N + 2) of each slot
        occupancy = np.arange(n + 2)
        self.rewards = ((1.0 - occupancy * self.inv_y / n) / self.signals).ravel()
        self.slot_cells = (n + 2) * np.arange(k * self.nodes)

    def _block_arrays(self, rounds: int):
        """Draws (T, K, N), slots (T, S, K, N) and softmax totals (T, K, N) of a
        block of T rounds, as views of buffers that later blocks reuse."""
        strategies, k, n = self.scores.shape
        cells, uniforms = rounds * strategies * k * n, rounds * k * n
        if self._ints.size < cells:
            self._ints = np.empty(cells, dtype=np.int64)
        if self._floats.size < 2 * uniforms:
            self._floats = np.empty(2 * uniforms)
        return (self._floats[:uniforms].reshape(rounds, k, n),
                self._ints[:cells].reshape(rounds, strategies, k, n),
                self._floats[uniforms:2 * uniforms].reshape(rounds, k, n))

    def keep(self, rows) -> None:
        """Drop every working row not in `rows` (indices in the current order)."""
        # take, not [:, rows]: an index on the middle axis gives a strided
        # array, and every round would then work on strided planes
        self.scores = self.scores.take(rows, axis=1)
        self.probabilities = self.probabilities.take(rows, axis=1)
        self.offsets = self.offsets[rows]
        self.signals = self.signals[rows]
        self.inv_y = self.inv_y[rows]
        self.signal_counts = [self.signal_counts[j] for j in rows]
        self.rngs = [self.rngs[j] for j in rows]
        self._index()


def lockstep_round(batch: Lockstep, slots: np.ndarray, draws: np.ndarray,
                   totals: np.ndarray) -> np.ndarray:
    """Play one round of every realization in the batch and update it in place.

    slots (S, K, N) are the round's table slices as slots of the (K, B) counts
    and draws (K, N) its uniforms, both drawn ahead by `play_block`.  A
    strategy's reward depends only on its node r and on whether r is the
    played node (occupancy N_r) or not (N_r + 1), so it is gathered from the
    batch's reward table straight into the (S, K, N) scores.  The softmax then
    rewrites the batch's (S, K, N) probabilities, which sampling has read, and
    writes each player's softmax total, the inverse of its largest
    probability, to totals (K, N).  Returns the round's node counts per row
    (K, B).
    """
    strategies, k, _ = batch.scores.shape
    # inverse-cdf sampling; the last cumulative probability counts as 1.  The
    # cdf never decreases, so the played slot is that of the last s whose
    # cdf_s lies below the draw
    p = batch.probabilities
    cdf = p[0]
    played = slots[0]
    for s in range(1, strategies):
        if s > 1:
            cdf = cdf + p[s - 1]
        played = np.where(draws > cdf, slots[s], played)

    counts = np.bincount(played.ravel(), minlength=k * batch.nodes)
    cells = (batch.slot_cells + counts).take(slots)
    cells += (slots != played).astype(np.int64)
    batch.scores += batch.rewards.take(cells)
    _softmax(batch.scores, batch.rates, p, totals)
    return counts.reshape(k, -1)


def play_block(batch: Lockstep, rounds: int):
    """Draw and play the next `rounds` rounds of every realization in the batch.

    Realization k draws its T rounds (per round a signal, then N uniforms, the
    order a lone run keeps) from rngs[k] in one block, so seeded runs are
    reproducible whatever else shares the batch; the table slices of all T
    rounds are then taken at once, as one (T, S, K, N) slot array, and every
    round writes its softmax totals to one (T, K, N) array, from which the
    block's purities are read at the end as the smallest 1 / total.  Returns
    per round and row (T, K) the signal, node counts (T, K, B),
    sum_r N_r^2 / y_r, which `_frustration` turns into R_t, and purity (min
    over players of the largest strategy probability after the round).
    """
    k = len(batch.rngs)
    signals = np.empty((rounds, k), dtype=np.int64)
    draws, slots, totals = batch._block_arrays(rounds)
    for j, rng in enumerate(batch.rngs):
        signals[:, j] = _draw_block(rng, batch.signal_counts[j], draws[:, j])
    np.add(batch.tables.take(batch.offsets + signals, axis=0).transpose(0, 3, 1, 2),
           batch.slot_base, out=slots)
    counts = np.empty((rounds, k, batch.nodes), dtype=np.int64)
    for t in range(rounds):
        counts[t] = lockstep_round(batch, slots[t], draws[t], totals[t])
    # one dot product per round and row, the same reduction a lone counts @ (counts / y) makes
    squares = np.matmul(counts[:, :, None, :], counts[..., None] * batch.inv_y)[..., 0, 0]
    return signals, counts, squares, np.divide(1.0, totals, out=totals).min(axis=2)


def _frustration(squares, players: int, nodes: int):
    """R_t = |b|^2 / (N (B-1)) from sum_r N_r^2 / y_r, as |b|^2 = sum_r N_r^2 / y_r - N^2."""
    return (squares - players * players) / (players * (nodes - 1))


def run(config: GameConfig, learn: LearningConfig, seed,
        matrix: StrategyMatrix | None = None,
        convergence: ConvergenceSettings | None = None) -> RunResult:
    """Iterate a game for learn.iterations rounds (stopping early if asked).

    The seed feeds a single generator that first draws the strategy matrix
    (unless one is supplied) and then drives the play stream.
    """
    rng = np.random.default_rng(seed)
    if matrix is None:
        matrix = draw_strategy_matrix(config, rng)
    return run_lockstep([(config, matrix, rng)], learn, convergence)[0]


def run_lockstep(games: list, learn: LearningConfig,
                 convergence: ConvergenceSettings | None = None) -> list:
    """Play (config, matrix, rng) games in lockstep; one RunResult each.

    Every game starts from the uniform state and plays up to learn.iterations
    rounds.  Each stops on its own when a check (every check_every rounds
    once 2 * window rounds are recorded) finds its purity at or above
    PURITY_THRESHOLD; its record is written then and it leaves the working
    arrays.  The games must share N, S and B, and each matrix must fit its config.
    """
    shapes = {(c.players, c.strategies_per_player, c.nodes) for c, _, _ in games}
    if len(shapes) != 1:
        raise ValidationError(f"lockstep games must share N, S and B, got {sorted(shapes)}")
    (n, strategies, nodes), = shapes
    for config, matrix, _ in games:
        check_matrix(matrix, config)
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
        config, matrix, _ = games[k]
        results[k] = RunResult(
            LearnerState(batch.scores[:, j].T.copy(), batch.probabilities[:, j].T.copy(), rounds),
            Trajectory(signals[k, :rounds], frustrations[k, :rounds], purities[k, :rounds]),
            matrix, config, converged)

    # rounds between checks are played round-major, then written per record
    every = convergence.check_every if convergence is not None else max(iterations, 1)
    for start in range(0, iterations, every):
        end = min(start + every, iterations)
        m, squares, purity = (np.empty((end - start, active.size), dtype=dtype)
                              for dtype in (np.int64, float, float))
        span = max(1, min(_BLOCK_WORDS // n, 2 * _BATCH_WORDS
                          // (active.size * n * max(strategies, 2))))
        for sub in range(0, end - start, span):
            block = slice(sub, min(sub + span, end - start))
            m[block], _, squares[block], purity[block] = play_block(
                batch, block.stop - block.start)
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


def replicator_flow(c: StrategyMatrix, p: MixedProfile, config: GameConfig,
                    gammas) -> np.ndarray:
    """dp_is/dtau = gamma_i p_is (u_i(rest; s) - u_i(mixed)).

    Better-performing strategies grow; every row of the output sums to zero,
    so the flow stays tangent to the product of probability simplices.
    """
    rows = p.rows if hasattr(p, "rows") else np.asarray(p, dtype=float)
    gammas = np.broadcast_to(np.asarray(gammas, dtype=float), (config.players,))
    per_strategy = strategy_payoffs(c, rows, config)
    mixed = np.einsum("is,is->i", rows, per_strategy)
    return gammas[:, None] * rows * (per_strategy - mixed[:, None])


def integrate_replicator(c: StrategyMatrix, p0: MixedProfile, config: GameConfig,
                         gamma, tau_end: float, step: float) -> list[MixedProfile]:
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
        d = replicator_flow(c, r, config, gamma)
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
