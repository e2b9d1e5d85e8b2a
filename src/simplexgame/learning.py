"""Iterated play: counterfactual rewards and exponential learning.

Each round a uniform signal is broadcast, players sample a strategy from
their softmax probabilities, bets resolve, and every player scores all of
its strategies with the payoff each one would have earned, computed in count
space as (1 - N'_r / (y_r N)) / M with N'_r the occupancy of the strategy's
node r after the player's own swap (`oracle.reward_vector` is the vertex
form).  Scores feed back into the softmax.

`Lockstep`, the only play state, holds (S, K, N) scores and probabilities of
K realizations, strategy-major so that each strategy's slice is a contiguous
(K, N) plane, all starting at zero scores; `play_block` draws a block of T
rounds of all of them ahead, takes their table slices as one (T, S, K, N)
slot array, plays the rounds one by one, and reads the block's purities from
the (T, K, N) softmax totals the rounds wrote.  Realizations of a batch
share N, S, B and the learning rate but may differ in M and strengths, and
each draws from its own generator in the order a lone run would, so its
trajectory does not depend on what else shares the batch.  A block's draws
are decoded from the PCG64 word stream (one `random_raw` call per
realization and block) to the values that per-call `integers(M)` and
`random(N)` give; any other bit generator, a draw that numpy would reject
and redraw, or a numpy whose draws fail the decode's one-time self-check
replays the block per call.  `run_lockstep` plays a batch of (config,
matrix, rng) games, whose `GameConfig` alone gives the strengths the rewards
read, at one learning rate gamma for up to `iterations` rounds, until every
realization has stopped; blocks write straight into records of each game's
last `window` rounds (all of them without one).  `Lockstep` checks its games
and `run_lockstep` its plain arguments, once; a realization's one frozen
`RunResult` is built when it stops.  `ExperimentConfig` holds the defaults.

A realization stops at a check, every check_every rounds once 2 * window
rounds are played, when its purity after that round (min over players of
the largest strategy probability) reaches PURITY_THRESHOLD.  That
is the only stopping rule: a run that never reaches it plays all its rounds.
"""
from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_allocation, check_count
from .game import GameConfig, StrategyMatrix, check_matrix, draw_strategy_matrix

log = logging.getLogger(__name__)

PURITY_THRESHOLD = 0.999
_RECORD = np.dtype([("signals", np.int64), ("frustrations", float), ("purities", float)])
# rounds are drawn in blocks of at most 2**15 uniforms per realization, and
# of fewer rounds once a batch would draw more than 2**20 uniforms per block,
# or hold more than 2**21 slots (T S K N) in its slot array; for S <= 2 the
# uniforms set the limit
_BLOCK_WORDS = 2**15
_BATCH_WORDS = 2**20


def _check_rate(gamma) -> float:
    """gamma as a float, after checking it is one number (not a bool), finite and >= 0."""
    if isinstance(gamma, bool) or not isinstance(gamma, (int, float, np.integer, np.floating)):
        raise ValidationError(f"gamma must be one learning rate, got {type(gamma).__name__}")
    if not 0.0 <= gamma < np.inf:
        raise ValidationError("learning rates must be finite and >= 0")
    return float(gamma)


@dataclass(frozen=True, eq=False)
class RunResult:
    """A finished run: its game, (N, S) final scores and softmax probabilities,
    the rounds it played, whether it stopped at a purity check, and the
    per-round signal, frustration and purity of its last held rounds, oldest
    first."""

    config: GameConfig
    matrix: StrategyMatrix
    scores: np.ndarray
    probabilities: np.ndarray
    iterations: int
    converged: bool
    signals: np.ndarray
    frustrations: np.ndarray
    purities: np.ndarray


def _softmax(scores: np.ndarray, rate: float, out: np.ndarray, total: np.ndarray) -> None:
    """Softmax of rate * scores over the leading strategy axis of (S, K, N) scores.

    Written to `out` (S, K, N), and each player's sum of the shifted
    exponentials to `total` (K, N).  The max and the sum fold over
    s = 0, 1, ... in turn: max is exact in any order, and a plain axis
    reduction may sum pairwise (it does for N = 1 and S >= 8), so its result
    would depend on N.  The folds loop over the strategies, not a reduce as
    in `game.fold_rows`, which at S = 2 costs more per call (sum: 2.4 against
    1.6 us at K = 1, 13.1 against 8.0 us at K = 175, N = 50, 2-core Xeon).
    After the shift the top strategy's exponential is exactly 1, so a
    player's largest probability is 1 / total.
    """
    z = np.multiply(scores, rate, out=out)
    strategies = z.shape[0]
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


def _reward(occupancy, inv_y, players: int, signals):
    """The count-space reward (1 - occ / y_r / N) / M at occupancy occ, inv_y = 1 / y_r."""
    return (1.0 - occupancy * inv_y / players) / signals


class Lockstep:
    """Working arrays of K realizations that share N, S and B, played in lockstep.

    `games` are (config, matrix, rng) tuples, at least one, of one N, S and B,
    each table fitting its config.  Scores start at zero and probabilities
    uniform, both (S, K, N), so that each strategy's slice is a contiguous
    (K, N) plane; every player of every row learns at the one rate gamma.
    Realization k's signal-major table is rows offsets[k] .. offsets[k] + M_k
    of `tables`, one (sum M, N, S) uint8 array, and it plays from its own
    generator rngs[k].  The games, then the allocation budget of the reward
    table and the (S, K, N) arrays, are checked before any array is built.
    """

    def __init__(self, games: list, gamma):
        shapes = {(c.players, c.strategies_per_player, c.nodes) for c, _, _ in games}
        if len(shapes) != 1:
            raise ValidationError(f"lockstep games must share N, S and B, got {sorted(shapes)}")
        for config, matrix, _ in games:
            check_matrix(matrix, config)
        (n, strategies, self.nodes), = shapes
        k = len(games)
        check_allocation(8 * k * (self.nodes * (n + 2) + 2 * strategies * n),
                         f"the reward table, scores and probabilities of {k} games of {n} players")
        bases = [matrix.entries.transpose(2, 0, 1) for _, matrix, _ in games]
        self.tables = bases[0] if len(bases) == 1 else np.concatenate(bases)
        self.rate = _check_rate(gamma)
        self.scores = np.zeros((strategies, k, n))
        self.probabilities = np.full((strategies, k, n), 1.0 / strategies)
        self.signal_counts = [config.signals for config, _, _ in games]
        self.offsets = np.cumsum([0] + self.signal_counts[:-1])
        self.inv_y = np.stack([1.0 / config.strengths.weights
                               for config, _, _ in games])[:, :, None]
        self.rngs = [rng for _, _, rng in games]
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
        signals = np.array(self.signal_counts, dtype=float)[:, None, None]
        self.rewards = _reward(np.arange(n + 2), self.inv_y, n, signals).ravel()
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
        self.inv_y = self.inv_y[rows]
        self.signal_counts = [self.signal_counts[j] for j in rows]
        self.rngs = [self.rngs[j] for j in rows]
        self._index()


def play_block(batch: Lockstep, rounds: int):
    """Draw and play the next `rounds` rounds of every realization in the batch.

    Realization k draws its T rounds (per round a signal, then N uniforms, the
    order a lone run keeps) from rngs[k] in one block, so seeded runs are
    reproducible whatever else shares the batch; the table slices of all T
    rounds are then taken at once, as one (T, S, K, N) slot array of slots of
    the (K, B) counts.  A round samples every player's strategy from the
    batch's probabilities, counts the nodes played, and adds every strategy's
    reward to the (S, K, N) scores: the reward depends only on the strategy's
    node r and on whether r is the played node (occupancy N_r) or not
    (N_r + 1), so it is gathered straight from the batch's reward table.  The
    softmax then rewrites the probabilities and writes each player's softmax
    total, the inverse of its largest probability, to one (T, K, N) array.
    Returns per round and row (T, K) the signal, node counts (T, K, B),
    sum_r N_r^2 / y_r, which `_frustration` turns into R_t, and purity (min
    over players of the largest strategy probability after the round).
    """
    check_count(rounds, "rounds", 1)
    strategies, k, n = batch.scores.shape
    signals = np.empty((rounds, k), dtype=np.int64)
    draws, slots, totals = batch._block_arrays(rounds)
    for j, rng in enumerate(batch.rngs):
        signals[:, j] = _draw_block(rng, batch.signal_counts[j], draws[:, j])
    np.add(batch.tables.take(batch.offsets + signals, axis=0).transpose(0, 3, 1, 2),
           batch.slot_base, out=slots)
    scores, p, rate = batch.scores, batch.probabilities, batch.rate
    rewards, slot_cells = batch.rewards, batch.slot_cells
    counts = np.empty((rounds, k * batch.nodes), dtype=np.int64)
    swapped = np.empty((strategies, k, n), dtype=np.int64)
    for t in range(rounds):
        slot, draw = slots[t], draws[t]
        # inverse-cdf sampling; the last cumulative probability counts as 1.
        # The cdf never decreases, so the played slot is that of the last s
        # whose cdf_s lies below the draw
        cdf, played = p[0], slot[0]
        for s in range(1, strategies):
            if s > 1:
                cdf = cdf + p[s - 1]
            played = np.where(draw > cdf, slot[s], played)
        counts[t] = np.bincount(played.ravel(), minlength=counts.shape[1])
        cells = (slot_cells + counts[t]).take(slot)
        cells += np.not_equal(slot, played, out=swapped, casting="unsafe")
        scores += rewards.take(cells)
        _softmax(scores, rate, p, totals[t])
    counts = counts.reshape(rounds, k, batch.nodes)
    # one dot product per round and row, the same reduction a lone counts @ (counts / y) makes
    squares = np.matmul(counts[:, :, None, :], counts[..., None] * batch.inv_y)[..., 0, 0]
    # correctly rounded 1 / x never rises as x does, so this is the smallest 1 / total
    return signals, counts, squares, 1.0 / totals.max(axis=2)


def _frustration(squares, players: int, nodes: int):
    """R_t = |b|^2 / (N (B-1)) from sum_r N_r^2 / y_r, as |b|^2 = sum_r N_r^2 / y_r - N^2."""
    return (squares - players * players) / (players * (nodes - 1))


def run(config: GameConfig, seed, *, gamma, iterations: int,
        matrix: StrategyMatrix | None = None) -> RunResult:
    """Iterate a game at learning rate gamma for all `iterations` rounds and
    record every round; only `run_lockstep` stops a game at purity.

    The seed feeds a single generator that first draws the strategy matrix
    (unless one is supplied) and then drives the play stream.
    """
    rng = np.random.default_rng(seed)
    if matrix is None:
        matrix = draw_strategy_matrix(config, rng)
    return run_lockstep([(config, matrix, rng)], gamma, iterations)[0]


def _check_score_range(rate: float, iterations: int, config: GameConfig) -> None:
    """ValidationError when the learning rate `rate`, one that `_check_rate`
    passed, could overflow a score of config's game over `iterations` rounds.

    A score sums at most `iterations` rewards (1 - occ / (y_r N)) / M, which
    fall as the occupancy occ = 0 .. N + 1 rises, also as rounded floats, so
    the largest |reward| of the table `Lockstep` plays is at one end.
    """
    ends = np.array([[0.0], [config.players + 1.0]])
    rewards = _reward(ends, 1.0 / config.strengths.weights, config.players, config.signals)
    try:
        finite = np.isfinite(rate * iterations * float(np.abs(rewards).max()))
    except OverflowError:   # more rounds than a float holds
        finite = rate == 0.0
    if not finite:
        raise ValidationError(f"learning rate gamma up to {rate!r} overflows the scores "
                              f"of {iterations} rounds")


def run_lockstep(games: list, gamma, iterations: int, check_every: int | None = None,
                 window: int | None = None) -> list:
    """Play (config, matrix, rng) games, which `Lockstep` checks, in lockstep
    at learning rate gamma; one RunResult each.

    Every game starts from the uniform state and plays up to `iterations`
    rounds, and its result holds its last `window` rounds (every round
    without a window).  If check_every is given, each stops on its own when
    a check (every check_every rounds once 2 * window rounds are played)
    finds its purity at or above PURITY_THRESHOLD; its result is written
    then and it leaves the working arrays.
    """
    if check_every is not None and window is None:
        raise ValidationError("check_every needs a window")
    for name, value, least in (("iterations", iterations, 0), ("check_every", check_every, 1),
                               ("window", window, 1)):
        if value is not None or name == "iterations":
            check_count(value, name, least)
    total = len(games)
    held = iterations if window is None else min(window, iterations)
    check_allocation(total * held * _RECORD.itemsize, f"{total} records of the last {held} rounds")
    batch = Lockstep(games, gamma)
    (strategies, _, n), nodes = batch.scores.shape, batch.nodes
    for config, _, _ in games:
        _check_score_range(batch.rate, iterations, config)
    # row k holds game k's last `held` rounds, round t at flat index k * held + t % held
    records = [np.empty((total, held), dtype=_RECORD[name]) for name in _RECORD.names]
    results = [None] * total
    active = np.arange(total)   # game index of each working row

    def settle(j: int, rounds: int, converged: bool) -> None:
        k = active[j]
        config, matrix, _ = games[k]
        # a wrapped record holds its oldest round in column rounds % held
        results[k] = RunResult(
            config, matrix, batch.scores[:, j].T.copy(), batch.probabilities[:, j].T.copy(),
            rounds, converged, *(record[k, :rounds] if rounds <= held
                                 else np.roll(record[k], -rounds) for record in records))

    # each sub-block of a check writes the rounds the records keep straight into them
    every = check_every if check_every is not None else max(iterations, 1)
    for start in range(0, iterations, every):
        end = min(start + every, iterations)
        span = max(1, min(_BLOCK_WORDS // n, 2 * _BATCH_WORDS
                          // (active.size * n * max(strategies, 2))))
        for first in range(start, end, span):
            last = min(first + span, end)
            m, _, squares, purity = play_block(batch, last - first)
            since = max(first, last - held)
            cells = np.arange(since, last)[:, None] % held + held * active
            for record, block in zip(records, (m, _frustration(squares, n, nodes), purity)):
                record.put(cells, block[since - first:])
        # the 2 * window gate stays: with the cadence it fixes each row's iterations
        if check_every is None or end % every or end < 2 * window:
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


def random_baseline(config: GameConfig, seed, iterations: int) -> np.ndarray:
    """R_t of `iterations` rounds (iterations,) of unsophisticated play: every
    round each player picks node r w.p. y_r."""
    check_count(iterations, "iterations", 1)
    rng = np.random.default_rng(seed)
    n, b_nodes = config.players, config.nodes
    picks = rng.choice(b_nodes, size=(iterations, n), p=config.strengths.weights)
    counts = np.zeros((iterations, b_nodes))
    np.add.at(counts, (np.arange(iterations)[:, None], picks), 1.0)
    return _frustration(counts**2 @ (1.0 / config.strengths.weights), n, b_nodes)
