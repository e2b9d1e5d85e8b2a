"""Lockstep batches against one realization at a time.

The references below are the per-realization code that batching replaced:
one count-space round of one realization (`reference_iterate`), a run built
from it, and the sweep task body that played each realization alone, as a
`learning.run_lockstep` batch of one.  Batched play must reproduce them bit for bit, whatever the
batch composition or worker count.
"""
import json
import tracemalloc

import numpy as np
import pytest

from simplexgame import (ExperimentConfig, GameConfig, StrengthDistribution,
                         ValidationError, draw_strategy_matrix,
                         harness, learning, run, sweep, verify_reduction)
from simplexgame.harness import (RealizationRow, child_seed, measure_steady_state,
                                 sweep_data_csv, sweep_json, sweep_summary_csv)
from simplexgame.learning import Lockstep, _frustration, play_block

from conftest import reference_softmax_rows, reference_state


def reference_iterate(state, c, config, rng):
    """One round of one realization; returns (iteration, signal, R_t, purity, counts)."""
    n, strategies = state.scores.shape
    m = int(rng.integers(config.signals))
    draws = rng.random(n)
    cdf = state.probabilities[:, 0].copy()
    choices = np.zeros(n, dtype=np.intp)
    for k in range(1, strategies):
        choices += draws > cdf
        cdf += state.probabilities[:, k]
    table = c.entries[:, :, m]
    played = table[np.arange(n), choices]
    counts = np.bincount(played, minlength=config.nodes)
    inv_y = 1.0 / config.strengths.weights
    occupancy = counts[table] + (table != played[:, None])
    state.scores += (1.0 - occupancy * inv_y[table] / config.players) / config.signals
    state.probabilities = reference_softmax_rows(state.scores, state.learning_rates)
    state.iteration += 1
    r_t = float(counts @ (counts * inv_y) - n * n) / (config.players * (config.nodes - 1))
    return (state.iteration, m, r_t, float(state.probabilities.max(axis=1).min()), counts)


def reference_execute(exp, points):
    """The per-realization sweep task: set up, one lone `learning.run_lockstep`
    game, measure."""
    rows = []
    for li, m in points:
        for k in range(exp.realizations):
            seed = child_seed(exp.master_seed, li, k)
            rng = np.random.default_rng(seed)
            if exp.strengths == "random":
                y = StrengthDistribution.random_proper(exp.nodes, rng)
            else:
                y = StrengthDistribution(exp.strengths)
            config = GameConfig(players=exp.players, nodes=exp.nodes, signals=m,
                                strategies_per_player=exp.strategies, strengths=y)
            matrix = draw_strategy_matrix(config, rng)
            result = learning.run_lockstep([(config, matrix, rng)], exp.gamma, exp.t_max,
                                           exp.check_every, exp.window)[0]
            steady = measure_steady_state(result, exp.measurement, exp.window)
            rows.append(RealizationRow(lambda_index=li, realized_lambda=m / exp.players,
                                       realization=k, seed=seed, steady_r=steady,
                                       converged=result.converged,
                                       iterations=result.iterations))
    return rows


def _game(players, nodes, signals, strategies, seed):
    rng = np.random.default_rng(seed)
    y = StrengthDistribution.random_proper(nodes, rng)
    config = GameConfig(players=players, nodes=nodes, signals=signals,
                        strategies_per_player=strategies, strengths=y)
    return config, draw_strategy_matrix(config, rng)


@pytest.mark.parametrize("players,nodes,signals,strategies", [
    (5, 2, 3, 2), (50, 5, 15, 2), (30, 4, 60, 3), (7, 3, 2, 1), (1, 2, 4, 2),
])
def test_iterate_matches_reference_round(players, nodes, signals, strategies):
    config, c = _game(players, nodes, signals, strategies, 3)
    ref = reference_state(config, gamma=11.0)
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    batch = Lockstep([(config, c, rng)], gamma=11.0)
    t = 0
    for rounds in (1, 2, 7, 100, 190):   # blocks of both parities, 300 rounds in all
        block_signals, counts, squares, purity = play_block(batch, rounds)
        for j in range(rounds):
            t += 1
            want = reference_iterate(ref, c, config, ref_rng)
            r_t = float(_frustration(squares[j, 0], players, nodes))
            assert (t, int(block_signals[j, 0]), r_t, float(purity[j, 0])) == want[:4]
            assert np.array_equal(counts[j, 0], want[4])
    assert _bytes(batch.scores[:, 0].T) == _bytes(ref.scores)
    assert _bytes(batch.probabilities[:, 0].T) == _bytes(ref.probabilities)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    for rounds, message in ((2.5, "must be an integer"), (0, "must be >= 1")):
        with pytest.raises(ValidationError, match=f"^rounds {message}"):
            play_block(batch, rounds)


@pytest.mark.parametrize("strategies", [2, 4])
def test_multi_row_batch_matches_reference_rows(strategies):
    # rows differ in M (M = 1 draws no signal word) and strengths and share
    # one rate; blocks of odd length flip each row's buffered half, and a
    # middle row leaves the batch mid-run
    players, nodes = 9, 4
    gamma = 11.0
    games, refs = [], []
    for j, signals in enumerate((3, 40, 1, 7)):
        config, c = _game(players, nodes, signals, strategies, 20 + j)
        games.append((config, c, np.random.default_rng(100 + j)))
        refs.append((reference_state(config, gamma), np.random.default_rng(100 + j)))
    batch = Lockstep(games, gamma=gamma)
    rows = [0, 1, 2, 3]

    def check_state(j, k):
        ref, ref_rng = refs[k]
        assert _bytes(batch.scores[:, j].T) == _bytes(ref.scores)
        assert _bytes(batch.probabilities[:, j].T) == _bytes(ref.probabilities)
        assert games[k][2].bit_generator.state == ref_rng.bit_generator.state

    for block, rounds in enumerate((1, 2, 7, 60, 31)):
        block_signals, counts, squares, purity = play_block(batch, rounds)
        for j, k in enumerate(rows):
            config, c, _ = games[k]
            ref, ref_rng = refs[k]
            for t in range(rounds):
                want = reference_iterate(ref, c, config, ref_rng)
                r_t = float(_frustration(squares[t, j], players, nodes))
                assert (int(block_signals[t, j]), r_t, float(purity[t, j])) == want[1:4]
                assert np.array_equal(counts[t, j], want[4])
            check_state(j, k)
        if block == 2:
            batch.keep([0, 2, 3])
            rows = [0, 2, 3]
    assert refs[1][0].iteration == 10 and refs[0][0].iteration == 101


def test_keep_leaves_every_strategy_plane_contiguous():
    # a round reads and writes each strategy's (K, N) plane; dropping a row
    # must not leave them strided
    games = []
    for j in range(4):
        config, c = _game(9, 4, 5, 3, 30 + j)
        games.append((config, c, np.random.default_rng(j)))
    batch = Lockstep(games, 20.0)
    play_block(batch, 3)
    batch.keep([0, 2, 3])
    for array in (batch.scores, batch.probabilities):
        assert array.shape == (3, 3, 9) and array.flags.c_contiguous


def _bytes(a):
    return np.ascontiguousarray(a).tobytes()


def _state(rng):
    """A generator's full state as text (MT19937 keeps its key in an array)."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


def test_run_trajectory_matches_reference():
    # PCG64 streams are decoded in bulk, any other generator is drawn per call
    config, c = _game(20, 3, 10, 2, 5)
    for bit_generator in (np.random.PCG64, np.random.MT19937):
        stream = np.random.Generator(bit_generator(9))
        result = run(config, stream, gamma=20.0, iterations=120, matrix=c)
        ref = reference_state(config)
        rng = np.random.Generator(bit_generator(9))
        records = [reference_iterate(ref, c, config, rng) for _ in range(120)]
        assert _state(stream) == _state(rng)
        assert result.signals.tolist() == [r[1] for r in records]
        assert result.frustrations.tolist() == [r[2] for r in records]
        assert result.purities.tolist() == [r[3] for r in records]
        assert result.iterations == 120
        assert result.scores.tobytes(order="A") == ref.scores.tobytes(order="A")


def _block_peak(strategies):
    """tracemalloc peak of 100 rounds of 16 realizations at N = 50."""
    games = []
    for j in range(16):
        config, c = _game(50, 5, 10, strategies, j)
        games.append((config, c, np.random.default_rng(j)))
    tracemalloc.start()
    try:
        learning.run_lockstep(games, 20.0, 100)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_memory_is_bounded_for_many_strategies():
    # a block's slot array holds T S K N entries; the sub-block span counts S,
    # so at S = 64 a 100-round block is split
    assert _block_peak(64) < 40 * 2**20


def test_block_memory_does_not_grow_with_strategies():
    # per round a block keeps the (K, N) softmax totals, not the (S, K, N)
    # probabilities: a (T, K, S, N) probability array peaked at 21.9 MiB here
    assert _block_peak(16) < 16 * 2**20


def test_lockstep_games_must_share_shape():
    a = _game(10, 3, 4, 2, 1)
    b = _game(10, 4, 4, 2, 2)
    games = [(cfg, c, np.random.default_rng(0)) for cfg, c in (a, b)]
    with pytest.raises(ValidationError):
        learning.run_lockstep(games, 20.0, 5)


def _outputs(result):
    payload = json.loads(sweep_json(result))
    payload.pop("metadata")
    return sweep_data_csv(result) + sweep_summary_csv(result), payload


def _three_ways(monkeypatch, experiment):
    """Outputs of the per-realization reference, one batch, and two worker batches."""
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_execute", reference_execute)
        reference = experiment()
    outputs = [reference]
    for workers in ("1", "2"):
        monkeypatch.setenv("SIMPLEXGAME_WORKERS", workers)
        outputs.append(experiment())
    return outputs


def _assert_identical(outputs):
    first = [_outputs(r) for r in outputs[0]]
    for other in outputs[1:]:
        assert [_outputs(r) for r in other] == first


def test_sweep_rows_identical_with_ragged_signals_and_random_strengths(monkeypatch):
    exp = ExperimentConfig(players=20, nodes=3, strategies=2, strengths="random",
                           lambda_grid=(0.1, 0.5, 1.5), realizations=3, t_max=1500,
                           window=100, check_every=50, master_seed=11)
    outputs = _three_ways(monkeypatch, lambda: [sweep(exp)])
    _assert_identical(outputs)
    stops = [r.iterations for r in outputs[0][0].rows]
    # realizations of different M stop at different checks, and some run to t_max
    assert len(set(stops)) >= 4 and stops.count(exp.t_max) >= 1
    assert len({r.realized_lambda for r in outputs[0][0].rows}) == 3


def test_sweep_rows_identical_under_windowed_trace(monkeypatch):
    exp = ExperimentConfig(players=12, nodes=4, strategies=3, strengths="random",
                           lambda_grid=(0.5, 2.0), realizations=3, t_max=800,
                           window=100, check_every=100, measurement="windowed-trace",
                           master_seed=4)
    outputs = _three_ways(monkeypatch, lambda: [sweep(exp)])
    _assert_identical(outputs)
    assert len({r.iterations for r in outputs[0][0].rows}) >= 3


def test_verify_reduction_rows_identical(monkeypatch):
    exp = ExperimentConfig(players=12, nodes=4, strategies=2, lambda_grid=(0.25, 1.0),
                           realizations=3, t_max=800, window=100, check_every=50,
                           master_seed=8)

    def arms():
        cmp = verify_reduction(exp)
        return [cmp.result_a, cmp.result_b]

    _assert_identical(_three_ways(monkeypatch, arms))
