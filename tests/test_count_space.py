"""The count-space kernels against the vertex-route formulas they replaced.

The references below are the vertex dot-product implementations of one
learning round and of the mixed-profile payoffs: every reward and every
frustration is computed from the (N, S, M, B-1) array of strategy vertices.
The count-space code must reproduce them on the same rng stream.
"""
import numpy as np
import pytest

from simplexgame import (GameConfig, LearnerState, MixedProfile,
                         StrengthDistribution, build_simplex,
                         draw_strategy_matrix, expected_frustration, frustration,
                         strategy_payoffs)
from simplexgame.learning import Lockstep

from conftest import play_round, random_profile, random_proper_strengths, small_instance

ROUNDS = 500
TOL = 1e-12


def _reference_softmax_rows(scores, gammas):
    z = gammas[:, None] * scores
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def reference_iterate(state, c, simplex, config, rng):
    """One round on the vertex route; returns (signal, counts, R_t)."""
    qc = simplex.vertices[c.entries.astype(np.int64)]  # (N, S, M, D)
    n, strategies = state.scores.shape
    m = int(rng.integers(config.signals))

    cdf = np.cumsum(state.probabilities, axis=1)
    cdf[:, -1] = 1.0
    draws = rng.random(n)
    choices = np.minimum((draws[:, None] > cdf).sum(axis=1), strategies - 1)

    qc_m = qc[:, :, m, :]                            # (N, S, D)
    realized = qc_m[np.arange(n), choices]           # (N, D)
    b = realized.sum(axis=0)
    picked_nodes = c.entries[np.arange(n), choices, m].astype(np.int64)
    counts = np.bincount(picked_nodes, minlength=config.nodes)

    rewards = -np.einsum(
        "isd,isd->is", qc_m, b[None, None, :] + qc_m - realized[:, None, :]
    ) / (config.signals * config.players)

    state.scores += rewards
    state.probabilities = _reference_softmax_rows(state.scores, state.learning_rates)
    state.iteration += 1
    r_t = float(b @ b) / (config.players * (config.nodes - 1))
    return m, counts, r_t


def reference_strategy_payoffs(c, rows, s, config):
    qc = s.vertices[c.entries]                            # (N,S,M,D)
    mean_player = np.einsum("is,ismd->imd", rows, qc)     # <c_i^m>
    total = mean_player.sum(axis=0)                       # (M,D)
    others = total[None, :, :] - mean_player              # sum_{j!=i} <c_j^m>
    cross = np.einsum("ismd,imd->ism", qc, others)
    own_sq = np.einsum("ismd,ismd->ism", qc, qc)
    return -(cross + own_sq).mean(axis=2) / config.players


def reference_expected_frustration(c, rows, s, config):
    per_strategy = reference_strategy_payoffs(c, rows, s, config)
    return -float(np.einsum("is,is->", rows, per_strategy)) / (config.nodes - 1)


def reference_frustration(c, rows, s, config):
    bets = np.einsum("is,ismd->md", rows, s.vertices[c.entries])
    return float(np.einsum("md,md->", bets, bets)) / (
        bets.shape[0] * config.players * (config.nodes - 1))


def _game(players, nodes, signals, strategies, random_strengths, seed):
    rng = np.random.default_rng(seed)
    if random_strengths:
        y = StrengthDistribution.random_proper(nodes, rng)
    else:
        y = StrengthDistribution.uniform(nodes)
    config = GameConfig(players=players, nodes=nodes, signals=signals,
                        strategies_per_player=strategies, strengths=y)
    return config, build_simplex(y), draw_strategy_matrix(config, rng)


SHAPES = [
    # (players, nodes, signals, strategies, random strengths)
    (5, 2, 3, 2, False),
    (50, 5, 15, 2, True),     # lambda = 0.3
    (200, 10, 100, 3, False),
]


@pytest.mark.parametrize("players,nodes,signals,strategies,random_strengths", SHAPES)
def test_iterate_matches_vertex_route(players, nodes, signals, strategies,
                                      random_strengths):
    config, simplex, c = _game(players, nodes, signals, strategies, random_strengths, 5)
    ref = LearnerState.initial(config)
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    batch = Lockstep([LearnerState.initial(config)], [(config, c, simplex, rng)])
    for _ in range(ROUNDS):
        signal, frustration_t, _, counts_t = play_round(batch, config)
        m, counts, r_t = reference_iterate(ref, c, simplex, config, ref_rng)
        assert signal == m
        assert np.array_equal(counts_t, counts)
        assert abs(frustration_t - r_t) <= TOL
        bound = TOL * np.maximum(1.0, np.abs(ref.scores))
        assert np.all(np.abs(batch.scores[0].T - ref.scores) <= bound)
    assert np.max(np.abs(batch.probabilities[0].T - ref.probabilities)) <= 1e-10
    # both generators sit at the same point of the stream
    assert rng.random() == ref_rng.random()


def test_mixed_payoffs_match_vertex_route(rng):
    cases = [small_instance(rng) for _ in range(20)]
    cases += [_game(*shape, seed) for seed, shape in enumerate(SHAPES)]
    for config, s, c in cases:
        for _ in range(3):
            p = random_profile(rng, config.players, config.strategies_per_player)
            ref = reference_strategy_payoffs(c, p.rows, s, config)
            got = strategy_payoffs(c, p, s, config)
            assert np.max(np.abs(got - ref)) <= TOL
            assert np.array_equal(strategy_payoffs(c, p.rows, s, config), got)
            assert expected_frustration(c, p, s, config) == pytest.approx(
                reference_expected_frustration(c, p.rows, s, config), abs=TOL)
            assert frustration(c, p, s, config) == pytest.approx(
                reference_frustration(c, p.rows, s, config), abs=TOL)


def test_mixed_payoffs_match_at_pure_and_skewed_profiles(rng):
    for _ in range(10):
        y = random_proper_strengths(rng, 4)
        config = GameConfig(players=30, nodes=4, signals=7, strategies_per_player=3,
                            strengths=y)
        s = build_simplex(y)
        c = draw_strategy_matrix(config, rng)
        pure = MixedProfile.pure(rng.integers(0, 3, config.players), 3)
        skewed = MixedProfile(rng.dirichlet(np.full(3, 0.05), size=config.players))
        for p in (pure, skewed):
            ref = reference_strategy_payoffs(c, p.rows, s, config)
            assert np.max(np.abs(strategy_payoffs(c, p, s, config) - ref)) <= TOL
            assert frustration(c, p, s, config) == pytest.approx(
                reference_frustration(c, p.rows, s, config), abs=TOL)
