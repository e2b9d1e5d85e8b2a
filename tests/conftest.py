from types import SimpleNamespace

import numpy as np
import pytest

from simplexgame import GameConfig, StrengthDistribution, build_simplex, draw_strategy_matrix
from simplexgame.learning import _frustration, play_block


def random_proper_strengths(rng, nodes, alpha=5.0):
    """Dirichlet draw biased away from the simplex faces (keeps tests well scaled)."""
    return StrengthDistribution.random_proper(nodes, rng, alpha=alpha)


def small_instance(rng, players=None, nodes=None, signals=None, strategies=None):
    """One random small game: (config, simplex, matrix)."""
    n = players if players is not None else int(rng.integers(2, 7))
    b = nodes if nodes is not None else int(rng.integers(2, 5))
    m = signals if signals is not None else int(rng.integers(1, 5))
    s = strategies if strategies is not None else int(rng.integers(1, 4))
    y = random_proper_strengths(rng, b)
    config = GameConfig(players=n, nodes=b, signals=m, strategies_per_player=s,
                        strengths=y)
    simplex = build_simplex(y)
    matrix = draw_strategy_matrix(config, rng)
    return config, simplex, matrix


def random_profile(rng, players, strategies):
    rows = rng.dirichlet(np.ones(strategies), size=players)
    from simplexgame import MixedProfile
    return MixedProfile(rows)


def reference_softmax_rows(scores, gammas):
    """(N, S) softmax of each row of scores at its player's learning rate."""
    z = gammas[:, None] * scores
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def reference_state(config, gamma=20.0):
    """The uniform start a per-realization reference round updates in place:
    (N, S) scores and probabilities, one learning rate per player, the round count."""
    n, strategies = config.players, config.strategies_per_player
    return SimpleNamespace(scores=np.zeros((n, strategies)),
                           probabilities=np.full((n, strategies), 1.0 / strategies),
                           learning_rates=np.broadcast_to(gamma, (n,)).astype(float),
                           iteration=0)


def play_round(batch, config):
    """One round of a one-row lockstep batch, played as a block of one round by
    `play_block`, the only code that plays a round: (signal, R_t, purity, counts)."""
    signals, counts, squares, purity = play_block(batch, 1)
    r_t = float(_frustration(squares[0, 0], config.players, config.nodes))
    return int(signals[0, 0]), r_t, float(purity[0, 0]), counts[0, 0]


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
