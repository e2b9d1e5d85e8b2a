import numpy as np
import pytest

from simplexgame import GameConfig, StrengthDistribution, build_simplex, draw_strategy_matrix
from simplexgame.learning import _frustration, lockstep_round


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


def play_round(batch, config):
    """One `lockstep_round` of a one-row lockstep batch: (signal, R_t, purity, counts)."""
    signals, counts, squares, purity = lockstep_round(batch)
    r_t = float(_frustration(squares[0], config.players, config.nodes))
    return int(signals[0]), r_t, float(purity[0]), counts[0]


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
