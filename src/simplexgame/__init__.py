"""simplexgame: simulate selfish node choice over weighted wireless nodes.

N players process a broadcast training signal with S preprogrammed
strategies, each mapping signals to one of B strength-weighted nodes.
Iterated exponential learning drives play to an equilibrium whose residual
frustration is the game's price of anarchy; this package simulates the
dynamics, enumerates tiny-game ground truth, and evaluates the analytic
frustration curve for comparison.
"""

from .analytics import critical_lambda, predicted_anarchy, zeta, zeta_monte_carlo
from .errors import BudgetError, DegenerateStrengthsError, ValidationError
from .game import (GameConfig, MixedProfile, StrategyMatrix, StrengthDistribution,
                   draw_strategy_matrix, expected_frustration, load_strategy_matrix,
                   resolve_bets, save_strategy_matrix, strategy_payoffs)
from .geometry import Simplex, build_simplex, gram_defect, weighted_moments
from .harness import (ComparisonResult, ExperimentConfig, SweepResult, child_seed,
                      compare_strengths, experiment_from_file, export_sweep,
                      export_trajectory, measure_steady_state, single_run, sweep,
                      verify_reduction)
from .learning import RunResult, random_baseline, run
from .oracle import (ProfileScan, oracle_report, potential_defect, reward_vector,
                     scan_profiles)

__version__ = "0.1.0"
