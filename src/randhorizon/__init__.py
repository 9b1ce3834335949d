"""Secretary problems with a random time horizon.

Exact evaluation and optimization of stopping strategies when the number of
arrivals is random, worst-case and average-case analyses, a sample-based
learner with provable suboptimality, Monte Carlo validation, and
horizon-randomization mixtures for black-box online algorithms.
"""

from .dist import (
    HorizonDistribution,
    delta,
    geometric_truncated,
    harmonic,
    lambda_sequence,
    make_distribution,
    poisson_truncated,
    sample_dirichlet_uniform,
    uniform,
    worst_case_pstar,
)
from .errors import HarnessError, ValidationError
from .learn import (
    block_distribution,
    draw_samples,
    hard_instance_lb,
    learn_strategy,
    learning_trials,
    sample_size_bound,
)
from .meta import (
    PerformanceProfile,
    meta_mixture,
    non_iid_hard_instance,
    prophet_block_distribution,
    union_event_rate,
)
from .sim import (
    adversary_game,
    average_case_experiment,
    scalar_policy,
    simulate,
    simulate_custom,
    strategy_policy,
    threshold_policy,
)
from .solver import (
    backward_induction,
    best_single_threshold,
    classical_cutoff,
    minimax_mixture,
    minimax_mixture_expected_bound,
    solve_optimal,
)
from .strategy import (
    make_strategy,
    mixture_success_probability,
    single_threshold,
    success_probabilities,
    success_probability,
    threshold_success_values,
)

__version__ = "0.1.0"
