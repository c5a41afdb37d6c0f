"""Adversarial online learning with kernel losses.

Finite-dimensional proxy kernels built by kernel PCA, exponential weights
under bandit and full-information feedback, an online conditional-gradient
method, quadratic-loss oracles and samplers, and a seeded simulation harness
that measures expected regret against the theory's bounds.
"""

from .bandit import (
    BanditConfig,
    bandit_round,
    configure_bandit,
    general_theorem_config,
    run_bandit,
    theorem_regret_bound,
)
from .design import (
    DiscreteDistribution,
    action_covariance,
    d_optimal_design,
    whiten_features,
)
from .errors import (
    InputError,
    NumericalError,
    PreconditionError,
)
from .fullinfo import (
    CGConfig,
    ConvexCombination,
    UnitBall,
    cg_round,
    cg_theorem_config,
    full_info_eta,
    full_info_round,
    linear_min_oracle,
    run_cg,
    run_full_info_ew,
)
from .harness import (
    ExperimentConfig,
    PeriodicAdversary,
    RegretTrace,
    ScheduleAdversary,
    ball_directions,
    best_in_hindsight,
    emit_trace,
    parse_trace,
    run_experiment,
    unit_vector_adversary,
)
from .kernels import (
    ExplicitVector,
    KernelSpec,
    RankOne,
    Schedule,
    feature_map,
    gram_matrix,
    make_explicit,
    make_rank_one,
    quadratic_adversary,
)
from .proxy import (
    EigendecayProfile,
    SampleBasis,
    approximation_sup_error,
    build_proxy,
    effective_dimension,
    fit_eigendecay,
    proxy_features,
)
from .quadratic import (
    QuadraticObjective,
    quad_ew_sample,
    trs_minimize,
)
from .rng import component_rng
from .weights import WeightState

__version__ = "0.1.0"
