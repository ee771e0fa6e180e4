"""Bandit ensembles via log-barrier online mirror descent.

The package combines multiple base bandit algorithms under one master that
samples a base each round, routes importance-weighted feedback, and adapts
per-base learning rates with a threshold-doubling schedule, so that the
ensemble stays competitive with the best base algorithm run on its own.
"""

from .core import (
    ConfigError,
    ContractError,
    CorralError,
    DegenerateDistributionError,
    FeedbackPacket,
    IntegrityError,
    InvalidLossError,
    InvalidProbabilityError,
    NormalizationDriftError,
    SolverConvergenceError,
    UniformStream,
    named_rng,
    sample_index,
    validate_simplex,
)
from .omd import bregman_log_barrier, omd_step, solve_lambda
from .master import (
    MasterState,
    RoundOutcome,
    build_packets,
    choose,
    feedback,
    init_master,
    tuned_eta,
)
from .bases import (
    BaseAlgorithm,
    EpochGreedy,
    Exp3,
    Exp4,
    PathologicalBase,
    ThompsonSampling,
    Ucb1,
)
from .envs import (
    AdversarialMAB,
    Environment,
    InducedEnvironment,
    LowerBoundEnv,
    StochasticContextual,
    StochasticMAB,
)
from .harness import (
    ExperimentConfig,
    RoundLog,
    SeedResult,
    compute_regret,
    execute,
    load_config,
    run_corral,
    run_lowerbound_demo,
    run_seed,
    run_stability_test,
    run_standalone,
)

__version__ = "0.1.0"
