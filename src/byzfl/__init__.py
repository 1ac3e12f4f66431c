"""Byzantine-robust federated learning simulator with verified convergence envelopes."""

from .aggregation import (
    AggregateResult,
    ball_robustness_check,
    coordinate_median,
    geomed_objective,
    geometric_median,
    mean,
    trimmed_mean,
)
from .clients import Schedule, byzantine_message, honest_local_update
from .config import AggregatorSpec, AttackSpec, ConfigError, ExperimentConfig, OracleSpec, load_config
from .problems import (
    Dataset,
    Logistic,
    Problem,
    Ridge,
    SmoothnessConstants,
    constants,
    global_gradient,
    global_loss,
    local_gradient,
    local_loss,
    local_stoch_grad,
    make_synthetic,
    optimum,
    problem_from_csv,
    test_accuracy,
)
from .rng import substream
from .server import TraceRecord, prepare, run_experiment, run_prepared, run_round
from .theory import (
    TheoryParams,
    c_beta,
    gamma,
    min_K,
    stable_eta_range,
    theorem1_bound,
    theorem2_round_multiplier,
)

__version__ = "0.1.0"
