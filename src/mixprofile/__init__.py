"""Traffic analysis of threshold and binomial pool mixes.

Simulate anonymized traffic, recover user sending profiles with
least-squares disclosure attacks, and check the attacks against
closed-form error predictors.
"""

__version__ = "0.14.0"

from .errors import (
    EmptyLogError,
    EmptyTraceError,
    InvalidParameterError,
    InvalidScenarioError,
    MixProfileError,
    ParseError,
    SingularFrequencyError,
    SingularSystemError,
    SolverDivergedError,
    UnsupportedQueryError,
)
from .estimators import (
    NormalEquations,
    ProfileEstimate,
    SolverOptions,
    clsda,
    load_estimate,
    lsda,
    rls,
    save_estimate,
    sda,
    zero_clip,
)
from .experiment import (
    ExperimentReport,
    ExperimentSpec,
    load_spec,
    run_experiment,
    save_report_csv,
    save_report_json,
    save_spec,
)
from .ingest import EventLog, build_rounds, load_events
from .metrics import MseReport, aggregate_repetitions, mse_transition, profile_mse_vector
from .mixsim import (
    BINOMIAL_POOL,
    THRESHOLD,
    GroundTruth,
    MixConfig,
    Trace,
    delay_stats,
    load_trace,
    save_trace,
    simulate_trace,
)
from .observe import ExpectedDepartures, expected_departures
from .population import (
    UserPopulation,
    gen_population,
    load_population,
    save_population,
    uniformity_stats,
)
from .theory import (
    EXACT,
    ROUGH,
    MsePrediction,
    input_autocorr_inverse,
    pool_constants,
    predict_mse_pool,
    predict_mse_threshold,
)
