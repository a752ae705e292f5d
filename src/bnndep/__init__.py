"""Monte Carlo estimation of dependence between hidden units of
finite-width Bayesian neural network priors."""

from .estimators import (
    DeltaGrid,
    EstimateWithError,
    PdProfile,
    covariance,
    delta_grid,
    delta_lower,
    delta_upper,
    kendall_tau,
    pd_profile,
    rao_blackwell_delta,
    rao_blackwell_grid,
    spearman_rho,
)
from .exact import (
    DiscreteNetSpec,
    analytic_delta_zero,
    brute_force_tau,
    enumerate_exact_delta,
    toy_relu_net,
)
from .experiments import (
    AcceptanceReport,
    GridRange,
    GridSummary,
    SweepSpec,
    acceptance_suite,
    run_sweep,
    summarize,
)
from .network import (
    IDENTITY,
    RELU,
    SIGMOID,
    TANH,
    Activation,
    ConfigError,
    NetworkConfig,
    PriorSpec,
    elu,
    uniform_config,
)
from .sampling import (
    SampleBatch,
    SeedSpec,
    combine_copies,
    generate_input,
    sample_layer,
    sample_taps,
    sample_units,
)

__version__ = "0.1.0"
