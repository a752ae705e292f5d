"""Guards on the package's public surface and source style."""

import types
from pathlib import Path

import bnndep

SOURCE = Path(bnndep.__file__).resolve().parent
MAX_LINE = 99

PUBLIC_NAMES = [
    "AcceptanceReport", "Activation", "ConfigError", "DeltaGrid", "DiscreteNetSpec",
    "EstimateWithError", "GridRange", "GridSummary", "IDENTITY", "NetworkConfig",
    "PdProfile", "PriorSpec", "RELU", "SIGMOID", "SampleBatch", "SeedSpec", "SweepSpec",
    "TANH", "acceptance_suite", "analytic_delta_zero", "brute_force_tau", "combine_copies",
    "conditional_exceedance", "covariance", "delta_grid", "delta_lower", "delta_upper",
    "elu", "enumerate_exact_delta", "generate_input", "kendall_tau", "pd_profile",
    "rao_blackwell_delta", "run_sweep", "sample_layer", "sample_taps", "sample_units",
    "spearman_rho", "summarize", "toy_relu_net", "uniform_config", "validate_config",
]


def test_public_names_are_pinned():
    # adding or dropping a public name must show up as an edit of this list
    exported = sorted(name for name, value in vars(bnndep).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC_NAMES


def test_no_source_line_over_the_limit():
    long = [f"{path.name}:{number}"
            for path in sorted(SOURCE.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), start=1)
            if len(line) > MAX_LINE]
    assert long == []
