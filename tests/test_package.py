"""Guards on the package's public surface and source style."""

import inspect
import re
import types
from pathlib import Path

import bnndep
from bnndep import sampling

SOURCE = Path(bnndep.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
MAX_LINE = 99

PUBLIC_NAMES = [
    "AcceptanceReport", "Activation", "ConfigError", "DeltaGrid", "DiscreteNetSpec",
    "EstimateWithError", "GridRange", "GridSummary", "IDENTITY", "NetworkConfig",
    "PdProfile", "PriorSpec", "RELU", "SIGMOID", "SampleBatch", "SeedSpec", "SweepSpec",
    "TANH", "acceptance_suite", "analytic_delta_zero", "brute_force_tau", "combine_copies",
    "covariance", "delta_grid", "delta_lower", "delta_upper", "elu",
    "enumerate_exact_delta", "generate_input", "kendall_tau", "pd_profile",
    "rao_blackwell_delta", "rao_blackwell_grid", "run_sweep", "sample_layer", "sample_taps",
    "sample_units", "spearman_rho", "summarize", "toy_relu_net", "uniform_config",
]

# numpy's generator and seed-sequence constructors, and the standard library's random module
RANDOMNESS = re.compile(r"\b(np|numpy)\.random\b|\b(default_rng|SeedSequence|RandomState)\b"
                        r"|^\s*(import|from)\s+random\b")


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


def test_randomness_comes_only_from_seed_streams():
    # SeedSpec.stream is the one place a random generator is built, so every draw is
    # keyed by the master seed and a stream label
    lines, first = inspect.getsourcelines(sampling.SeedSpec.stream)
    allowed = {("sampling.py", first + i) for i in range(len(lines))}
    found = [f"{path.name}:{number}"
             for path in sorted(SOURCE.glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), start=1)
             if RANDOMNESS.search(line) and (path.name, number) not in allowed]
    assert found == []


def test_no_sampler_takes_a_replica():
    # an independent copy of the networks is a draw on a child seed, not a sampler argument
    samplers = [getattr(bnndep, name) for name in PUBLIC_NAMES if name.startswith("sample_")]
    assert [f.__name__ for f in samplers] == ["sample_layer", "sample_taps", "sample_units"]
    for f in [*samplers, sampling._sample]:
        assert "replica" not in inspect.signature(f).parameters, f.__name__


def test_readme_library_example_runs():
    # the python block under "## Library" runs as written, so it cannot drift from the API
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
