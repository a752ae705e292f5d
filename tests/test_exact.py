import functools
from fractions import Fraction

import numpy as np
import pytest

from bnndep.exact import (
    DiscreteNetSpec,
    _last_pre,
    analytic_delta_zero,
    enumerate_exact_delta,
    toy_relu_net,
)
from bnndep.network import RELU, NetworkConfig, PriorSpec
from bnndep.sampling import sample_layer, sample_units
from reference import forward, rational_delta, rational_pre_pairs


class TestEnumeration:
    """The 3-weight toy net admits full hand enumeration over 8 configurations."""

    def test_origin_value(self):
        # joint mass 5/8, marginals 3/4 each: 5/8 - 9/16 = 1/16
        assert enumerate_exact_delta(toy_relu_net(), 2, (0, 1), 0.0, 0.0) == Fraction(1, 16)

    def test_same_sign_quadrant(self):
        # joint 1/8, marginals 1/4: 1/8 - 1/16 = 1/16
        assert enumerate_exact_delta(toy_relu_net(), 2, (0, 1), 0.5, 0.5) == Fraction(1, 16)

    def test_mixed_sign_quadrant(self):
        # joint 1/8, marginals 1/4 and 3/4: 1/8 - 3/16 = -1/16
        assert enumerate_exact_delta(toy_relu_net(), 2, (0, 1), 0.5, -0.5) == Fraction(-1, 16)

    def test_matches_dead_layer_closed_form(self):
        # previous layer dies with probability 1/2: p(1-p)/4 = 1/16
        assert enumerate_exact_delta(toy_relu_net(), 2, (0, 1), 0.0, 0.0) == Fraction(1, 2) * Fraction(1, 2) / 4

    def test_unit_relabeling_invariance(self):
        a = enumerate_exact_delta(toy_relu_net(), 2, (0, 1), 0.3, -0.7)
        b = enumerate_exact_delta(toy_relu_net(), 2, (1, 0), -0.7, 0.3)
        assert a == b

    def test_lower_tail(self):
        # by sign symmetry of the weights the lower tail mirrors the upper
        up = enumerate_exact_delta(toy_relu_net(), 2, (0, 1), 0.0, 0.0, "upper")
        lo = enumerate_exact_delta(toy_relu_net(), 2, (0, 1), 0.0, 0.0, "lower")
        assert up == Fraction(1, 16) and lo > 0

    def test_first_layer_single_pair_independent(self):
        spec = DiscreteNetSpec(widths=(2, 2), input=(1.0, 0.5))
        assert enumerate_exact_delta(spec, 1, (0, 1), 0.2, -0.4) == 0

    @pytest.mark.parametrize("layer", [0, 3])
    def test_layer_out_of_range_rejected(self, layer):
        # layer 3 used to raise IndexError and layer 0 to report a bad unit pair
        with pytest.raises(ValueError, match="layer"):
            enumerate_exact_delta(toy_relu_net(), layer, (0, 1), 0.0, 0.0)

    def test_enumeration_bound(self):
        spec = DiscreteNetSpec(widths=(5, 5, 5), input=(1.0,) * 5)
        with pytest.raises(ValueError):
            enumerate_exact_delta(spec, 2, (0, 1), 0.0, 0.0)

    @pytest.mark.parametrize("spec", [
        {"input": (np.nan,)}, {"input": (np.inf,)}, {"input": (-np.inf,)},
    ])
    def test_non_finite_input_or_support_rejected(self, spec):
        # NaN input used to enumerate to an exact 0
        with pytest.raises(ValueError, match="input must be finite"):
            DiscreteNetSpec(**{"widths": (1, 1, 2), "input": (1.0,), **spec})

    @pytest.mark.parametrize("widths", [(1, 0, 2), (0, 1), (1, -1), (1, 2.0), (1, True)])
    def test_non_positive_or_non_integer_widths_rejected(self, widths):
        with pytest.raises(ValueError, match="widths must be positive integers"):
            DiscreteNetSpec(widths=widths, input=(1.0,))

    @pytest.mark.parametrize("z1,z2", [(np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.5)])
    def test_non_finite_threshold_rejected(self, z1, z2):
        # a NaN threshold compares false everywhere and used to return 0
        with pytest.raises(ValueError):
            enumerate_exact_delta(toy_relu_net(), 2, (0, 1), z1, z2)


@functools.lru_cache(maxsize=None)
def reference_pairs(widths, input):
    return rational_pre_pairs(widths, input, 2, (0, 1))


def random_specs(seed, count=6):
    """Small (d, h, 2) nets, m <= 12 weights, with non-dyadic, large and mixed-scale inputs."""
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(count):
        d, h = [(1, 3), (2, 2), (2, 3), (3, 2)][rng.integers(4)]
        if i % 3 == 0:      # non-dyadic
            input = rng.uniform(-2.0, 2.0, d)
        elif i % 3 == 1:    # large: float sums of these round
            input = rng.integers(-2**60, 2**60, d).astype(float)
        else:               # one value near 1e16 beside small integers, like (1e16, 1.0)
            input = np.r_[rng.integers(2**53, 2**54), rng.integers(-3, 4, d - 1)].astype(float)
        specs.append(((d, h, 2), tuple(input.tolist())))
    return specs


# (widths, input): the toy net, nets with non-dyadic inputs, one whose bound 2**62 fits
# int64 (twice it is rejected below), a 1e300-scale one, then random ones
REFERENCE_SPECS = [
    ((1, 1, 2), (1.0,)), ((1, 2, 2), (1.0,)),
    ((2, 2, 2), (0.7, -1.3)), ((2, 2, 2), (0.1, 0.2)),
    ((2, 3, 2), (0.7, -1.3)), ((2, 3, 2), (0.1, 0.2)),
    ((2, 1, 2), (2.0**61, 1.0)), ((2, 2, 2), (1e300, -3e299)),
    *random_specs(13),
]
REFERENCE_THRESHOLDS = [(0.0, 0.0), (0.3, 0.3), (1.0, 0.0), (-0.5, 0.25), (0.6, -1.0)]


def reference_cases():
    rng = np.random.default_rng(5)
    for widths, input in REFERENCE_SPECS:
        # thresholds at the float value of an attained pre-activation are where rounding bites
        pairs = reference_pairs(widths, input)
        attained = [tuple(float(x) for x in pairs[i]) for i in rng.integers(len(pairs), size=2)]
        for z1, z2 in dict.fromkeys(REFERENCE_THRESHOLDS + attained):
            for tail in ("upper", "lower"):
                name = "-".join(["x".join(map(str, widths)), "_".join(map(str, input)),
                                 str(z1), str(z2), tail])
                yield pytest.param(widths, input, z1, z2, tail, id=name)


class TestRationalReference:
    """The oracle against a pure-Python enumeration in ``Fraction`` arithmetic."""

    @pytest.mark.parametrize("widths, input, z1, z2, tail", reference_cases())
    def test_oracle_equals_reference(self, widths, input, z1, z2, tail):
        spec = DiscreteNetSpec(widths=widths, input=input)
        assert (enumerate_exact_delta(spec, 2, (0, 1), z1, z2, tail)
                == rational_delta(reference_pairs(widths, input), z1, z2, tail))

    @pytest.mark.parametrize("widths, input, z, expected", [
        ((1, 1, 2), (1.0,), 0.0, Fraction(1, 16)),
        # 1e16 + 1 reaches z = 1e16 and 1e16 - 1 does not: joint 1/16, marginals 1/8
        ((2, 1, 2), (1e16, 1.0), 1e16, Fraction(3, 64)),
    ])
    def test_reference_hand_values(self, widths, input, z, expected):
        assert rational_delta(reference_pairs(widths, input), z, z) == expected

    def test_large_input_decided_exactly(self):
        # 1e16 + 1 and 1e16 - 1 both round to 1e16, so float64 events read 1/16
        spec = DiscreteNetSpec(widths=(2, 1, 2), input=(1e16, 1.0))
        assert enumerate_exact_delta(spec, 2, (0, 1), 1e16, 1e16) == Fraction(3, 64)

    @pytest.mark.parametrize("widths, input, layer", [
        # |pre| <= max|x| times the fan-ins 2 x 1: 2**63 in units of 2**0
        ((2, 1, 2), (2.0**62, 1.0), 2),
        # 0.5 sets the unit to 2**-1, so 1e300 is an integer near 2**997 in it
        ((2, 2, 2), (1e300, 0.5), 1),
    ])
    def test_overflowing_bound_rejected(self, widths, input, layer):
        spec = DiscreteNetSpec(widths=widths, input=input)
        with pytest.raises(ValueError, match="overflows int64"):
            enumerate_exact_delta(spec, layer, (0, 1), 0.0, 0.0)


class TestAnalyticDeltaZero:
    @pytest.mark.parametrize("width,expected", [
        (2, Fraction(3, 64)),
        (5, Fraction(31, 4096)),
        (10, Fraction(1023, 4194304)),
    ])
    def test_frozen_values(self, width, expected):
        got = analytic_delta_zero(width)
        assert got == expected
        p = Fraction(1, 2**width)
        assert got == p * (1 - p) / 4

    def test_float_boundary(self):
        assert float(analytic_delta_zero(2)) == 0.046875

    @pytest.mark.parametrize("width", [0, -1, True, False, 2.5, 2.0, np.float64(2)])
    def test_non_positive_or_non_integer_width_rejected(self, width):
        # True used to give 1/16 and 2.5 to fail inside Fraction
        with pytest.raises(ValueError, match="widths must be positive integers"):
            analytic_delta_zero(width)

    def test_numpy_width_is_exact(self):
        # 2 ** np.int64(70) wraps to 0 in int64
        assert analytic_delta_zero(np.int64(70)) == analytic_delta_zero(70)


@pytest.mark.parametrize("layer, pair, tap", [
    (0, (0, 1), "pre"), (3, (0, 1), "pre"), (2, (1, 1), "pre"), (2, (0, 2), "pre"),
    (2, (-1, 0), "pre"), (2, (0, 1), "mid"), (2, (0, 1, 1), "pre"),
    # a float index used to fail with numpy's IndexError and a bool with a broadcast error
    (2, (0, 1.5), "pre"), (2, (0, 1.0), "pre"), (2, (0, True), "pre"),
])
def test_sampler_and_exact_reject_bad_queries_alike(layer, pair, tap):
    toy = toy_relu_net()
    config = NetworkConfig(toy.widths, RELU, (PriorSpec(),) * 2)
    calls = [lambda: sample_units(config, np.ones(1), layer, pair, tap, 10, 1)]
    if tap == "pre":
        calls.append(lambda: enumerate_exact_delta(toy, layer, pair, 0.0, 0.0))
    messages = set()
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        messages.add(str(info.value))
    assert len(messages) == 1, messages


@pytest.mark.parametrize("n, workers", [
    (-1, 1), (2.5, 1), (10.0, 1), (True, 1), (np.float64(10), 1),
    (10, 0), (10, -3), (10, 1.5), (10, True),
])
def test_samplers_reject_bad_draw_and_worker_counts_alike(n, workers):
    # n = -1 used to fail with numpy's "negative dimensions", 2.5 with a TypeError, and
    # workers <= 0 ran serially
    toy = toy_relu_net()
    config = NetworkConfig(toy.widths, RELU, (PriorSpec(),) * 2)
    calls = [lambda: sample_units(config, np.ones(1), 2, (0, 1), "pre", n, 1, workers=workers),
             lambda: sample_layer(config, np.ones(1), 2, n, 1, workers=workers)]
    messages = set()
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        messages.add(str(info.value))
    assert len(messages) == 1 and "n must be an integer >= 0" in messages.pop()


def test_numpy_integer_draw_and_worker_counts_accepted():
    toy = toy_relu_net()
    config = NetworkConfig(toy.widths, RELU, (PriorSpec(),) * 2)
    assert sample_layer(config, np.ones(1), 2, np.int64(9000), 1, workers=np.int64(2)).shape \
        == (9000, 2)


class TestDiscreteForward:
    def test_matches_network_forward_draw_by_draw(self):
        spec = DiscreteNetSpec(widths=(3, 4, 2, 3), input=(0.5, -1.0, 2.0))
        rng = np.random.default_rng(7)
        for layer in (1, 2, 3):
            cfg = NetworkConfig(spec.widths[: layer + 1], RELU, (PriorSpec(),) * layer)
            draws = rng.standard_normal((6, spec.weight_count(layer)))
            got = _last_pre(spec.widths[: layer + 1], np.array(spec.input), draws)
            for row, flat in zip(got, draws):
                shapes = list(zip(cfg.widths, cfg.widths[1:]))
                parts = np.split(flat, np.cumsum([r * c for r, c in shapes])[:-1])
                weights = [w.reshape(r, c) for w, (r, c) in zip(parts, shapes)]
                want = forward(cfg, weights, np.array(spec.input)).pre[-1]
                assert np.allclose(row, want, rtol=1e-12, atol=1e-12)
