import dataclasses
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
from bnndep.network import RELU, TANH, NetworkConfig, PriorSpec, forward
from bnndep.sampling import sample_layer, sample_units


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

    def test_asymmetric_support_rejected(self):
        with pytest.raises(ValueError):
            DiscreteNetSpec(widths=(1, 2), input=(1.0,), support_values=(-1.0, 2.0))

    def test_weighted_support(self):
        # support {-2, -1, 1, 2} with weights (1, 2, 2, 1) stays exact
        spec = DiscreteNetSpec(
            widths=(1, 2), input=(1.0,),
            support_values=(-2.0, -1.0, 1.0, 2.0), support_weights=(1, 2, 2, 1),
        )
        val = enumerate_exact_delta(spec, 1, (0, 1), 0.0, 0.0)
        assert val == 0  # first layer units are independent

    @pytest.mark.parametrize("spec", [
        {"input": (np.nan,)}, {"input": (np.inf,)}, {"input": (-np.inf,)},
        {"support_values": (-np.inf, np.inf)}, {"support_values": (np.nan, np.nan)},
    ])
    def test_non_finite_input_or_support_rejected(self, spec):
        # NaN input used to enumerate to an exact 0, an infinite support to 1/16
        with pytest.raises(ValueError, match="input and support values must be finite"):
            DiscreteNetSpec(**{"widths": (1, 1, 2), "input": (1.0,), **spec})

    @pytest.mark.parametrize("weights", [(1, 0), (1.0, 1.0), (0.5, 0.5)])
    def test_non_integer_or_non_positive_weights_rejected(self, weights):
        with pytest.raises(ValueError):
            DiscreteNetSpec(widths=(1, 2), input=(1.0,), support_weights=weights)

    @pytest.mark.parametrize("widths", [(1, 0, 2), (0, 1), (1, -1), (1, 2.0), (1, True)])
    def test_non_positive_or_non_integer_widths_rejected(self, widths):
        with pytest.raises(ValueError, match="widths must be positive integers"):
            DiscreteNetSpec(widths=widths, input=(1.0,))

    @pytest.mark.parametrize("factor", [3, 10**6])
    def test_common_weight_factor_cancels(self, factor):
        base = DiscreteNetSpec(
            widths=(1, 1, 2), input=(1.0,),
            support_values=(-2.0, -1.0, 1.0, 2.0), support_weights=(1, 2, 2, 1),
        )
        scaled = dataclasses.replace(
            base, support_weights=tuple(factor * w for w in base.support_weights))
        for z1, z2 in ((0.0, 0.0), (1.5, -0.5), (-1.0, -1.0)):
            assert (enumerate_exact_delta(scaled, 2, (0, 1), z1, z2)
                    == enumerate_exact_delta(base, 2, (0, 1), z1, z2))
        # unreduced, (2 * 10**7) ** 3 overflows int64; in lowest terms the weights are (1, 1)
        toy = dataclasses.replace(toy_relu_net(), support_weights=(10**7, 10**7))
        assert enumerate_exact_delta(toy, 2, (0, 1), 0.0, 0.0) == Fraction(1, 16)

    @pytest.mark.parametrize("z1,z2", [(np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.5)])
    def test_non_finite_threshold_rejected(self, z1, z2):
        # a NaN threshold compares false everywhere and used to return 0
        with pytest.raises(ValueError):
            enumerate_exact_delta(toy_relu_net(), 2, (0, 1), z1, z2)

    def test_irreducible_overflowing_weights_rejected(self):
        # gcd 1 and (2 * 10**7 + 1) ** 3 >= 2 ** 63: int64 cannot hold the sums
        toy = dataclasses.replace(toy_relu_net(), support_weights=(10**7, 10**7 + 1))
        with pytest.raises(ValueError):
            enumerate_exact_delta(toy, 2, (0, 1), 0.0, 0.0)


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
        spec = DiscreteNetSpec(widths=(3, 4, 2, 3), input=(0.5, -1.0, 2.0), activation=TANH)
        rng = np.random.default_rng(7)
        for layer in (1, 2, 3):
            cfg = NetworkConfig(spec.widths[: layer + 1], spec.activation)
            draws = rng.standard_normal((6, spec.weight_count(layer)))
            got = _last_pre(spec, draws, layer)
            for row, flat in zip(got, draws):
                shapes = list(zip(cfg.widths, cfg.widths[1:]))
                parts = np.split(flat, np.cumsum([r * c for r, c in shapes])[:-1])
                weights = [w.reshape(r, c) for w, (r, c) in zip(parts, shapes)]
                want = forward(cfg, weights, np.array(spec.input)).pre[-1]
                assert np.allclose(row, want, rtol=1e-12, atol=1e-12)
