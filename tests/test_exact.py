import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from bnndep.estimators import delta_upper
from bnndep.exact import (
    DiscreteNetSpec,
    analytic_delta_zero,
    analytic_delta_zero_z,
    enumerate_exact_delta,
    sample_discrete_net,
    toy_relu_net,
)
from bnndep.network import IDENTITY


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

    @pytest.mark.parametrize("weights", [(1, 0), (1.0, 1.0), (0.5, 0.5)])
    def test_non_integer_or_non_positive_weights_rejected(self, weights):
        with pytest.raises(ValueError):
            DiscreteNetSpec(widths=(1, 2), input=(1.0,), support_weights=weights)

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

    def test_requires_relu(self):
        with pytest.raises(ValueError):
            analytic_delta_zero(2, IDENTITY)

    def test_off_origin_cases(self):
        assert analytic_delta_zero_z(2, 5.0, 0.0) == 0.0          # vanishing tail
        assert analytic_delta_zero_z(2, -1.0, 1.0) == 0.0         # certain event
        assert analytic_delta_zero_z(2, 1.0, 0.3) == pytest.approx(-(3 / 32) * 0.3)
        assert analytic_delta_zero_z(2, 0.0, 0.123) == pytest.approx(3 / 64)
        assert analytic_delta_zero_z(2, -1.0, 0.6) >= 0.0
        assert analytic_delta_zero_z(2, 1.0, 0.6) <= 0.0


class TestDiscreteMonteCarlo:
    def test_pipeline_equivalence_smoke(self):
        toy = toy_relu_net()
        batch = sample_discrete_net(toy, 2, (0, 1), "pre", 20_000, 3)
        for z1, z2 in ((0.0, 0.0), (0.5, 0.5), (0.5, -0.5)):
            exact_val = float(enumerate_exact_delta(toy, 2, (0, 1), z1, z2))
            e = delta_upper(batch, z1, z2)
            assert abs(e.value - exact_val) <= 4 * e.std_error

    def test_deterministic(self):
        toy = toy_relu_net()
        a = sample_discrete_net(toy, 2, (0, 1), "pre", 500, 3)
        b = sample_discrete_net(toy, 2, (0, 1), "pre", 500, 3)
        assert np.array_equal(a.u, b.u)

    def test_values_live_on_support_products(self):
        toy = toy_relu_net()
        batch = sample_discrete_net(toy, 2, (0, 1), "pre", 1000, 4)
        assert set(np.unique(batch.u)) <= {-1.0, 0.0, 1.0}
