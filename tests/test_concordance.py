import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnndep.estimators import kendall_tau, kendall_tau_arrays, spearman_rho, spearman_rho_arrays
from bnndep.exact import brute_force_tau
from bnndep.network import PriorSpec
from bnndep.sampling import SampleBatch


def make_batch(u, v):
    return SampleBatch(np.asarray(u, float), np.asarray(v, float), 2, "pre", PriorSpec())


class TestKendallHandValues:
    def test_all_concordant(self):
        assert kendall_tau(make_batch([1, 2, 3, 4], [1, 2, 3, 4])).value == 1.0

    def test_three_point_mixture(self):
        # pairs: (1,2)-(2,1) discordant, (1,2)-(3,3) concordant, (2,1)-(3,3) concordant
        assert kendall_tau(make_batch([1, 2, 3], [2, 1, 3])).value == pytest.approx(1 / 3)

    def test_reversed(self):
        assert kendall_tau(make_batch([1, 2, 3], [3, 2, 1])).value == -1.0

    def test_ties_counted_as_neither(self):
        # (1,1)-(1,2) tied in u; (1,1)-(2,2) concordant; (1,2)-(2,2) tied in v
        assert kendall_tau(make_batch([1, 1, 2], [1, 2, 2])).value == pytest.approx(1 / 3)

    def test_null_se_formula(self):
        n = 100
        e = kendall_tau(make_batch(np.arange(n), np.arange(n)))
        assert e.std_error == pytest.approx(np.sqrt(2 * (2 * n + 5) / (9 * n * (n - 1))))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau(make_batch([1], [1]))


    @pytest.mark.parametrize("estimator", [kendall_tau_arrays, spearman_rho_arrays])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, estimator, bad):
        u, v = np.array([0.0, 1.0, 2.0]), np.array([0.0, bad, 1.0])
        with pytest.raises(ValueError):
            estimator(u, v)
        with pytest.raises(ValueError):
            estimator(v, u)


class TestSpearmanHandValues:
    def test_identical_rankings(self):
        assert spearman_rho(make_batch([1, 2, 3], [1, 2, 3])).value == pytest.approx(1.0)

    def test_reversed_rankings(self):
        assert spearman_rho(make_batch([1, 2, 3], [3, 2, 1])).value == pytest.approx(-1.0)

    def test_constant_column_rejected(self):
        with pytest.raises(ValueError):
            spearman_rho(make_batch([1, 1, 1], [1, 2, 3]))

    def test_null_se_formula(self):
        e = spearman_rho(make_batch([1, 2, 3, 4, 5], [2, 1, 5, 3, 4]))
        assert e.std_error == pytest.approx(1 / np.sqrt(4))

    def test_midranks_handle_ties(self):
        # scipy-independent hand computation: ranks u = [1.5, 1.5, 3], v = [1, 2.5, 2.5]
        e = spearman_rho(make_batch([1, 1, 2], [0, 3, 3]))
        ru = np.array([1.5, 1.5, 3.0])
        rv = np.array([1.0, 2.5, 2.5])
        expected = np.corrcoef(ru, rv)[0, 1]
        assert e.value == pytest.approx(expected, rel=1e-12)


@st.composite
def paired_data(draw, max_size=200, exact_halving=False):
    n = draw(st.integers(2, max_size))
    if draw(st.booleans()):
        lo = max(2, n // 4)
        u = draw(st.lists(st.integers(0, lo), min_size=n, max_size=n))
        v = draw(st.lists(st.integers(0, lo), min_size=n, max_size=n))
    else:
        floats = st.floats(-100, 100)
        if exact_halving:
            # doubling is exact here, so this drops exactly the x where 0.5 * x rounds
            floats = floats.filter(lambda x: 2.0 * (0.5 * x) == x)
        u = draw(st.lists(floats, min_size=n, max_size=n))
        v = draw(st.lists(floats, min_size=n, max_size=n))
    return np.asarray(u, float), np.asarray(v, float)


class TestAlgorithmEquivalence:
    @given(paired_data())
    @settings(max_examples=150, deadline=None)
    def test_merge_count_equals_brute_force_bitwise(self, data):
        u, v = data
        assert kendall_tau_arrays(u, v).value == brute_force_tau(u, v)

    def test_brute_force_cap(self):
        big = np.arange(10_001, dtype=float)
        with pytest.raises(ValueError):
            brute_force_tau(big, big)

    def test_large_batch_spot_check(self):
        rng = np.random.default_rng(17)
        u = rng.integers(0, 50, 5000).astype(float)
        v = (u + rng.integers(0, 50, 5000)).astype(float)
        assert kendall_tau_arrays(u, v).value == brute_force_tau(u, v)


class TestMonotoneInvariance:
    # 0.5 * x can round for 0 < |x| < 2**-1021 and create ties, so such inputs are excluded
    @given(paired_data(max_size=80, exact_halving=True))
    @settings(max_examples=60, deadline=None)
    def test_power_of_two_scaling_exact(self, data):
        u, v = data
        base_t = kendall_tau_arrays(u, v).value
        base_r = None
        try:
            base_r = spearman_rho_arrays(u, v).value
        except ValueError:
            pass
        assert kendall_tau_arrays(4.0 * u, v).value == base_t
        assert kendall_tau_arrays(u, 0.5 * v).value == base_t
        if base_r is not None:
            assert spearman_rho_arrays(4.0 * u, v).value == base_r

    @pytest.mark.parametrize(
        "v",
        [[0.0, 5e-324], [sys.float_info.min, np.nextafter(sys.float_info.min, 1.0)]],
        ids=["subnormal_underflow", "min_normal_collision"],
    )
    def test_rounded_halving_creates_counted_tie(self, v):
        u, v = np.array([0.0, 1.0]), np.asarray(v)
        half_v = 0.5 * v
        assert kendall_tau_arrays(u, v).value == 1.0
        assert kendall_tau_arrays(u, half_v).value == brute_force_tau(u, half_v) == 0.0

    def test_integer_cubing_exact(self):
        rng = np.random.default_rng(23)
        u = rng.integers(-900, 900, 300).astype(float)
        v = rng.integers(-900, 900, 300).astype(float)
        assert kendall_tau_arrays(u**3, v).value == kendall_tau_arrays(u, v).value
        assert spearman_rho_arrays(u**3, v**3).value == spearman_rho_arrays(u, v).value

    @given(paired_data(max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_exchange_invariance(self, data):
        u, v = data
        assert kendall_tau_arrays(u, v).value == kendall_tau_arrays(v, u).value

    @given(paired_data(max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_range(self, data):
        u, v = data
        assert -1.0 <= kendall_tau_arrays(u, v).value <= 1.0
        try:
            assert -1.0 <= spearman_rho_arrays(u, v).value <= 1.0
        except ValueError:
            pass
