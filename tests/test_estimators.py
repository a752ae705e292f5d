import collections
import concurrent.futures
import dataclasses
import itertools
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, stdtr
from scipy.stats import t as student_t

from bnndep import estimators
from bnndep.estimators import (
    LOWER,
    UPPER,
    _norm_survival,
    _pair,
    covariance,
    delta_grid,
    delta_lower,
    delta_upper,
    kendall_tau,
    kendall_tau_arrays,
    pd_profile,
    rao_blackwell_delta,
    rao_blackwell_grid,
    spearman_rho,
    spearman_rho_arrays,
)
from bnndep.network import ConfigError, PriorSpec, uniform_config
from bnndep.sampling import (
    DIFF_OF_COPIES,
    SUM_OF_COPIES,
    SampleBatch,
    SeedSpec,
    combine_copies,
    generate_input,
    sample_units,
)
from reference import (
    bootstrap_std_error,
    exact_covariance,
    masked_exceedance,
    masked_pd_cells,
    rb_survival_row,
)


def make_batch(u, v, layer=2, prev_norms=None):
    return SampleBatch(
        np.asarray(u, dtype=float), np.asarray(v, dtype=float),
        layer, "pre", PriorSpec(), prev_norms,
    )


FOUR_CORNERS = make_batch([1, 1, -1, -1], [1, -1, 1, -1])
COMONOTONE = make_batch([1, -1], [1, -1])


class TestSampleShapes:
    ESTIMATORS = {
        "delta_upper": lambda b: delta_upper(b, 0.5, 0.5),
        "delta_lower": lambda b: delta_lower(b, 0.5, 0.5),
        "delta_grid": lambda b: delta_grid(b, [0.0, 0.5], [0.0, 0.5]),
        "covariance": covariance,
        "kendall_tau": kendall_tau,
        "spearman_rho": spearman_rho,
        "rao_blackwell_delta": lambda b: rao_blackwell_delta(b, 0.5, 0.5),
    }

    @pytest.mark.parametrize("name", ESTIMATORS)
    @pytest.mark.parametrize("u, v", [([0, 1, 2, 3], [5]), ([5], [0, 1, 2, 3]),
                                      ([[0, 1], [2, 3]], [[0, 1], [2, 3]])],
                             ids=["short_v", "short_u", "two_d"])
    def test_unequal_or_non_1d_samples_rejected(self, name, u, v):
        # the batch itself refuses these shapes, before any estimator runs
        with pytest.raises(ValueError, match="1-D samples of equal length"):
            self.ESTIMATORS[name](make_batch(u, v, prev_norms=np.ones(np.shape(u))))

    def test_bootstrap_rejects_unequal_samples(self):
        with pytest.raises(ValueError, match="1-D samples of equal length"):
            bootstrap_std_error(lambda a, b: float(a @ b), np.arange(4.0), np.arange(10.0))

    def test_norms_of_another_length_rejected(self):
        with pytest.raises(ValueError, match="1-D samples of equal length"):
            make_batch([0, 1, 2, 3], [1, 0, 3, 2], prev_norms=np.ones(3))
        with pytest.raises(ValueError, match="1-D samples of equal length"):
            make_batch([0, 1, 2, 3], [1, 0, 3, 2], prev_norms=np.ones((4, 1)))
        # nor can the norms be swapped for others after the check
        batch = make_batch([0, 1, 2, 3], [1, 0, 3, 2], prev_norms=np.ones(4))
        with pytest.raises(dataclasses.FrozenInstanceError):
            batch.prev_norms = np.ones(3)

    def test_unknown_tap_rejected(self):
        # "mid" used to be accepted
        with pytest.raises(ValueError, match="tap must be 'pre' or 'post'"):
            SampleBatch(np.zeros(3), np.zeros(3), 2, "mid", PriorSpec())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["u", "v", "prev_norms"])
    def test_batch_rejects_non_finite_values_when_built(self, bad, where):
        # NaNs used to pass construction and were left to every estimator to check
        arrays = {"u": np.zeros(4), "v": np.ones(4), "prev_norms": np.ones(4)}
        arrays[where][2] = bad
        with pytest.raises(ValueError, match="a sample batch needs finite values"):
            SampleBatch(arrays["u"], arrays["v"], 2, "pre", PriorSpec(), arrays["prev_norms"])
        nan = np.broadcast_to(np.nan, (4,))
        with pytest.raises(ValueError, match="a sample batch needs finite values"):
            SampleBatch(nan, nan, 2, "pre", PriorSpec(), nan)
        assert SampleBatch([0.0, 1.0], [1.0, 0.0], 2, "pre", PriorSpec()).prev_norms is None

    @pytest.mark.parametrize("name", ["u", "v", "prev_norms"])
    def test_batch_arrays_are_read_only_views(self, name):
        arrays = {"u": np.zeros(4), "v": np.ones(4), "prev_norms": np.ones(4)}
        batch = SampleBatch(arrays["u"], arrays["v"], 2, "pre", PriorSpec(), arrays["prev_norms"])
        with pytest.raises(ValueError, match="read-only"):
            getattr(batch, name)[1] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            getattr(batch, name).sort()
        # a view, not a copy: the caller's own reference stays writable and is not rechecked
        assert np.shares_memory(getattr(batch, name), arrays[name])
        arrays[name][1] = 5.0
        assert getattr(batch, name)[1] == 5.0

    def test_overflowing_sum_of_copies_rejected_when_built(self):
        big = make_batch(np.full(4, 1e308), np.ones(4))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="a sample batch needs finite values"):
                combine_copies(big, big, SUM_OF_COPIES)
        assert combine_copies(big, big, DIFF_OF_COPIES).u.tolist() == [0.0] * 4

    def test_batch_estimators_check_no_sample_array(self, monkeypatch):
        # the batch checked its samples and norms when it was built; only thresholds remain
        n = 1000
        rng = np.random.default_rng(3)
        batch = make_batch(*rng.standard_normal((2, n)), prev_norms=np.abs(rng.standard_normal(n)))
        seen = []
        finite = estimators._finite

        def recording(*values):
            seen.extend(np.size(v) for v in values)
            return finite(*values)

        monkeypatch.setattr(estimators, "_finite", recording)
        z = np.linspace(-1.0, 1.0, 5)
        calls = {
            "delta_upper": lambda: delta_upper(batch, 0.5, -0.5),
            "delta_lower": lambda: delta_lower(batch, 0.5, -0.5),
            "delta_grid": lambda: [delta_grid(batch, z, z, tail) for tail in (UPPER, LOWER)],
            "covariance": lambda: covariance(batch),
            "spearman_rho": lambda: spearman_rho(batch),
            "rao_blackwell_delta": lambda: rao_blackwell_delta(batch, 0.5, -0.5),
            "rao_blackwell_grid": lambda: rao_blackwell_grid(batch, z, z[::2]),
        }
        for name, call in calls.items():
            seen.clear()
            call()
            assert n not in seen, name
        # kendall_tau alone reaches its samples' check, once, through kendall_tau_arrays
        seen.clear()
        kendall_tau(batch)
        assert seen == [n, n]

    def test_every_constructor_builds_a_valid_batch(self):
        x = generate_input(10, SeedSpec(5))
        cfg = uniform_config(10, 3, 3)
        for norms in (False, True):
            batch = sample_units(cfg, x, 2, (0, 1), "post", 100, SeedSpec(5), want_norms=norms)
            assert batch.u.shape == batch.v.shape == (100,)
            assert norms == (batch.prev_norms is not None)
        reps = [sample_units(cfg, x, 3, (0, 2), "pre", 100, seed)
                for seed in (SeedSpec(6), SeedSpec(6).child(1))]
        for mode in (SUM_OF_COPIES, DIFF_OF_COPIES):
            assert combine_copies(*reps, mode).n == 100


class TestDeltaHandValues:
    def test_product_measure_is_null(self):
        e = delta_upper(FOUR_CORNERS, 0.0, 0.0)
        assert e.value == 0.0  # 1/4 - (1/2)(1/2)

    def test_comonotone_pair(self):
        assert delta_upper(COMONOTONE, 0.0, 0.0).value == 0.25  # 1/2 - 1/4

    def test_lower_tail_values(self):
        assert delta_lower(FOUR_CORNERS, 0.0, 0.0).value == 0.0
        assert delta_lower(COMONOTONE, 0.0, 0.0).value == 0.25

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            delta_upper(make_batch([1.0], [1.0]), 0, 0)

    @pytest.mark.parametrize("estimator", [delta_upper, delta_lower])
    def test_non_finite_input_rejected(self, estimator):
        # non-finite samples are rejected when the batch is built, before any estimator runs
        with pytest.raises(ValueError, match="a sample batch needs finite values"):
            make_batch([np.nan, -1, 1, 0.5], [1, -1, 1, -0.5])
        with pytest.raises(ValueError, match="a sample batch needs finite values"):
            make_batch([0, -1, 1, 0.5], [1, -1, np.inf, -0.5])
        with pytest.raises(ValueError, match="exceedance-difference estimation needs finite"):
            estimator(FOUR_CORNERS, np.nan, 0.0)

    def test_weak_inequality_includes_atoms(self):
        batch = make_batch([0.0, 0.0, 1.0, -1.0], [0.0, 1.0, 0.0, -1.0])
        e = delta_upper(batch, 0.0, 0.0)
        # all of (0,0), (0,1), (1,0) satisfy both >= 0; marginals are 3/4
        assert e.value == 3 / 4 - (3 / 4) ** 2


class TestDeltaSymmetries:
    @given(
        st.lists(st.floats(-1e6, 1e6).map(round), min_size=2, max_size=60),
        st.lists(st.floats(-1e6, 1e6).map(round), min_size=2, max_size=60),
        st.floats(-10, 10),
        st.floats(-10, 10),
    )
    def test_negation_maps_lower_to_upper_exactly(self, u, v, z1, z2):
        m = min(len(u), len(v))
        batch = make_batch(u[:m], v[:m])
        negated = make_batch([-x for x in u[:m]], [-x for x in v[:m]])
        a = delta_lower(negated, -z1, -z2)
        b = delta_upper(batch, z1, z2)
        assert a.value == b.value and a.std_error == b.std_error

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=50),
        st.floats(-5, 5),
        st.floats(-5, 5),
    )
    def test_exchange_swaps_thresholds_exactly(self, vals, z1, z2):
        u = np.asarray(vals)
        v = np.roll(u, 1)
        a = delta_upper(make_batch(u, v), z1, z2)
        b = delta_upper(make_batch(v, u), z2, z1)
        assert a.value == b.value and a.std_error == b.std_error

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=50))
    def test_estimates_bounded(self, vals):
        u = np.asarray(vals)
        batch = make_batch(u, u[::-1])
        for z1 in (-1.0, 0.0, 2.0):
            e = delta_upper(batch, z1, z1 / 2)
            assert -1.0 <= e.value <= 1.0
            assert e.std_error >= 0.0

    def test_influence_se_matches_direct_computation(self):
        rng = np.random.default_rng(4)
        u, v = rng.standard_normal(500), rng.standard_normal(500)
        e = delta_upper(make_batch(u, v), 0.3, -0.2)
        i1, i2 = (u >= 0.3).astype(float), (v >= -0.2).astype(float)
        i11 = i1 * i2
        p1, p2, p11 = i1.mean(), i2.mean(), i11.mean()
        psi = (i11 - p11) - p2 * (i1 - p1) - p1 * (i2 - p2)
        assert e.std_error == pytest.approx(psi.std(ddof=1) / np.sqrt(500), rel=1e-10)
        assert e.value == pytest.approx(p11 - p1 * p2, rel=1e-12)

    def test_bootstrap_agrees_with_influence_se(self):
        rng = np.random.default_rng(9)
        u, v = rng.standard_normal(4000), rng.standard_normal(4000)
        e = delta_upper(make_batch(u, v), 0.0, 0.0)
        boot = bootstrap_std_error(
            lambda a, b: float(np.mean((a >= 0) & (b >= 0)) - np.mean(a >= 0) * np.mean(b >= 0)),
            u, v, resamples=300, seed=1,
        )
        assert boot == pytest.approx(e.std_error, rel=0.25)


class TestDeltaCombo:
    def test_degenerate_mirrored_replicas_sum_to_zero(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(50)
        v = rng.standard_normal(50)
        e = delta_upper(combine_copies(make_batch(u, v), make_batch(-u, -v), SUM_OF_COPIES),
                        0.0, 0.0)
        assert e.value == 0.0  # all sums are exactly zero, p11 = p1 = p2 = 1

    def test_exchanged_units_are_symmetric(self):
        rng = np.random.default_rng(3)
        u1, v1, u2, v2 = rng.standard_normal((4, 100))
        a = delta_upper(combine_copies(make_batch(u1, v1), make_batch(u2, v2), DIFF_OF_COPIES),
                        0.1, 0.1)
        b = delta_upper(combine_copies(make_batch(v1, u1), make_batch(v2, u2), DIFF_OF_COPIES),
                        0.1, 0.1)
        assert a.value == b.value

    def test_mode_validation(self):
        zeros = make_batch(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            delta_upper(combine_copies(zeros, zeros, "product"), 0, 0)
        with pytest.raises(ValueError, match="mode must be"):
            combine_copies(zeros, zeros, "single")  # the CLI's one-network value stays out

    def test_combined_is_bitwise_sum_and_difference(self):
        rng = np.random.default_rng(5)
        u1, v1, u2, v2 = rng.standard_normal((4, 200)) * 10.0 ** rng.integers(-8, 8, (4, 200))
        norms = np.ones(200)
        first = SampleBatch(u1, v1, 3, "post", PriorSpec(sigma0=2.0), norms)
        second = SampleBatch(u2, v2, 3, "post", PriorSpec(sigma0=2.0), norms)
        for mode, (u, v) in ((SUM_OF_COPIES, (u1 + u2, v1 + v2)),
                             (DIFF_OF_COPIES, (u1 - u2, v1 - v2))):
            batch = combine_copies(first, second, mode)
            assert batch.u.tobytes() == u.tobytes() and batch.v.tobytes() == v.tobytes()
            assert (batch.layer, batch.tap, batch.prior) == (3, "post", PriorSpec(sigma0=2.0))
            assert batch.prev_norms is None

    @pytest.mark.parametrize("field,value", [
        ("u", np.zeros(1)), ("layer", 3), ("tap", "post"), ("prior", PriorSpec(sigma0=2.0)),
    ])
    def test_mismatched_copies_rejected(self, field, value):
        # copies of unequal length used to broadcast into a batch of the longer one's n
        first = make_batch(np.arange(5.0), np.arange(5.0))
        second = dataclasses.replace(first, **({"u": value, "v": value} if field == "u"
                                               else {field: value}))
        for mode in (SUM_OF_COPIES, DIFF_OF_COPIES):
            with pytest.raises(ValueError, match="copies must share n, layer, tap and prior"):
                combine_copies(first, second, mode)

    def test_separately_built_nan_nu_priors_match(self):
        # a non-t prior's nu is NaN, and NaN != NaN; copies still combine, whichever
        # NaN each prior was built with
        first = SampleBatch(np.ones(3), np.ones(3), 2, "pre", PriorSpec(nu=float("nan")))
        for prior in (PriorSpec(), PriorSpec(nu=float("nan")), PriorSpec(nu=np.nan)):
            second = SampleBatch(np.ones(3), np.ones(3), 2, "pre", prior)
            assert combine_copies(first, second, SUM_OF_COPIES).u.tolist() == [2.0, 2.0, 2.0]


class TestCovariance:
    def test_two_point_hand_value(self):
        assert covariance(COMONOTONE).value == 2.0

    def test_injected_cross_unit_correlation_recovered(self):
        # validation case: units share correlated weights, input (1, 1);
        # the bilinear form gives covariance c * sigma^2 * ||input||^2
        rng = np.random.default_rng(6)
        n, c, sigma = 100_000, 0.3, 1.0
        cov_w = sigma**2 * np.array([[1.0, c], [c, 1.0]])
        chol = np.linalg.cholesky(cov_w)
        target = 2 * c * sigma**2
        pairs = rng.standard_normal((n, 2, 2)) @ chol.T  # per input coordinate
        u = pairs[:, 0, 0] + pairs[:, 1, 0]
        v = pairs[:, 0, 1] + pairs[:, 1, 1]
        e = covariance(make_batch(u, v))
        assert abs(e.value - target) <= 4 * e.std_error

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        # rejected when the batch is built, so covariance never sees the value
        with pytest.raises(ValueError, match="a sample batch needs finite values"):
            make_batch([0.5, bad, 1.0, -1.0], [1.0, 2.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="a sample batch needs finite values"):
            make_batch([0.5, 2.0, 1.0, -1.0], [1.0, 2.0, bad, 1.0])

    @given(
        st.lists(st.integers(-50, 50), min_size=3, max_size=60),
        st.lists(st.integers(0, 8), min_size=1, max_size=5),
        st.lists(st.integers(0, 8), min_size=1, max_size=5),
        st.booleans(),
    )
    def test_monotone_pair_covariance_sign(self, ys, steps_f, steps_g, opposite):
        # random non-decreasing step functions of the same variable
        y = np.asarray(ys, dtype=float)
        tf = np.linspace(y.min() - 1, y.max() + 1, len(steps_f))
        tg = np.linspace(y.min() - 1, y.max() + 1, len(steps_g))

        def step(thresholds, heights, arr):
            out = np.zeros_like(arr)
            for t, h in zip(thresholds, heights):
                out += np.where(arr >= t, float(h), 0.0)
            return out

        f = step(tf, steps_f, y)
        g = step(tg, steps_g, y)
        if opposite:
            g = -g
        e = covariance(make_batch(f, g))
        if opposite:
            assert e.value <= 1e-9
        else:
            assert e.value >= -1e-9


def survival_row(batch, z):
    """rao_blackwell_grid's survival row for threshold z, and each half's sum of it."""
    (row,), (low, high) = estimators._survival_rows(batch, np.array([z]))
    return row, (low[0], high[0])


class TestConditionalExceedance:
    """P(w'X >= z | norm y), the survival row the Rao-Blackwell estimator reads.

    Its norms are checked when their batch is built (test_non_finite_norm_rejected,
    test_negative_norm_rejected_when_the_batch_is_built), its thresholds by the estimator
    (test_non_finite_threshold_rejected).  The grid sets the zero-norm atom itself, so
    ``_norm_survival`` sees positive norms only.
    """

    def test_gaussian_median(self):
        assert _norm_survival(PriorSpec(), 0.0, np.ones(1), np.empty(1))[0] == 0.5

    def test_gaussian_one_sigma(self):
        got = _norm_survival(PriorSpec(), 1.0, np.ones(1), np.empty(1))[0]
        # cross-check against an independent survival implementation
        assert got == pytest.approx(0.5 * erfc(1 / np.sqrt(2)), abs=1e-15)
        assert got == pytest.approx(0.15865525393145707, abs=1e-12)

    def test_zero_norm_is_indicator(self):
        y = np.array([0.0, 1.0, -0.0, 2.0])     # halves (0, 1) and (-0, 2): a zero leads each
        for prior in (PriorSpec(), PriorSpec(family="student_t", nu=3.0)):
            batch = SampleBatch(np.zeros(4), np.ones(4), 2, "pre", prior, y)
            for z, atom in ((-1.0, 1.0), (0.0, 1.0), (0.5, 0.0)):
                assert survival_row(batch, z)[0][[0, 2]].tolist() == [atom, atom]

    def test_tiny_norm_overflows_to_exact_survival_quietly(self):
        y = np.array([5e-324, 1e-310])          # z / y overflows to +-inf for |z| >= 1
        for prior in (PriorSpec(), PriorSpec(family="student_t", nu=3.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _norm_survival(prior, 1.0, y, np.empty(2)).tolist() == [0.0, 0.0]
                assert _norm_survival(prior, -1.0, y, np.empty(2)).tolist() == [1.0, 1.0]

    def test_student_matches_reference(self):
        prior = PriorSpec(family="student_t", nu=4.5)
        y = np.array([0.5, 1.0, 2.0])
        got = _norm_survival(prior, 1.2, y, np.empty(3))
        want = student_t.sf(1.2 / y, df=4.5)
        assert np.allclose(got, want, rtol=1e-12)


class TestRaoBlackwell:
    def test_equal_thresholds_give_nonnegative_variance(self):
        norms = np.abs(np.random.default_rng(1).standard_normal(100))
        batch = make_batch(np.zeros(100), np.zeros(100), prev_norms=norms)
        e = rao_blackwell_delta(batch, 0.7, 0.7)
        assert e.value >= 0.0

    def test_requires_norms_and_depth(self):
        with pytest.raises(ValueError):
            rao_blackwell_delta(make_batch([1, 2], [3, 4]), 0, 0)
        shallow = SampleBatch(np.zeros(5), np.ones(5), 1, "pre", PriorSpec(), np.ones(5))
        with pytest.raises(ValueError):
            rao_blackwell_delta(shallow, 0, 0)

    def test_post_tap_batch_rejected(self):
        # a post-tap batch used to be scored as if it held pre-activations: at z = 0 a ReLU
        # L2H2 net's post-tap value is exactly 0, and RB returned the pre-tap 0.048
        x = generate_input(20, SeedSpec(3))
        cfg = uniform_config(20, 2, 2)
        batch = sample_units(cfg, x, 2, (0, 1), "post", 2000, SeedSpec(3), want_norms=True)
        assert delta_upper(batch, 0.0, 0.0).value == 0.0
        with pytest.raises(ValueError, match="tap 'pre'"):
            rao_blackwell_delta(batch, 0.0, 0.0)

    def test_non_finite_norm_rejected(self):
        # a NaN norm would count as a dead layer, an infinite one as z / y = 0; the batch
        # refuses both when it is built, so no Rao-Blackwell call can see them
        for bad in (np.nan, np.inf):
            norms = np.abs(np.random.default_rng(2).standard_normal(100))
            norms[17] = bad
            for prior in (PriorSpec(), PriorSpec(family="student_t", nu=3.0)):
                with pytest.raises(ValueError, match="a sample batch needs finite values"):
                    SampleBatch(np.zeros(100), np.zeros(100), 2, "pre", prior, norms)

    def test_agrees_with_indicator_estimator(self):
        x = generate_input(40, SeedSpec(31))
        cfg = uniform_config(40, 2, 2)
        batch = sample_units(cfg, x, 2, (0, 1), "pre", 30_000, SeedSpec(31), want_norms=True)
        rb = rao_blackwell_delta(batch, 0.0, 0.0)
        ind = delta_upper(batch, 0.0, 0.0)
        assert abs(rb.value - ind.value) <= 4 * np.hypot(rb.std_error, ind.std_error)
        assert rb.std_error < ind.std_error


PRIORS = [PriorSpec(), PriorSpec(family="equicorrelated", rho=0.3),
          PriorSpec(family="student_t", nu=3.5)]
ATOM_THRESHOLDS = [-1.0, -0.0, 0.0, 0.5]
GRID_NEG_ZERO, GRID_ZERO = (-1.0, -0.0, 0.5), (-0.25, 0.0, 0.75, 1.5)


def norms_with_dead_rows(n=1000, seed=41):
    y = np.abs(np.random.default_rng(seed).standard_normal(n))
    y[::5] = 0.0
    return y


UNIT_ROUNDOFF = 2.0 ** -53


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u): the relative error of k float64 roundings."""
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def rounding_bounds(x, y, exact):
    """Bounds on how far _cell_moments' value and SE for rows x and y lie from ``exact``,
    their :func:`exact_covariance`, fixed before any run from Higham 2002, sections 3-4.

    Means: numpy sums each half of m <= ceil(n / 2) terms pairwise over leaves of at most 128
    terms, and no sum of m terms rounds a term more than m times, so with the halves' sum and
    the division a mean meets k = min(m, 128 + ceil(log2 m)) + 2 roundings and is off by at
    most d = gamma_k mean|x|.  Sums of products: einsum runs a half's m <= ceil(n / 2)
    products through L >= 1 SIMD lanes, serially within each, then adds the lanes into a
    zeroed output, so in any such order a term meets at most m + 1 roundings (its product's
    included); the halves' sum adds one and the centring two.  With the centred rows a, b and
    A = |a| + 2d, B = |b| + 2d (2d: this bound's own float centring too), sum a'b' is off by
    e_p = gamma_(m+4) sum AB + 4 n d_x d_y (the mean errors cancel to that, as sum a = 0) and
    sum a'^2 b'^2, whose squares round twice more each, by
    e_q = gamma_(m+8) sum A^2 B^2 + sum (A^2 B^2 - a^2 b^2).  Value: e_p / (n - 1) and the
    division's ulp.  SE: mean(q) - mean(p)^2 is off by E, the errors of its two terms (the
    cancellation term is the square's: e_m (2 sum AB / n + e_m), with e_m the mean's error)
    and of its subtraction; SE^2 = that / (n - 1) moves the square root by at most
    min(sqrt(E'), E' / SE) for E' = E / (n - 1), and its last four roundings by gamma_4 SE.
    """
    n = x.shape[0]
    m = n - n // 2
    u = UNIT_ROUNDOFF
    k = min(m, 128 + int(np.ceil(np.log2(m)))) + 2
    dx, dy = (gamma(k) * np.abs(r).mean() for r in (x, y))
    a, b = x - x.mean(), y - y.mean()
    ab = np.abs(a * b)
    big_ab = (np.abs(a) + 2 * dx) * (np.abs(b) + 2 * dy)
    s1, s2 = big_ab.sum(), (big_ab * big_ab).sum()
    e_p = gamma(m + 4) * s1 + n * (2 * dx) * (2 * dy)
    e_q = gamma(m + 8) * s2 + (s2 - (ab * ab).sum())
    value, se = exact
    value_bound = e_p / (n - 1) * (1 + u) + u * abs(value)
    e_m = (e_p + u * (s1 + e_p)) / n
    mean_sq = e_m * (2 * s1 / n + e_m) + u * (s1 / n + e_m) ** 2
    mean_q = (e_q + u * (s2 + e_q)) / n
    e_var = mean_q + mean_sq + u * ((s2 + e_q) / n + (s1 / n + e_m) ** 2)
    e_se2 = e_var / (n - 1)
    moved = min(np.sqrt(e_se2), e_se2 / se if se > 0 else np.inf)
    return value_bound, moved + gamma(4) * (se + moved)


def assert_within_rounding(got, x, y):
    """got, the cell of rows x and y, lies within rounding_bounds of their exact covariance."""
    want = exact_covariance(x, y)
    bound = rounding_bounds(x, y, want)
    # small enough to catch a mispaired row: below 1e-7 of the mean |influence value|, which
    # the SE's cancellation term, about sqrt(u) |value| where the influence spread is 0, meets
    assert max(bound) < 1e-7 * np.abs((x - x.mean()) * (y - y.mean())).mean()
    assert abs(got.value - want[0]) <= bound[0]
    assert abs(got.std_error - want[1]) <= bound[1]


class TestKernelBits:
    def test_student_survival_at_infinity(self):
        for nu in (2.5, 3.5, 30.0):
            assert stdtr(nu, np.inf) == 1.0 and stdtr(nu, -np.inf) == 0.0

    @pytest.mark.parametrize("prior", PRIORS, ids=lambda p: p.family)
    @pytest.mark.parametrize("z", ATOM_THRESHOLDS)
    def test_conditional_exceedance_keeps_the_atom_and_its_bits(self, monkeypatch, prior, z):
        y = norms_with_dead_rows()
        kept = y.copy()
        batch = SampleBatch(np.zeros(y.shape[0]), np.ones(y.shape[0]), 2, "pre", prior, y)
        want = rb_survival_row(prior, z, y)
        for pair_min in (y.shape[0] + 1, 2):      # serial, then threaded
            monkeypatch.setattr(estimators, "_PAIR_MIN", pair_min)
            got, sums = survival_row(batch, z)
            assert got.tobytes() == want.tobytes()
            assert np.array(sums).tobytes() == np.array([want[:500].sum(),
                                                         want[500:].sum()]).tobytes()
            # each half's dead rows, a fifth of it, lead the half at the atom's exact survival
            for half in (got[:500], got[500:]):
                assert np.all(half[:100] == (1.0 if z <= 0 else 0.0))
        assert y.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("prior", PRIORS, ids=lambda p: p.family)
    def test_rao_blackwell_within_its_rounding_bound_keeps_the_inputs(self, prior):
        y = norms_with_dead_rows()
        u, v = np.random.default_rng(43).standard_normal((2, y.shape[0]))
        kept = [a.copy() for a in (u, v, y)]
        batch = SampleBatch(u, v, 2, "pre", prior, y)
        for z1, z2 in itertools.product(ATOM_THRESHOLDS, repeat=2):
            assert_within_rounding(rao_blackwell_delta(batch, z1, z2),
                                   rb_survival_row(prior, z1, y), rb_survival_row(prior, z2, y))
        assert all(a.tobytes() == b.tobytes() for a, b in zip((u, v, y), kept))

    @pytest.mark.parametrize("prior", PRIORS, ids=lambda p: p.family)
    @pytest.mark.parametrize("z1s, z2s", [(GRID_NEG_ZERO, GRID_ZERO), (GRID_ZERO, GRID_NEG_ZERO)],
                             ids=["neg_zero_by_zero", "zero_by_neg_zero"])
    def test_rao_blackwell_grid_within_its_rounding_bound_keeps_the_inputs(self, prior, z1s,
                                                                          z2s):
        y = norms_with_dead_rows()
        u, v = np.random.default_rng(47).standard_normal((2, y.shape[0]))
        kept = [a.copy() for a in (u, v, y)]
        batch = SampleBatch(u, v, 2, "pre", prior, y)
        grid = rao_blackwell_grid(batch, z1s, z2s)
        assert grid.value.shape == grid.std_error.shape == (len(z1s), len(z2s))
        assert grid.null_std_error is None and grid.n == y.shape[0]
        assert grid.z1_values.tobytes() == np.array(z1s).tobytes()
        assert grid.z2_values.tobytes() == np.array(z2s).tobytes()
        for (a, z1), (b, z2) in itertools.product(enumerate(z1s), enumerate(z2s)):
            got = grid.cell(a, b)
            assert_within_rounding(got, rb_survival_row(prior, z1, y),
                                   rb_survival_row(prior, z2, y))
            # the scalar estimator is the grid's cell, bit for bit
            assert bits(rao_blackwell_delta(batch, z1, z2)) == bits(got)
        assert all(a.tobytes() == b.tobytes() for a, b in zip((u, v, y), kept))

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_two_valued_row_with_no_influence_spread(self, n):
        # at z = 0 a row is 1 on the zero norms and 1/2 elsewhere: with half the norms zero,
        # every influence value (row - mean)^2 is (near) one number, and the SE's
        # mean(a^2 b^2) - mean(a b)^2 cancels to (near) 0
        y = np.abs(np.random.default_rng(n).standard_normal(n))
        y[: n // 2] = 0.0
        batch = SampleBatch(*np.zeros((2, n)), 2, "pre", PriorSpec(), y)
        row = rb_survival_row(PriorSpec(), 0.0, y)
        assert set(row.tolist()) == {0.5, 1.0}
        assert exact_covariance(row, row)[1] < 1e-5
        assert_within_rounding(rao_blackwell_delta(batch, 0.0, 0.0), row, row)

    @pytest.mark.parametrize("z1s, z2s, distinct", [
        ((-0.5, 0.0, 0.5), (-0.5, 0.0, 0.5), 3),   # criterion 9's axes
        ([0.5], [0.5], 1),                         # a diagonal scalar cell
        (GRID_NEG_ZERO, GRID_ZERO, 6),             # -0.0 and 0.0 are one threshold
    ], ids=["same_axes", "diagonal_cell", "signed_zeros"])
    @pytest.mark.parametrize("threaded", [False, True])
    def test_rao_blackwell_grid_computes_each_distinct_threshold_once(
            self, monkeypatch, z1s, z2s, distinct, threaded):
        y = norms_with_dead_rows()
        batch = SampleBatch(*np.ones((2, y.shape[0])), 2, "pre", PriorSpec(), y)
        want = rao_blackwell_grid(batch, z1s, z2s)
        calls = []                      # list.append is atomic across the two threads
        survival = estimators._norm_survival

        def counting(prior, z, y, out):
            calls.append((z, y.size, bool(np.all(y > 0))))
            return survival(prior, z, y, out)

        monkeypatch.setattr(estimators, "_norm_survival", counting)
        monkeypatch.setattr(estimators, "_PAIR_MIN", 2 if threaded else y.shape[0] + 1)
        got = rao_blackwell_grid(batch, z1s, z2s)
        evaluated = collections.Counter()   # norm elements evaluated, per threshold
        for z, size, positive in calls:
            assert positive                 # the zero-norm atom never reaches the survival
            evaluated[z] += size
        assert len(evaluated) == distinct
        assert set(evaluated) == set(z1s) | set(z2s)
        assert set(evaluated.values()) == {np.count_nonzero(y)}
        assert got.value.tobytes() == want.value.tobytes()
        assert got.std_error.tobytes() == want.std_error.tobytes()

    @pytest.mark.parametrize("prior", PRIORS, ids=lambda p: p.family)
    @pytest.mark.parametrize("signed", [np.array([1.0, -0.0, 2.0, 0.5, -0.0, 0.0]),
                                        np.where(norms_with_dead_rows() > 0,
                                                 norms_with_dead_rows(), -0.0)],
                             ids=["hand", "dead_rows"])
    def test_negative_zero_norm_is_the_atom(self, prior, signed):
        # -0.0 passes the batch's norm >= 0 check, and -z / -0.0 once flipped the atom's
        # survival: 1 for z > 0 and 0 for z < 0 (a cell of -0.182 for the hand batch's -0.031)
        assert np.signbit(signed).any()
        u, v = np.random.default_rng(61).standard_normal((2, signed.shape[0]))
        zs = (-0.5, 0.0, 0.5)
        neg, pos = (SampleBatch(u, v, 2, "pre", prior, y) for y in (signed, np.abs(signed)))
        got, want = rao_blackwell_grid(neg, zs, zs), rao_blackwell_grid(pos, zs, zs)
        assert got.value.tobytes() == want.value.tobytes()
        assert got.std_error.tobytes() == want.std_error.tobytes()
        assert rao_blackwell_delta(neg, 0.5, -0.5) == rao_blackwell_delta(pos, 0.5, -0.5)

    @pytest.mark.parametrize("prior", PRIORS, ids=lambda p: p.family)
    @pytest.mark.parametrize("tied", [False, True], ids=["distinct_norms", "tied_norms"])
    def test_rao_blackwell_is_the_sample_order_covariance_up_to_rounding(self, prior, tied):
        # sorting each half's norms reorders the covariance's sums; the cells must stay
        # within rounding_bounds of the sample-order covariance, on the batch as drawn and
        # with its samples permuted at random
        y = norms_with_dead_rows(1001)
        y = np.round(y, 1) if tied else y   # tied: about 30 distinct norms
        u, v = np.random.default_rng(53).standard_normal((2, y.shape[0]))
        z1s, z2s = (-1.0, 0.0, 0.5), (-0.25, 0.75)     # both atom sides
        for p in (np.arange(y.shape[0]), np.random.default_rng(59).permutation(y.shape[0])):
            grid = rao_blackwell_grid(SampleBatch(u[p], v[p], 2, "pre", prior, y[p]), z1s, z2s)
            for (a, z1), (b, z2) in itertools.product(enumerate(z1s), enumerate(z2s)):
                rows = masked_exceedance(prior, z1, y), masked_exceedance(prior, z2, y)
                grid_rows = rb_survival_row(prior, z1, y[p]), rb_survival_row(prior, z2, y[p])
                # the exact covariance does not see the order, so the grid's rows stand for
                # the sample-order rows: the same values, permuted
                assert exact_covariance(*rows) == exact_covariance(*grid_rows)
                assert_within_rounding(grid.cell(a, b), *grid_rows)

    @pytest.mark.parametrize("n", [2, 3, 1000, 100_001])
    def test_covariance_within_its_rounding_bound_keeps_the_inputs(self, n):
        u, v = np.random.default_rng(n).standard_normal((2, n))
        u[::3] = 0.0
        kept = u.copy(), v.copy()
        assert_within_rounding(covariance(make_batch(u, v)), *kept)
        assert u.tobytes() == kept[0].tobytes() and v.tobytes() == kept[1].tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold_rejected(self, bad):
        batch = make_batch(np.zeros(10), np.zeros(10), prev_norms=np.ones(10))
        with pytest.raises(ValueError, match="Rao-Blackwell estimation needs finite"):
            rao_blackwell_delta(batch, 0.5, bad)
        with pytest.raises(ValueError, match="Rao-Blackwell estimation needs finite"):
            rao_blackwell_grid(batch, [-1.0, 0.5], [bad])

    def test_negative_norm_rejected_when_the_batch_is_built(self):
        with pytest.raises(ValueError, match="the conditioning norm must be non-negative"):
            make_batch(np.zeros(4), np.zeros(4), prev_norms=np.array([1.0, 0.0, -0.5, 2.0]))


def rb_batch(tap="pre", layer=2, norms=(1.0, 0.0, 2.0, 0.5)):
    n = 4 if norms is None else len(norms)
    return SampleBatch(np.zeros(n), np.ones(n), layer, tap, PriorSpec(),
                       None if norms is None else np.array(norms))


class TestRaoBlackwellGridRejections:
    @pytest.mark.parametrize("batch, z1s, z2s, match", [
        (rb_batch(tap="post"), [0.0], [0.0], "tap 'pre'"),
        (rb_batch(norms=None), [0.0], [0.0], "without previous-layer norms"),
        (rb_batch(layer=1), [0.0], [0.0], "layer >= 2"),
        (rb_batch(), [0.0, np.inf], [0.0], "needs finite values"),
        (rb_batch(norms=(1.0,)), [0.0], [0.0], "n >= 2"),
        (rb_batch(), [], [0.0], "non-empty"),
        (rb_batch(), [0.0], [], "non-empty"),
        (rb_batch(), [0.0, 0.0], [0.0], "strictly increasing"),
        (rb_batch(), [0.0], [0.5, -0.5], "strictly increasing"),
    ], ids=["post_tap", "no_norms", "layer_1", "inf_threshold", "one_sample", "empty_z1",
            "empty_z2", "repeated_z1", "decreasing_z2"])
    def test_rejected(self, batch, z1s, z2s, match):
        with pytest.raises(ValueError, match=match):
            rao_blackwell_grid(batch, z1s, z2s)

    @pytest.mark.parametrize("norms, match", [
        ((1.0, np.nan, 2.0, 0.5), "a sample batch needs finite values"),
        ((1.0, -0.5, 2.0, 0.5), "non-negative"),
    ], ids=["nan_norm", "negative_norm"])
    def test_bad_norms_rejected_when_the_batch_is_built(self, norms, match):
        # the batch checks its norms once, so the estimator never sees them
        with pytest.raises(ValueError, match=match):
            rb_batch(norms=norms)

    @pytest.mark.parametrize("nu", [float("nan"), -3.0], ids=["unset_nu", "negative_nu"])
    def test_invalid_student_t_prior_rejected_when_it_is_built(self, nu):
        # such a prior on a hand-built batch used to give an RB value and SE of NaN
        u, v, y = np.random.default_rng(5).standard_normal((3, 100))
        with pytest.raises(ConfigError, match="student_t nu must be finite and exceed 2"):
            batch = SampleBatch(u, v, 2, "pre", PriorSpec(family="student_t", nu=nu), abs(y))
            rao_blackwell_delta(batch, 0.0, 0.0)

    def test_checks_run_in_order(self):
        # each batch mends the one before's first fault and keeps the later ones; the norms'
        # own faults (NaN, then a negative) stop the batch from being built at all
        steps = [(dict(tap="post", layer=1, norms=None), "tap 'pre'"),
                 (dict(layer=1, norms=None), "previous-layer norms"),
                 (dict(layer=1, norms=(1.0, 0.0, 1.0, 1.0)), "layer >= 2"),
                 (dict(norms=(1.0,)), "n >= 2")]
        for kwargs, match in steps:
            with pytest.raises(ValueError, match=match):
                rao_blackwell_grid(rb_batch(**kwargs), [0.0], [0.0])
        for norms, match in (((np.nan, -1.0, 1.0, 1.0), "finite"),
                             ((0.0, -1.0, 1.0, 1.0), "non-negative")):
            with pytest.raises(ValueError, match=match):
                rb_batch(norms=norms)
        assert rao_blackwell_grid(rb_batch(), [0.0], [0.0]).n == 4


class TestPdProfile:
    def test_hand_matrix(self):
        m = np.array([
            [1.0, 1.0, 2.0],
            [1.0, -1.0, 1.0],
            [-1.0, 1.0, -1.0],
            [1.0, 1.0, -2.0],
        ])
        prof = pd_profile(m, [0.0])
        # right tail: conditioning X3 >= 0 keeps rows 0, 1; row 0 has all leads >= 0
        assert prof.right_tail[0].value == 0.5
        assert prof.right_tail[0].n == 2
        # left tail: X3 <= 0 keeps rows 2, 3; only row 3 has all leads <= 0... row2: (-1, 1) no; row3: (1,1) no
        assert prof.left_tail[0].value == 0.0

    def test_vacuous_conditioning_is_unconditional(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((500, 3))
        below_min = m[:, -1].min() - 1.0
        prof = pd_profile(m, [below_min])
        expected = np.mean(np.all(m[:, :-1] >= 0, axis=1))
        assert prof.right_tail[0].value == expected
        assert prof.right_tail[0].n == 500

    def test_empty_event_flagged_absent(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((100, 2))
        above_max = m[:, -1].max() + 1.0
        prof = pd_profile(m, [above_max])
        assert prof.right_tail[0] is None
        assert prof.left_tail[0] is not None

    def test_all_empty_rejected(self):
        m = np.zeros((3, 2))
        with pytest.raises(ValueError):
            pd_profile(m[:1], [0.0])  # n < 2

    @pytest.mark.parametrize("z", [[], np.zeros((0,)), 0.0, [[0.0]]])
    def test_empty_or_non_list_thresholds_rejected(self, z):
        # an empty list used to be reported as "every conditioning event is empty"
        mm = np.random.default_rng(10).standard_normal((50, 2))
        with pytest.raises(ValueError, match="needs a non-empty list of thresholds"):
            pd_profile(mm, z)

    def test_non_finite_row_rejected(self):
        m = np.random.default_rng(11).standard_normal((50, 3))
        for row, col, bad in ((4, 0, np.nan), (9, 2, np.nan), (20, 1, np.inf)):
            mm = m.copy()
            mm[row, col] = bad
            with pytest.raises(ValueError, match="positive-dependence estimation needs finite"):
                pd_profile(mm, [0.0])

    def test_cells_equal_one_mask_per_threshold_bitwise(self):
        # unsorted and repeated thresholds, ones on sample values, on the zero atom (0.0 and
        # -0.0) and beyond every sample (+-9); 2 to 4 units, some rounded into ties
        rng = np.random.default_rng(12)

        def cell_bits(cells):
            return [c and (c.value.hex(), c.std_error.hex(), c.n) for c in cells]

        for case in range(100):
            n, units = int(rng.integers(2, 300)), int(rng.integers(2, 5))
            m = rng.standard_normal((n, units))
            if case % 3 == 0:
                m[rng.random((n, units)) < 0.3] = 0.0
            if case % 4 == 1:
                m = np.round(m, 1)
            pool = np.concatenate((m[:, -1], [-9.0, 9.0, 0.0, -0.0]))
            z = rng.choice(pool, int(rng.integers(1, 12)))
            z = np.concatenate((z, z[:2]))
            rng.shuffle(z)
            prof = pd_profile(m, z)
            right, left = masked_pd_cells(m, z)
            assert cell_bits(prof.right_tail) == cell_bits(right)
            assert cell_bits(prof.left_tail) == cell_bits(left)
            assert prof.z_values.tobytes() == z.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold_rejected(self, bad):
        # NaN and +inf used to give None right-tail cells, and +inf a left cell of every row
        m = np.random.default_rng(11).standard_normal((50, 3))
        with pytest.raises(ValueError, match="positive-dependence estimation needs finite"):
            pd_profile(m, [0.0, bad])


class TestDeltaGrid:
    def test_single_cell_equals_scalar_estimator_bitwise(self):
        rng = np.random.default_rng(12)
        u, v = rng.standard_normal(3000), rng.standard_normal(3000)
        batch = make_batch(u, v)
        grid = delta_grid(batch, [0.0], [0.0])
        e = delta_upper(batch, 0.0, 0.0)
        assert grid.value[0, 0] == e.value
        assert grid.std_error[0, 0] == e.std_error

    @pytest.mark.parametrize("tail", [UPPER, LOWER])
    def test_grid_matches_per_cell_scalars_with_ties(self, tail):
        rng = np.random.default_rng(13)
        u = rng.integers(-3, 4, 2000).astype(float)  # heavy ties, atoms on grid values
        v = rng.integers(-3, 4, 2000).astype(float)
        batch = make_batch(u, v)
        z1 = np.array([-2.0, -1.0, 0.0, 1.5])
        z2 = np.array([-1.0, 0.0, 2.0])
        grid = delta_grid(batch, z1, z2, tail=tail)
        scalar = delta_upper if tail == UPPER else delta_lower
        for a, za in enumerate(z1):
            for b, zb in enumerate(z2):
                e = scalar(batch, za, zb)
                assert grid.value[a, b] == e.value
                assert grid.std_error[a, b] == e.std_error

    def test_comonotone_diagonal_nonnegative(self):
        x = np.linspace(-2, 2, 101)
        batch = make_batch(x, x)
        z = np.linspace(-1.5, 1.5, 7)
        grid = delta_grid(batch, z, z)
        diag = np.diag(grid.value)
        assert np.all(diag >= 0.0)  # F(z)(1 - F(z)) form

    def test_validation(self):
        batch = make_batch([1, 2, 3], [1, 2, 3])
        with pytest.raises(ValueError):
            delta_grid(batch, [], [0.0])
        with pytest.raises(ValueError):
            delta_grid(batch, [0.0, 0.0], [0.0])
        with pytest.raises(ValueError):
            delta_grid(batch, [1.0, 0.0], [0.0])

    @pytest.mark.parametrize("tail", [UPPER, LOWER])
    def test_non_finite_input_rejected(self, tail):
        # a NaN sample would exceed every grid threshold and no scalar one, so the grid and
        # delta_upper would disagree at (0, 0); the batch refuses it when it is built
        with pytest.raises(ValueError, match="a sample batch needs finite values"):
            make_batch([np.nan, -1, 1, 0.5], [1, -1, 1, -0.5])
        batch = make_batch([1, 2, 3], [1, 2, 3])
        for z1, z2 in (([0.0, np.nan], [0.0]), ([0.0], [np.nan]), ([-np.inf, 0.0], [0.0])):
            with pytest.raises(ValueError, match="exceedance-difference estimation needs finite"):
                delta_grid(batch, z1, z2, tail)

    def test_replica_grid_matches_scalar_combo(self):
        rng = np.random.default_rng(14)
        arrays = rng.standard_normal((4, 800))
        first, second = make_batch(*arrays[:2]), make_batch(*arrays[2:])
        z = np.array([-0.5, 0.0, 0.5])
        for mode in (SUM_OF_COPIES, DIFF_OF_COPIES):
            grid = delta_grid(combine_copies(first, second, mode), z, z)
            e = delta_upper(combine_copies(first, second, mode), 0.0, 0.5)
            assert grid.value[1, 2] == e.value


EXTREMES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308])
CHUNK_SIZES = [8191, 8192, 8193]        # one sample either side of _bins' chunk


BIN_GRIDS = {                           # increasing threshold grids, even, uneven and extreme
    "even": np.linspace(-1.0, 1.0, 41), "one_value": np.array([0.25]),
    "cubes": np.sort(np.random.default_rng(61).standard_normal(41)) ** 3,
    "full_range": np.array([-1e308, 0.0, 1e308]), "subnormal": np.array([-5e-324, -0.0, 5e-324]),
    "extremes": np.unique(EXTREMES),
}


class TestBins:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30,
                    unique=True),
           st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=200),
           st.sampled_from(["left", "right"]))
    @settings(max_examples=300, deadline=None)
    def test_equals_searchsorted(self, zs, xs, side):
        z = np.unique(np.array(zs))     # unique also merges -0.0 with 0.0
        x = np.concatenate((xs, z, -z))
        assert np.array_equal(estimators._bins(z, x, side), np.searchsorted(z, x, side))

    @pytest.mark.parametrize("z", BIN_GRIDS.values(), ids=BIN_GRIDS.keys())
    @pytest.mark.parametrize("size", CHUNK_SIZES)
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_fixed_grids_equal_searchsorted(self, z, size, side):
        rng = np.random.default_rng(size)
        # the thresholds, their negatives and the extremes, then values on and past the grid
        spread = 1.5 * np.abs(z).max() * rng.uniform(-1.0, 1.0, size)
        x = np.concatenate((z, -z, EXTREMES, spread))[:size]
        x = x[rng.permutation(size)]
        got = estimators._bins(z, x, side)
        assert got.dtype == np.intp and got.shape == x.shape
        assert np.array_equal(got, np.searchsorted(z, x, side))

    @pytest.mark.parametrize("size", CHUNK_SIZES)
    @pytest.mark.parametrize("tail", [UPPER, LOWER])
    def test_grid_cells_equal_scalar_estimates_bitwise(self, size, tail):
        z = np.sort(np.random.default_rng(62).standard_normal(7)) ** 3
        rng = np.random.default_rng(size)
        u, v = rng.choice(np.concatenate((z, rng.standard_normal(50))), (2, size))
        batch = make_batch(u, v)
        grid = delta_grid(batch, z, z, tail=tail)
        scalar = delta_upper if tail == UPPER else delta_lower
        for (a, za), (b, zb) in itertools.product(enumerate(z), repeat=2):
            e = scalar(batch, za, zb)
            assert grid.value[a, b].tobytes() == np.float64(e.value).tobytes()
            assert grid.std_error[a, b].tobytes() == np.float64(e.std_error).tobytes()


class CountingPool(concurrent.futures.ThreadPoolExecutor):
    """The estimators' thread pool, counting the passes handed to a helper thread."""

    submitted = 0

    def submit(self, *args, **kwargs):
        CountingPool.submitted += 1
        return super().submit(*args, **kwargs)


def bits(result):
    """Every float an estimator returns, as bytes, so that equal means bitwise equal."""
    if isinstance(result, estimators.DeltaGrid):
        return b"".join(a.tobytes() for a in (result.value, result.std_error,
                                              result.null_std_error) if a is not None)
    return np.float64(result.value).tobytes() + np.float64(result.std_error).tobytes()


def post_tap_batch(n, seed=51):
    """ReLU-tapped pair, about half of each unit tied at exactly 0, with norms holding zeros."""
    rng = np.random.default_rng(seed)
    u, v = np.maximum(rng.standard_normal((2, n)), 0.0)
    y = np.abs(rng.standard_normal(n))
    y[::7] = 0.0                        # dead previous layers
    return SampleBatch(u, v, 2, "post", PriorSpec(), y)


def side_by_side_cases(n):
    """(label, call) for every estimator that pairs its passes, on samples of size n."""
    post = post_tap_batch(n)
    rng = np.random.default_rng(n)
    u, v = rng.standard_normal((2, n))
    z = np.linspace(-1.0, 1.0, 9)       # 0.0 is a grid value: the ReLU atom sits on it
    cases = [("covariance", lambda: covariance(post))]
    for name, estimate in (("tau", kendall_tau_arrays), ("rho", spearman_rho_arrays)):
        cases.append((f"{name}_untied", lambda e=estimate: e(u, v)))
        cases.append((f"{name}_tied", lambda e=estimate: e(post.u, post.v)))
    for prior in PRIORS:
        pre = SampleBatch(u, v, 2, "pre", prior, post.prev_norms)
        # one threshold (the atom's or not), 0 with a non-zero one, and two non-zero ones
        for z1, z2 in ((0.0, 0.0), (0.5, 0.5), (0.0, 0.75), (-0.5, 1.25)):
            cases.append((f"rb_{prior.family}_{z1}_{z2}",
                          lambda b=pre, z1=z1, z2=z2: rao_blackwell_delta(b, z1, z2)))
        cases.append((f"rb_grid_{prior.family}", lambda b=pre: rao_blackwell_grid(b, z[::2], z)))
    return cases


def run_cases(monkeypatch, n, pair_min):
    """Each case's bits, and whether it gave a pass to a helper thread, at _PAIR_MIN = pair_min."""
    monkeypatch.setattr(estimators, "_PAIR_MIN", pair_min)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    out, threaded = {}, {}
    for label, call in side_by_side_cases(n):
        CountingPool.submitted = 0
        out[label] = bits(call())
        threaded[label] = CountingPool.submitted > 0
    return out, threaded


class TestSideBySidePasses:
    @pytest.mark.parametrize("n", [17, 1000])
    def test_threaded_equals_serial_bitwise(self, monkeypatch, n):
        serial, threaded = run_cases(monkeypatch, n, n + 1)
        assert not any(threaded.values())
        got, threaded = run_cases(monkeypatch, n, n)
        assert all(threaded.values())
        assert got == serial

    @pytest.mark.parametrize("offset, threaded", [(-1, False), (0, True), (1, True)])
    def test_size_constant_is_where_threading_starts(self, monkeypatch, offset, threaded):
        n = estimators._PAIR_MIN + offset
        got, was_threaded = run_cases(monkeypatch, n, estimators._PAIR_MIN)
        assert set(was_threaded.values()) == {threaded}
        serial, _ = run_cases(monkeypatch, n, n + 1)
        assert got == serial

    @pytest.mark.parametrize("raising", ["a", "b"])
    def test_a_raising_pass_reaches_the_caller_and_joins_its_thread(self, monkeypatch, raising):
        # "b" is the helper thread's pass, "a" the caller's
        def f(x):
            if x == raising:
                raise KeyError(x)
            return x

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
        CountingPool.submitted = 0
        before = threading.active_count()
        with pytest.raises(KeyError, match=raising):
            _pair(f, "a", "b", estimators._PAIR_MIN)
        assert CountingPool.submitted == 1
        assert threading.active_count() == before
