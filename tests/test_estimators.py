import concurrent.futures
import dataclasses
import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, ndtr, stdtr
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
from bnndep.network import PriorSpec, uniform_config
from bnndep.sampling import (
    DIFF_OF_COPIES,
    SUM_OF_COPIES,
    SampleBatch,
    SeedSpec,
    combine_copies,
    generate_input,
    sample_units,
)
from reference import bootstrap_std_error


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

    def test_batch_reads_no_values(self):
        # NaNs pass construction: values are the estimators' to check
        nan = np.broadcast_to(np.nan, (4,))
        assert SampleBatch(nan, nan, 2, "pre", PriorSpec(), nan).n == 4
        assert SampleBatch([0.0, 1.0], [1.0, 0.0], 2, "pre", PriorSpec()).prev_norms is None

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
        with pytest.raises(ValueError):
            estimator(make_batch([np.nan, -1, 1, 0.5], [1, -1, 1, -0.5]), 0.0, 0.0)
        with pytest.raises(ValueError):
            estimator(make_batch([0, -1, 1, 0.5], [1, -1, np.inf, -0.5]), 0.0, 0.0)
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError, match="covariance estimation needs finite"):
            covariance(make_batch([0.5, bad, 1.0, -1.0], [1.0, 2.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="covariance estimation needs finite"):
            covariance(make_batch([0.5, 2.0, 1.0, -1.0], [1.0, 2.0, bad, 1.0]))

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


class TestConditionalExceedance:
    """P(w'X >= z | norm y), the survival row the Rao-Blackwell estimator reads.

    Its argument checks are the estimator's: see test_non_finite_norm_rejected,
    test_negative_norm_rejected_by_rao_blackwell and test_non_finite_threshold_rejected.
    """

    def test_gaussian_median(self):
        assert _norm_survival(PriorSpec(), 0.0, np.ones(1))[0] == 0.5

    def test_gaussian_one_sigma(self):
        got = _norm_survival(PriorSpec(), 1.0, np.ones(1))[0]
        # cross-check against an independent survival implementation
        assert got == pytest.approx(0.5 * erfc(1 / np.sqrt(2)), abs=1e-15)
        assert got == pytest.approx(0.15865525393145707, abs=1e-12)

    def test_zero_norm_is_indicator(self):
        for prior in (PriorSpec(), PriorSpec(family="student_t", nu=3.0)):
            assert _norm_survival(prior, -1.0, np.zeros(1))[0] == 1.0
            assert _norm_survival(prior, 0.0, np.zeros(1))[0] == 1.0
            assert _norm_survival(prior, 0.5, np.zeros(1))[0] == 0.0

    def test_student_matches_reference(self):
        prior = PriorSpec(family="student_t", nu=4.5)
        y = np.array([0.5, 1.0, 2.0])
        got = _norm_survival(prior, 1.2, y)
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
        # a NaN norm would count as a dead layer, an infinite one as z / y = 0
        for bad in (np.nan, np.inf):
            norms = np.abs(np.random.default_rng(2).standard_normal(100))
            norms[17] = bad
            for prior in (PriorSpec(), PriorSpec(family="student_t", nu=3.0)):
                batch = SampleBatch(np.zeros(100), np.zeros(100), 2, "pre", prior, norms)
                with pytest.raises(ValueError, match="Rao-Blackwell estimation needs finite"):
                    rao_blackwell_delta(batch, 0.7, 0.2)

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


def reference_exceedance(prior, z, y):
    """The masked form: survival at z / y where y > 0, the atom's indicator where y = 0."""
    def survival(q):
        return stdtr(prior.nu, -q) if prior.family == "student_t" else ndtr(-q)

    positive = y > 0
    quotient = np.where(positive, z / np.where(positive, y, 1.0), 0.0)
    return np.where(positive, survival(quotient), 1.0 if z <= 0 else 0.0)


def reference_covariance(x, y):
    """Covariance and influence-function SE with fresh arrays at every step."""
    n = x.shape[0]
    prod = (x - x.mean()) * (y - y.mean())
    psi = prod - prod.mean()
    return float(prod.sum() / (n - 1)), float(psi.std(ddof=1) / np.sqrt(n))


def norms_with_dead_rows(n=1000, seed=41):
    y = np.abs(np.random.default_rng(seed).standard_normal(n))
    y[::5] = 0.0
    return y


class TestKernelBits:
    def test_student_survival_at_infinity(self):
        for nu in (2.5, 3.5, 30.0):
            assert stdtr(nu, np.inf) == 1.0 and stdtr(nu, -np.inf) == 0.0

    @pytest.mark.parametrize("prior", PRIORS, ids=lambda p: p.family)
    @pytest.mark.parametrize("z", ATOM_THRESHOLDS)
    def test_conditional_exceedance_keeps_the_atom_and_its_bits(self, prior, z):
        y = norms_with_dead_rows()
        kept = y.copy()
        got = _norm_survival(prior, z, y)
        assert got.tobytes() == reference_exceedance(prior, z, y).tobytes()
        assert np.all(got[::5] == (1.0 if z <= 0 else 0.0))
        assert y.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("prior", PRIORS, ids=lambda p: p.family)
    def test_rao_blackwell_keeps_its_bits_and_the_inputs(self, prior):
        y = norms_with_dead_rows()
        u, v = np.random.default_rng(43).standard_normal((2, y.shape[0]))
        kept = [a.copy() for a in (u, v, y)]
        batch = SampleBatch(u, v, 2, "pre", prior, y)
        for z1, z2 in itertools.product(ATOM_THRESHOLDS, repeat=2):
            e = rao_blackwell_delta(batch, z1, z2)
            want = reference_covariance(reference_exceedance(prior, z1, y),
                                        reference_exceedance(prior, z2, y))
            assert (e.value.hex(), e.std_error.hex()) == tuple(w.hex() for w in want)
        assert all(a.tobytes() == b.tobytes() for a, b in zip((u, v, y), kept))

    @pytest.mark.parametrize("prior", PRIORS, ids=lambda p: p.family)
    @pytest.mark.parametrize("z1s, z2s", [(GRID_NEG_ZERO, GRID_ZERO), (GRID_ZERO, GRID_NEG_ZERO)],
                             ids=["neg_zero_by_zero", "zero_by_neg_zero"])
    def test_rao_blackwell_grid_keeps_its_bits_and_the_inputs(self, prior, z1s, z2s):
        y = norms_with_dead_rows()
        u, v = np.random.default_rng(47).standard_normal((2, y.shape[0]))
        kept = [a.copy() for a in (u, v, y)]
        grid = rao_blackwell_grid(SampleBatch(u, v, 2, "pre", prior, y), z1s, z2s)
        assert grid.value.shape == grid.std_error.shape == (len(z1s), len(z2s))
        assert grid.null_std_error is None and grid.n == y.shape[0]
        assert grid.z1_values.tobytes() == np.array(z1s).tobytes()
        assert grid.z2_values.tobytes() == np.array(z2s).tobytes()
        for (a, z1), (b, z2) in itertools.product(enumerate(z1s), enumerate(z2s)):
            want = reference_covariance(reference_exceedance(prior, z1, y),
                                        reference_exceedance(prior, z2, y))
            got = grid.cell(a, b)
            assert (got.value.hex(), got.std_error.hex()) == tuple(w.hex() for w in want)
        assert all(a.tobytes() == b.tobytes() for a, b in zip((u, v, y), kept))

    @pytest.mark.parametrize("n", [2, 3, 1000, 100_001])
    def test_covariance_keeps_its_bits_and_the_inputs(self, n):
        u, v = np.random.default_rng(n).standard_normal((2, n))
        u[::3] = 0.0
        kept = u.copy(), v.copy()
        e = covariance(make_batch(u, v))
        want = reference_covariance(*kept)
        assert (e.value.hex(), e.std_error.hex()) == tuple(w.hex() for w in want)
        assert u.tobytes() == kept[0].tobytes() and v.tobytes() == kept[1].tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold_rejected(self, bad):
        batch = make_batch(np.zeros(10), np.zeros(10), prev_norms=np.ones(10))
        with pytest.raises(ValueError, match="Rao-Blackwell estimation needs finite"):
            rao_blackwell_delta(batch, 0.5, bad)
        with pytest.raises(ValueError, match="Rao-Blackwell estimation needs finite"):
            rao_blackwell_grid(batch, [-1.0, 0.5], [bad])

    def test_negative_norm_rejected_by_rao_blackwell(self):
        batch = make_batch(np.zeros(4), np.zeros(4), prev_norms=np.array([1.0, 0.0, -0.5, 2.0]))
        with pytest.raises(ValueError, match="non-negative"):
            rao_blackwell_delta(batch, 0.5, 0.5)


def rb_batch(tap="pre", layer=2, norms=(1.0, 0.0, 2.0, 0.5)):
    n = 4 if norms is None else len(norms)
    return SampleBatch(np.zeros(n), np.ones(n), layer, tap, PriorSpec(),
                       None if norms is None else np.array(norms))


class TestRaoBlackwellGridRejections:
    @pytest.mark.parametrize("batch, z1s, z2s, match", [
        (rb_batch(tap="post"), [0.0], [0.0], "tap 'pre'"),
        (rb_batch(norms=None), [0.0], [0.0], "without previous-layer norms"),
        (rb_batch(layer=1), [0.0], [0.0], "layer >= 2"),
        (rb_batch(norms=(1.0, np.nan, 2.0, 0.5)), [0.0], [0.0], "needs finite values"),
        (rb_batch(), [0.0, np.inf], [0.0], "needs finite values"),
        (rb_batch(norms=(1.0, -0.5, 2.0, 0.5)), [0.0], [0.0], "non-negative"),
        (rb_batch(norms=(1.0,)), [0.0], [0.0], "n >= 2"),
        (rb_batch(), [], [0.0], "non-empty"),
        (rb_batch(), [0.0], [], "non-empty"),
        (rb_batch(), [0.0, 0.0], [0.0], "strictly increasing"),
        (rb_batch(), [0.0], [0.5, -0.5], "strictly increasing"),
    ], ids=["post_tap", "no_norms", "layer_1", "nan_norm", "inf_threshold", "negative_norm",
            "one_sample", "empty_z1", "empty_z2", "repeated_z1", "decreasing_z2"])
    def test_rejected(self, batch, z1s, z2s, match):
        with pytest.raises(ValueError, match=match):
            rao_blackwell_grid(batch, z1s, z2s)

    def test_checks_run_in_order(self):
        # each batch mends the one before's first fault and keeps the later ones
        steps = [(rb_batch(tap="post", layer=1, norms=None), "tap 'pre'"),
                 (rb_batch(layer=1, norms=None), "previous-layer norms"),
                 (rb_batch(layer=1, norms=(np.nan, -1.0, 1.0, 1.0)), "layer >= 2"),
                 (rb_batch(norms=(np.nan, -1.0, 1.0, 1.0)), "finite"),
                 (rb_batch(norms=(0.0, -1.0, 1.0, 1.0)), "non-negative")]
        for batch, match in steps:
            with pytest.raises(ValueError, match=match):
                rao_blackwell_grid(batch, [0.0], [0.0])
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
        # a NaN sample would exceed every grid threshold and no scalar one,
        # so the grid and delta_upper would disagree at (0, 0)
        with pytest.raises(ValueError):
            delta_grid(make_batch([np.nan, -1, 1, 0.5], [1, -1, 1, -0.5]), [0.0], [0.0], tail)
        batch = make_batch([1, 2, 3], [1, 2, 3])
        for z1, z2 in (([0.0, np.nan], [0.0]), ([0.0], [np.nan]), ([-np.inf, 0.0], [0.0])):
            with pytest.raises(ValueError):
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
    cases = [(f"grid_{tail}", lambda tail=tail: delta_grid(post, z, z, tail))
             for tail in (UPPER, LOWER)]
    cases.append(("covariance", lambda: covariance(post)))
    for name, estimate in (("tau", kendall_tau_arrays), ("rho", spearman_rho_arrays)):
        cases.append((f"{name}_untied", lambda e=estimate: e(u, v)))
        cases.append((f"{name}_tied", lambda e=estimate: e(post.u, post.v)))
    for prior in (PriorSpec(), PriorSpec(family="student_t", nu=3.5)):
        pre = SampleBatch(u, v, 2, "pre", prior, post.prev_norms)
        for z1, z2 in ((0.0, 0.0), (0.0, 0.75), (-0.5, 1.25)):
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

    @pytest.mark.parametrize("offset, threaded", [(-1, False), (0, True)])
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
