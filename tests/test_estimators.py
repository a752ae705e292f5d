import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc
from scipy.stats import t as student_t

from bnndep.estimators import (
    DIFF_OF_COPIES,
    LOWER,
    SUM_OF_COPIES,
    UPPER,
    bootstrap_std_error,
    conditional_exceedance,
    covariance,
    delta_combo,
    delta_grid,
    delta_lower,
    delta_upper,
    pd_profile,
    rao_blackwell_delta,
)
from bnndep.network import PriorSpec, uniform_config
from bnndep.sampling import ReplicaBatch, SampleBatch, SeedSpec, generate_input, sample_units


def make_batch(u, v, layer=2, prev_norms=None):
    return SampleBatch(
        np.asarray(u, dtype=float), np.asarray(v, dtype=float),
        layer, "pre", PriorSpec(), prev_norms,
    )


FOUR_CORNERS = make_batch([1, 1, -1, -1], [1, -1, 1, -1])
COMONOTONE = make_batch([1, -1], [1, -1])


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
        reps = ReplicaBatch(u, v, -u, -v, 2, "pre", PriorSpec())
        e = delta_combo(reps, 0.0, 0.0, SUM_OF_COPIES)
        assert e.value == 0.0  # all sums are exactly zero, p11 = p1 = p2 = 1

    def test_exchanged_units_are_symmetric(self):
        rng = np.random.default_rng(3)
        arrays = rng.standard_normal((4, 100))
        reps = ReplicaBatch(*arrays, 2, "pre", PriorSpec())
        swapped = ReplicaBatch(arrays[1], arrays[0], arrays[3], arrays[2], 2, "pre", PriorSpec())
        a = delta_combo(reps, 0.1, 0.1, DIFF_OF_COPIES)
        b = delta_combo(swapped, 0.1, 0.1, DIFF_OF_COPIES)
        assert a.value == b.value

    def test_mode_validation(self):
        reps = ReplicaBatch(*(np.zeros(3),) * 4, 2, "pre", PriorSpec())
        with pytest.raises(ValueError):
            delta_combo(reps, 0, 0, "product")


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
    def test_gaussian_median(self):
        assert conditional_exceedance(PriorSpec(), 0.0, 1.0) == 0.5

    def test_gaussian_one_sigma(self):
        got = conditional_exceedance(PriorSpec(), 1.0, 1.0)
        # cross-check against an independent survival implementation
        assert got == pytest.approx(0.5 * erfc(1 / np.sqrt(2)), abs=1e-15)
        assert got == pytest.approx(0.15865525393145707, abs=1e-12)

    def test_zero_norm_is_indicator(self):
        for prior in (PriorSpec(), PriorSpec(family="student_t", nu=3.0)):
            assert conditional_exceedance(prior, -1.0, 0.0) == 1.0
            assert conditional_exceedance(prior, 0.0, 0.0) == 1.0
            assert conditional_exceedance(prior, 0.5, 0.0) == 0.0

    def test_student_matches_reference(self):
        prior = PriorSpec(family="student_t", nu=4.5)
        y = np.array([0.5, 1.0, 2.0])
        got = conditional_exceedance(prior, 1.2, y)
        want = student_t.sf(1.2 / y, df=4.5)
        assert np.allclose(got, want, rtol=1e-12)

    def test_negative_norm_rejected(self):
        with pytest.raises(ValueError):
            conditional_exceedance(PriorSpec(), 0.0, -1.0)


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

    def test_agrees_with_indicator_estimator(self):
        x = generate_input(40, SeedSpec(31))
        cfg = uniform_config(40, 2, 2)
        batch = sample_units(cfg, x, 2, (0, 1), "pre", 30_000, SeedSpec(31), want_norms=True)
        rb = rao_blackwell_delta(batch, 0.0, 0.0)
        ind = delta_upper(batch, 0.0, 0.0)
        assert abs(rb.value - ind.value) <= 4 * np.hypot(rb.std_error, ind.std_error)
        assert rb.std_error < ind.std_error


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
        rng = np.random.default_rng(10)
        mm = rng.standard_normal((50, 2))
        with pytest.raises(ValueError):
            # both tails empty cannot happen with one z; force via empty z list semantics
            pd_profile(mm, [])


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
        reps = ReplicaBatch(*arrays, 2, "pre", PriorSpec())
        z = np.array([-0.5, 0.0, 0.5])
        for mode in (SUM_OF_COPIES, DIFF_OF_COPIES):
            grid = delta_grid(reps, z, z, combo=mode)
            e = delta_combo(reps, 0.0, 0.5, mode)
            assert grid.value[1, 2] == e.value
