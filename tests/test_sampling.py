import numpy as np
import pytest
from scipy.stats import ks_2samp

import bnndep.sampling as sampling
from bnndep.network import IDENTITY, RELU, SIGMOID, TANH, PriorSpec, elu, uniform_config
from bnndep.sampling import (
    SampleBatch,
    SeedSpec,
    combine_copies,
    generate_input,
    sample_layer,
    sample_taps,
    sample_units,
)
from reference import forward, sample_weight_matrix


class TestGenerateInput:
    def test_deterministic(self):
        a = generate_input(3, SeedSpec(9))
        b = generate_input(3, SeedSpec(9))
        assert np.array_equal(a, b)

    def test_moments_at_scale(self):
        # CLT bounds for a standard Gaussian sample of one million entries
        x = generate_input(10**6, SeedSpec(42))
        assert abs(x.mean()) < 5 / np.sqrt(10**6)
        assert abs(x.var() - 1.0) < 0.01

    def test_stream_separation(self):
        assert generate_input(1, SeedSpec(1))[0] != generate_input(1, SeedSpec(2))[0]

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            generate_input(0, SeedSpec(1))

    @pytest.mark.parametrize("dim", [2.5, 3.0, np.float64(3), True])
    def test_non_integer_dim_rejected(self, dim):
        # 2.5 and True used to fail inside numpy with a TypeError
        with pytest.raises(ValueError, match="input dimension must be an integer"):
            generate_input(dim, SeedSpec(1))


class TestSeeds:
    @pytest.mark.parametrize("seed", [1.5, 1.9, 1.0, True, "3", -1, np.float64(1)])
    def test_non_integer_or_negative_seed_rejected(self, seed):
        # 1.9 and True used to draw seed 1's vector and "3" to be parsed as 3
        with pytest.raises(ValueError, match="seeds and stream labels must be integers >= 0"):
            generate_input(3, seed)
        with pytest.raises(ValueError, match="seeds and stream labels must be integers >= 0"):
            SeedSpec(seed)

    @pytest.mark.parametrize("label", [1.5, True, -2])
    def test_non_integer_or_negative_label_rejected(self, label):
        with pytest.raises(ValueError, match="seeds and stream labels must be integers >= 0"):
            SeedSpec(1).child(0, label)
        with pytest.raises(ValueError, match="seeds and stream labels must be integers >= 0"):
            SeedSpec(1, (label,))

    def test_numpy_integers_keep_the_bits(self, small_setup):
        x, cfg = small_setup
        assert np.array_equal(generate_input(3, np.int64(7)), generate_input(3, 7))
        for numpy_seed, seed in ((np.uint32(5), SeedSpec(5)),
                                 (SeedSpec(np.uint32(5)).child(np.int64(1)), SeedSpec(5).child(1))):
            a = sample_units(cfg, x, 2, (0, 1), "pre", 100, numpy_seed)
            b = sample_units(cfg, x, 2, (0, 1), "pre", 100, seed)
            assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)

    def test_stream_keys_are_the_seed_sequence_spawn_keys(self):
        # the mapping from seed to bits: master seed as entropy, namespace and labels as key,
        # SFC64 streams; sampler block k reads key (STREAM_WEIGHTS, 0, k) for its normals,
        # drawn with units as rows, and the sibling key (STREAM_WEIGHTS, 0, k, 1) for
        # student_t's chi-square mixing
        def sfc64(entropy, key):
            seq = np.random.SeedSequence(entropy, spawn_key=key)
            return np.random.Generator(np.random.SFC64(seq))

        seed = SeedSpec(3, (1, 2))
        assert np.array_equal(seed.stream(0).standard_normal(4),
                              sfc64(3, (1, 2, 0)).standard_normal(4))
        assert np.array_equal(seed.child(5).stream(0).standard_normal(4),
                              sfc64(3, (1, 2, 5, 0)).standard_normal(4))
        x = generate_input(4, 9)
        assert np.array_equal(x, sfc64(9, (sampling.STREAM_INPUT,)).standard_normal(4))
        prior = PriorSpec(family="student_t", nu=3.0)
        cfg = uniform_config(4, 3, 1, IDENTITY, prior)
        block = (sampling.STREAM_WEIGHTS, 0, 0)
        pre = sfc64(9, block).standard_normal((3, 5))
        pre *= np.sqrt(3.0 / sfc64(9, block + (1,)).chisquare(3.0, (3, 5)))
        pre *= np.sqrt(prior.scatter_quadratic(x, 4))
        assert np.array_equal(sample_layer(cfg, x, 1, 5, 9), pre.T)
        batch = sample_units(cfg, x, 1, (2, 0), "pre", 5, 9)
        assert np.array_equal(batch.u, pre[2]) and np.array_equal(batch.v, pre[0])


class TestWeightMatrix:
    """The explicit-weight reference sampler in ``tests/reference.py``."""

    def test_iid_variance(self):
        rng = SeedSpec(0).stream(50)
        w = sample_weight_matrix(PriorSpec(scale_mode="fixed", sigma0=1.0), 1, 10**5, rng)
        assert abs(w.var() - 1.0) < 0.03

    def test_fan_in_scaling(self):
        rng = SeedSpec(0).stream(51)
        w = sample_weight_matrix(PriorSpec(sigma0=1.0), 100, 2000, rng)
        assert abs(w.var() * 100 - 1.0) < 0.05

    def test_equicorrelated_structure(self):
        rng = SeedSpec(0).stream(52)
        spec = PriorSpec(family="equicorrelated", rho=0.5, scale_mode="fixed")
        w = sample_weight_matrix(spec, 2, 10**5, rng)
        within = np.corrcoef(w[0], w[1])[0, 1]
        across = np.corrcoef(w[0, :-1], w[0, 1:])[0, 1]
        assert abs(within - 0.5) < 0.02
        assert abs(across) < 0.02

    def test_student_t_symmetric_heavy_tails(self):
        rng = SeedSpec(0).stream(53)
        spec = PriorSpec(family="student_t", nu=3.0, scale_mode="fixed")
        w = sample_weight_matrix(spec, 1, 10**5, rng)[0]
        assert abs(np.median(w)) < 4 * 1.2533 / np.sqrt(10**5)  # median CI ~ 1.2533 sd/sqrt(n)
        z = (w - w.mean()) / w.std()
        kurtosis = np.mean(z**4) - 3.0
        assert kurtosis > 1.0  # Gaussian excess kurtosis is 0


TAP_PRIORS = {
    "gaussian": PriorSpec(),
    "equicorrelated": PriorSpec(family="equicorrelated", rho=0.3),
    "student_t": PriorSpec(family="student_t", nu=3.0),
}


POST_ACTIVATIONS = {"relu": RELU, "identity": IDENTITY, "tanh": TANH, "sigmoid": SIGMOID,
                    "elu": elu(0.5)}


@pytest.fixture(scope="module")
def small_setup():
    x = generate_input(30, SeedSpec(77))
    cfg = uniform_config(30, 3, 2)
    return x, cfg


class TestSampleUnits:
    def test_empty_batch(self, small_setup):
        x, cfg = small_setup
        batch = sample_units(cfg, x, 2, (0, 1), "pre", 0, SeedSpec(1))
        assert batch.n == 0

    def test_layer1_identity_gaussian_linear_form(self):
        # u and v are independent Gaussians with variance sigma^2 ||x||^2
        x = generate_input(10, SeedSpec(5))
        cfg = uniform_config(10, 2, 1, IDENTITY, PriorSpec(scale_mode="fixed", sigma0=0.5))
        n = 40_000
        batch = sample_units(cfg, x, 1, (0, 1), "pre", n, SeedSpec(5))
        target = 0.25 * float(x @ x)
        rel_tol = 4 * np.sqrt(2.0 / n)
        assert abs(batch.u.var() / target - 1.0) < rel_tol
        assert abs(batch.v.var() / target - 1.0) < rel_tol
        assert abs(np.corrcoef(batch.u, batch.v)[0, 1]) < 4 / np.sqrt(n)

    def test_thread_count_invariance(self, small_setup):
        x, cfg = small_setup
        a = sample_units(cfg, x, 2, (0, 1), "pre", 9000, SeedSpec(3), workers=1)
        b = sample_units(cfg, x, 2, (0, 1), "pre", 9000, SeedSpec(3), workers=4)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)

    def test_exchangeability_exact(self, small_setup):
        x, cfg = small_setup
        a = sample_units(cfg, x, 2, (0, 1), "pre", 500, SeedSpec(3))
        b = sample_units(cfg, x, 2, (1, 0), "pre", 500, SeedSpec(3))
        assert np.array_equal(a.u, b.v) and np.array_equal(a.v, b.u)

    def test_seed_separation(self, small_setup):
        x, cfg = small_setup
        a = sample_units(cfg, x, 2, (0, 1), "pre", 100, SeedSpec(3))
        b = sample_units(cfg, x, 2, (0, 1), "pre", 100, SeedSpec(4))
        assert not np.array_equal(a.u, b.u)

    @pytest.mark.parametrize("family", sorted(TAP_PRIORS))
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("act", sorted(POST_ACTIVATIONS))
    def test_post_tap_applies_activation(self, family, workers, act):
        # a post batch is the activation of its pre batch, bit for bit, for a unit pair, for
        # two taps of one draw and for a whole layer; 9001 draws span three blocks and are
        # not a multiple of 8
        x = generate_input(7, SeedSpec(80))
        fn = POST_ACTIVATIONS[act]
        cfg = uniform_config(7, 5, 3, fn, TAP_PRIORS[family])
        units, taps, layer = ({tap: draw(tap) for tap in ("pre", "post")} for draw in (
            lambda tap: [sample_units(cfg, x, 2, (3, 1), tap, 9001, SeedSpec(6),
                                      workers=workers)],
            lambda tap: sample_taps(cfg, x, (2, 3), (0, 4), tap, 9001, SeedSpec(6),
                                    want_norms=True, workers=workers),
            lambda tap: sample_layer(cfg, x, 3, 9001, SeedSpec(6), tap, workers=workers)))
        for pre, post in zip(units["pre"] + taps["pre"], units["post"] + taps["post"]):
            assert post.n == 9001 and post.tap == "post"
            assert np.array_equal(post.u, fn(pre.u)) and np.array_equal(post.v, fn(pre.v))
            assert (post.prev_norms is None if pre.prev_norms is None
                    else np.array_equal(post.prev_norms, pre.prev_norms))
        assert layer["post"].shape == (9001, 5)
        assert np.array_equal(layer["post"], fn(layer["pre"]))

    def test_validation_errors(self, small_setup):
        x, cfg = small_setup
        with pytest.raises(ValueError):
            sample_units(cfg, x, 1, (0, 1), "pre", 10, SeedSpec(1), want_norms=True)
        with pytest.raises(ValueError):
            sample_units(cfg, x, 2, (1, 1), "pre", 10, SeedSpec(1))
        with pytest.raises(ValueError):
            sample_units(cfg, x, 2, (0, 3), "pre", 10, SeedSpec(1))
        with pytest.raises(ValueError):
            sample_units(cfg, x, 3, (0, 1), "pre", 10, SeedSpec(1))
        with pytest.raises(ValueError):
            sample_units(cfg, x, 2, (0, 1), "mid", 10, SeedSpec(1))

    def test_nothing_positional_after_the_seed(self, small_setup):
        # want_norms and workers are keyword-only, so a stale positional argument raises
        # instead of binding to the wrong parameter
        x, cfg = small_setup
        with pytest.raises(TypeError):
            sample_units(cfg, x, 2, (0, 1), "pre", 10, SeedSpec(1), 1)
        with pytest.raises(TypeError):
            sample_taps(cfg, x, (2,), (0, 1), "pre", 10, SeedSpec(1), False, 1)

    @pytest.mark.parametrize("width", [2, 3])
    @pytest.mark.parametrize("norms", [False, True])
    def test_no_unit_pair_points_to_sample_layer(self, monkeypatch, width, norms):
        # None used to draw the whole layer, then fail with "not enough values to unpack"
        # or, with norms, as a batch of unequal lengths; it is rejected before any draw
        x = generate_input(7, SeedSpec(80))
        cfg = uniform_config(7, width, 3)
        monkeypatch.setattr(sampling, "_sample", None)  # a draw would raise TypeError
        with pytest.raises(ValueError, match="unit pair .* got None; sample_layer"):
            sample_units(cfg, x, 2, None, "pre", 10, SeedSpec(1), want_norms=norms)
        with pytest.raises(ValueError, match="unit pair .* got None; sample_layer"):
            sample_taps(cfg, x, (2, 3), None, "pre", 10, SeedSpec(1), want_norms=norms)

    @pytest.mark.parametrize("pair", [(0, 1, 1), (0,), (), 1, ((0, 1), (1, 2))])
    def test_unit_pair_must_name_two_units(self, small_setup, pair):
        # (0, 1, 1) used to fail with "too many values to unpack"
        x, cfg = small_setup
        with pytest.raises(ValueError, match="unit pair must name exactly two units"):
            sample_units(cfg, x, 2, pair, "pre", 10, SeedSpec(1))


class TestPrevNorms:
    def test_norms_nonnegative_and_zero_iff_dead(self):
        x = generate_input(40, SeedSpec(8))
        cfg = uniform_config(40, 2, 2)
        n = 20_000
        batch = sample_units(cfg, x, 2, (0, 1), "pre", n, SeedSpec(8), want_norms=True)
        assert np.all(batch.prev_norms >= 0)
        dead = batch.prev_norms == 0.0
        # dead previous layer forces both tapped units to exactly zero
        assert np.all(batch.u[dead] == 0.0) and np.all(batch.v[dead] == 0.0)
        # dead-layer frequency near 2^-H = 1/4
        p_hat = dead.mean()
        assert abs(p_hat - 0.25) < 4 * np.sqrt(0.25 * 0.75 / n)

    def test_iid_norm_matches_direct_computation(self):
        # a depth-(L-1) draw is the exact prefix of a depth-L draw from the same
        # seed, so its outputs give each draw's previous-layer norm directly;
        # n spans two sample blocks
        x = generate_input(12, SeedSpec(21))
        sigma0, rho, n = 2.0, 0.3, 5000
        for prior in (PriorSpec(sigma0=sigma0),
                      PriorSpec(family="equicorrelated", sigma0=sigma0, rho=rho),
                      PriorSpec(family="student_t", sigma0=sigma0, nu=3.0)):
            for depth in (2, 3):
                cfg = uniform_config(12, 3, depth, RELU, prior)
                batch = sample_units(cfg, x, depth, (0, 1), "pre", n, SeedSpec(21),
                                     want_norms=True)
                h = sample_layer(cfg, x, depth - 1, n, SeedSpec(21), tap="post")
                q = sigma0**2 / 3 * np.sum(h**2, axis=1)
                if prior.family == "equicorrelated":
                    q = sigma0**2 / 3 * ((1 - rho) * np.sum(h**2, axis=1) + rho * h.sum(axis=1)**2)
                assert np.allclose(batch.prev_norms, np.sqrt(q), rtol=1e-12, atol=0.0)


def copies(cfg, x, n, seed, workers=1):
    """Draws on ``seed`` and on its child (1,): two independent copies of the networks."""
    return [sample_units(cfg, x, 2, (0, 1), "pre", n, s, workers=workers)
            for s in (seed, seed.child(1))]


class TestChildCopies:
    def test_empty(self, small_setup):
        x, cfg = small_setup
        for mode in ("sum", "diff"):
            assert combine_copies(*copies(cfg, x, 0, SeedSpec(1)), mode).n == 0

    def test_copy_independence(self, small_setup):
        x, cfg = small_setup
        n = 20_000
        first, second = copies(cfg, x, n, SeedSpec(13))
        for a, b in ((first.u, second.u), (first.v, second.v), (first.u, second.v)):
            assert abs(np.corrcoef(a, b)[0, 1]) < 4 / np.sqrt(n)

    def test_marginal_law_matches_sample_units(self, small_setup):
        x, cfg = small_setup
        n = 20_000
        first, second = copies(cfg, x, n, SeedSpec(14))
        solo = sample_units(cfg, x, 2, (0, 1), "pre", n, SeedSpec(15))
        rel_tol = 8 * np.sqrt(2.0 / n)
        assert abs(first.u.var() / solo.u.var() - 1.0) < rel_tol
        assert abs(second.u.var() / solo.u.var() - 1.0) < rel_tol

    def test_first_copy_matches_plain_draws(self, small_setup):
        x, cfg = small_setup
        first, _ = copies(cfg, x, 400, SeedSpec(16))
        solo = sample_units(cfg, x, 2, (0, 1), "pre", 400, SeedSpec(16))
        assert np.array_equal(first.u, solo.u) and np.array_equal(first.v, solo.v)

    def test_second_copy_is_thread_count_invariant(self, small_setup):
        x, cfg = small_setup
        _, a = copies(cfg, x, 9000, SeedSpec(17), workers=1)
        _, b = copies(cfg, x, 9000, SeedSpec(17), workers=3)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


class TestSampleLayer:
    @pytest.mark.parametrize("family", sorted(TAP_PRIORS))
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("tap", ["pre", "post"])
    @pytest.mark.parametrize("width, pair", [(3, (0, 2)), (5, (0, 1)), (5, (3, 1))])
    def test_matches_unit_extraction(self, family, workers, tap, width, pair):
        # sample_units draws layer 2 only up to its higher unit, sample_layer all of it;
        # 9000 draws span three blocks, so two workers split the blocks
        x = generate_input(7, SeedSpec(80))
        cfg = uniform_config(7, width, 2, RELU, TAP_PRIORS[family])
        mat = sample_layer(cfg, x, 2, 9000, SeedSpec(30), tap, workers=workers)
        batch = sample_units(cfg, x, 2, pair, tap, 9000, SeedSpec(30), want_norms=True,
                             workers=workers)
        assert np.array_equal(mat[:, pair[0]], batch.u)
        assert np.array_equal(mat[:, pair[1]], batch.v)

    def test_shape(self, small_setup):
        x, cfg = small_setup
        assert sample_layer(cfg, x, 1, 17, SeedSpec(2)).shape == (17, 3)


class TestSampleTaps:
    @pytest.mark.parametrize("family", sorted(TAP_PRIORS))
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("tap", ["pre", "post"])
    @pytest.mark.parametrize("layers, norms, child", [((1, 2, 4), False, ()),
                                                      ((2, 3), True, (1,))])
    @pytest.mark.parametrize("width, pair", [(3, (2, 0)), (5, (0, 1)), (5, (3, 1))])
    def test_each_tap_equals_a_separate_draw_of_its_depth(self, family, workers, tap, layers,
                                                          norms, child, width, pair):
        # 9000 draws span three blocks, so two workers split the blocks; child (1,)
        # is the second copy of the networks; at width 5 each separate draw stops its
        # deepest layer at the higher unit, where the joint draw takes the whole layer
        x = generate_input(7, SeedSpec(80))
        seed = SeedSpec(81).child(*child)
        config = uniform_config(7, width, 4, RELU, TAP_PRIORS[family])
        taps = sample_taps(config, x, layers, pair, tap, 9000, seed, want_norms=norms,
                           workers=workers)
        assert [b.layer for b in taps] == list(layers)
        for batch in taps:
            solo = sample_units(uniform_config(7, width, batch.layer, RELU, TAP_PRIORS[family]),
                                x, batch.layer, pair, tap, 9000, seed, want_norms=norms)
            assert np.array_equal(batch.u, solo.u) and np.array_equal(batch.v, solo.v)
            assert (batch.tap, batch.prior) == (solo.tap, solo.prior)
            assert (batch.prev_norms is None if not norms
                    else np.array_equal(batch.prev_norms, solo.prev_norms))

    @pytest.mark.parametrize("layers", [(), (3, 2), (2, 2), (0, 2), (2, 5), (1.5, 3), (True,)])
    def test_bad_layer_tuples_rejected(self, layers):
        x = generate_input(7, SeedSpec(80))
        with pytest.raises(ValueError, match="layer"):
            sample_taps(uniform_config(7, 3, 4), x, layers, (0, 1), "pre", 10, SeedSpec(1))

    def test_norms_with_layer_one_tapped_rejected(self):
        x = generate_input(7, SeedSpec(80))
        with pytest.raises(ValueError, match="layer >= 2"):
            sample_taps(uniform_config(7, 3, 4), x, (1, 3), (0, 1), "pre", 10, SeedSpec(1),
                        want_norms=True)


# The scale test's bound in SEs, fixed in advance: its 12 two-sided cells
# (3 widths, 4 taps) at this bound have a family-wise false-alarm chance of
# about 7e-6.  A sampler whose scale is 10% off beyond layer 1 lies 10 or more
# SEs out at n = 1e5.
SCALE_BOUND = 5.0


@pytest.mark.parametrize("width", [2, 5, 10])
def test_second_moment_matches_the_exact_recursion(width):
    # Gaussian i.i.d. ReLU with fan-in scaling: E[u_1^2] = sigma0^2 |x|^2 / d, and each
    # later layer multiplies by sigma0^2 / 2, since E[relu(u)^2] = E[u^2] / 2
    prior, d, n = PriorSpec(), 20, 100_000
    x = generate_input(d, SeedSpec(90))
    config = uniform_config(d, width, 4, RELU, prior)
    for batch in sample_taps(config, x, (1, 2, 3, 4), (0, 1), "pre", n, SeedSpec(91),
                             workers=2):
        target = prior.sigma0**2 * float(x @ x) / d * (prior.sigma0**2 / 2) ** (batch.layer - 1)
        w = (batch.u**2 + batch.v**2) / 2
        score = (w.mean() - target) / (w.std(ddof=1) / np.sqrt(n))
        assert abs(score) < SCALE_BOUND, (batch.layer, score)


FAMILIES = {
    "gaussian": PriorSpec(sigma0=1.5),
    "equicorrelated": PriorSpec(family="equicorrelated", rho=0.3),
    "student_t": PriorSpec(family="student_t", nu=3.0),
}
ACTIVATIONS = {"relu": RELU, "tanh": TANH}
N_EXPLICIT = 3000
N_PROJECTION = 20_000
# two-sample KS tests over the whole parametrization: u and v at both taps
# per depth, plus the previous-layer norms at depths 2 and 3
KS_TESTS = len(FAMILIES) * len(ACTIVATIONS) * (3 * 4 + 2)
KS_LEVEL = 1e-3 / KS_TESTS


def explicit_draws(cfg, x, n, seed):
    """Explicit-weight reference draws, one at a time through ``reference.forward``.

    Columns: units 0 and 1 of the last layer at the pre tap, the same at the
    post tap, and the previous layer's norm (zero at depth 1).
    """
    rng = seed.stream(90)
    out = np.zeros((n, 5))
    for i in range(n):
        weights = [sample_weight_matrix(p, r, c, rng)
                   for p, r, c in zip(cfg.priors, cfg.widths, cfg.widths[1:])]
        ref = forward(cfg, weights, x)
        out[i, :4] = *ref.pre[-1][:2], *ref.post[-1][:2]
        if cfg.depth > 1:
            out[i, 4] = np.sqrt(cfg.priors[-1].scatter_quadratic(ref.post[-2], cfg.widths[-2]))
    return out


def ks_pvalues(cfg, x, ref, seed):
    """KS p-values of the projection sampler's draws against ``explicit_draws``."""
    pvalues = []
    for tap, cols in (("pre", ref[:, :2]), ("post", ref[:, 2:4])):
        batch = sample_units(cfg, x, cfg.depth, (0, 1), tap, N_PROJECTION, seed,
                             want_norms=cfg.depth > 1)
        pvalues += [ks_2samp(batch.u, cols[:, 0]).pvalue, ks_2samp(batch.v, cols[:, 1]).pvalue]
    if cfg.depth > 1:
        pvalues.append(ks_2samp(batch.prev_norms, ref[:, 4]).pvalue)
    return pvalues


class TestProjectionMatchesExplicitWeights:
    """The projection sampler against explicit weights, in distribution.

    The KS tests of ``test_same_distribution`` form one Bonferroni family at
    level 1e-3; the power cases must fail at the same per-test level.
    """

    @pytest.mark.parametrize("act", ACTIVATIONS)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_same_distribution(self, family, depth, act):
        seed = SeedSpec(60)
        x = generate_input(6, seed)
        cfg = uniform_config(6, 4, depth, ACTIVATIONS[act], FAMILIES[family])
        pvalues = ks_pvalues(cfg, x, explicit_draws(cfg, x, N_EXPLICIT, seed), seed)
        assert min(pvalues) > KS_LEVEL, pvalues

    def test_dropping_student_t_mixing_fails(self, monkeypatch):
        seed = SeedSpec(61)
        x = generate_input(6, seed)
        cfg = uniform_config(6, 4, 2, TANH, FAMILIES["student_t"])
        ref = explicit_draws(cfg, x, N_EXPLICIT, seed)
        monkeypatch.setattr(sampling, "STUDENT_T", "no family")
        assert min(ks_pvalues(cfg, x, ref, seed)) <= KS_LEVEL

    def test_quadratic_form_in_place_of_norm_fails(self, monkeypatch):
        seed = SeedSpec(62)
        x = generate_input(6, seed)
        cfg = uniform_config(6, 4, 2, RELU, FAMILIES["gaussian"])
        ref = explicit_draws(cfg, x, N_EXPLICIT, seed)
        real = PriorSpec.scatter_quadratic
        # the sampler takes the square root of this, which is then q itself
        monkeypatch.setattr(PriorSpec, "scatter_quadratic", lambda self, h, f: real(self, h, f)**2)
        assert min(ks_pvalues(cfg, x, ref, seed)) <= KS_LEVEL
