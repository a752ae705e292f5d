import numpy as np
import pytest

from bnndep.network import IDENTITY, RELU, TANH, PriorSpec, forward, uniform_config
from bnndep.sampling import (
    ReplicaBatch,
    SampleBatch,
    SeedSpec,
    _block_size,
    _weight_stack,
    generate_input,
    sample_layer,
    sample_replicas,
    sample_units,
    sample_weight_matrix,
)


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


class TestWeightMatrix:
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

    def test_post_tap_applies_activation(self, small_setup):
        x, cfg = small_setup
        pre = sample_units(cfg, x, 2, (0, 1), "pre", 300, SeedSpec(6))
        post = sample_units(cfg, x, 2, (0, 1), "post", 300, SeedSpec(6))
        assert np.array_equal(post.u, np.maximum(pre.u, 0.0))

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
        x = generate_input(12, SeedSpec(21))
        sigma0 = 2.0
        cfg = uniform_config(12, 3, 2, RELU, PriorSpec(sigma0=sigma0))
        batch = sample_units(cfg, x, 2, (0, 1), "pre", 50, SeedSpec(21), want_norms=True)
        layer1 = sample_layer(cfg, x, 1, 50, SeedSpec(21), tap="post")
        expected = sigma0 / np.sqrt(3) * np.linalg.norm(layer1, axis=1)
        assert np.allclose(batch.prev_norms, expected, rtol=1e-12)


class TestReplicas:
    def test_empty(self, small_setup):
        x, cfg = small_setup
        assert sample_replicas(cfg, x, 2, (0, 1), "pre", 0, SeedSpec(1)).n == 0

    def test_replica_independence(self, small_setup):
        x, cfg = small_setup
        n = 20_000
        reps = sample_replicas(cfg, x, 2, (0, 1), "pre", n, SeedSpec(13))
        assert abs(np.corrcoef(reps.u1, reps.u2)[0, 1]) < 4 / np.sqrt(n)

    def test_marginal_law_matches_sample_units(self, small_setup):
        x, cfg = small_setup
        n = 20_000
        reps = sample_replicas(cfg, x, 2, (0, 1), "pre", n, SeedSpec(14))
        solo = sample_units(cfg, x, 2, (0, 1), "pre", n, SeedSpec(15))
        rel_tol = 8 * np.sqrt(2.0 / n)
        assert abs(reps.u1.var() / solo.u.var() - 1.0) < rel_tol
        assert abs(reps.u2.var() / solo.u.var() - 1.0) < rel_tol

    def test_first_replica_matches_plain_draws(self, small_setup):
        x, cfg = small_setup
        reps = sample_replicas(cfg, x, 2, (0, 1), "pre", 400, SeedSpec(16))
        solo = sample_units(cfg, x, 2, (0, 1), "pre", 400, SeedSpec(16))
        assert np.array_equal(reps.u1, solo.u)


class TestSampleLayer:
    def test_matches_unit_extraction(self, small_setup):
        x, cfg = small_setup
        mat = sample_layer(cfg, x, 2, 600, SeedSpec(30))
        batch = sample_units(cfg, x, 2, (0, 2), "pre", 600, SeedSpec(30))
        assert np.array_equal(mat[:, 0], batch.u)
        assert np.array_equal(mat[:, 2], batch.v)

    def test_shape(self, small_setup):
        x, cfg = small_setup
        assert sample_layer(cfg, x, 1, 17, SeedSpec(2)).shape == (17, 3)


class TestBatchedForward:
    """The sampler's batched forward pass against ``network.forward``, draw by draw."""

    @pytest.mark.parametrize("tap", ["pre", "post"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("prior", [
        PriorSpec(),
        PriorSpec(family="equicorrelated", rho=0.3),
        PriorSpec(family="student_t", nu=3.0),
    ], ids=["gaussian", "equicorrelated", "student_t"])
    def test_matches_single_sample_forward(self, prior, depth, tap):
        n, seed = 5, SeedSpec(19)
        x = generate_input(6, seed)
        cfg = uniform_config(6, 4, depth, TANH, prior)
        got = sample_layer(cfg, x, depth, n, seed, tap)
        batch = sample_units(cfg, x, depth, (2, 0), tap, n, seed, want_norms=depth > 1)
        # all n draws fit in block 0, whose stream yields one weight stack per layer
        assert n <= _block_size(cfg, depth)
        rng = seed.weight_stream(0, 0)
        stacks = [_weight_stack(prior, cfg.widths[l - 1], cfg.widths[l], rng, n)
                  for l in range(1, depth + 1)]
        for i in range(n):
            ref = forward(cfg, [w[i] for w in stacks], x)
            want = ref.pre[-1] if tap == "pre" else ref.post[-1]
            assert np.allclose(got[i], want, rtol=1e-12, atol=1e-12)
            assert (batch.u[i], batch.v[i]) == (got[i, 2], got[i, 0])
            if depth > 1:
                norm = np.sqrt(prior.scatter_quadratic(ref.post[-2], cfg.widths[depth - 1]))
                assert batch.prev_norms[i] == pytest.approx(norm, rel=1e-12)
