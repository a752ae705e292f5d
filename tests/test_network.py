import numpy as np
import pytest

from bnndep.network import (
    IDENTITY,
    RELU,
    SIGMOID,
    TANH,
    Activation,
    ConfigError,
    NetworkConfig,
    PriorSpec,
    elu,
    uniform_config,
)
from reference import forward


class TestActivations:
    def test_relu_clamps(self):
        assert float(RELU(-2.0)) == 0.0
        assert float(RELU(3.0)) == 3.0

    def test_elu_continuous_at_zero(self):
        assert float(elu(1.0)(0.0)) == 0.0
        assert float(elu(1.0)(2.0)) == 2.0
        assert float(elu(2.0)(-1.0)) == pytest.approx(2.0 * np.expm1(-1.0))

    def test_sigmoid_symmetry_point(self):
        assert float(SIGMOID(0.0)) == 0.5

    def test_tanh_identity(self):
        assert float(TANH(0.0)) == 0.0
        assert float(IDENTITY(-7.5)) == -7.5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            Activation("swish")
        with pytest.raises(ConfigError):
            Activation("elu", alpha=0.0)

    def test_finite_everywhere(self):
        x = np.linspace(-50, 50, 101)
        for act in (RELU, IDENTITY, TANH, SIGMOID, elu(0.5)):
            assert np.all(np.isfinite(act(x)))

    def test_relu_only_kind_with_mass_at_zero(self):
        x = np.linspace(-3, -0.01, 100)
        assert np.all(RELU(x) == 0.0)
        for act in (IDENTITY, TANH, SIGMOID, elu()):
            assert np.all(act(x) != 0.0)


class TestConfigConstruction:
    """A NetworkConfig checks its invariants when it is built."""

    def test_well_formed_accepted(self):
        cfg = NetworkConfig((100, 2, 2), RELU, (PriorSpec(), PriorSpec()))
        assert (cfg.depth, cfg.widths) == (2, (100, 2, 2))

    def test_prior_count_mismatch(self):
        message = r"expected 2 priors \(one per hidden layer\), got 1"
        with pytest.raises(ConfigError, match=message):
            NetworkConfig((100, 2, 2), RELU, (PriorSpec(),))
        with pytest.raises(ConfigError, match="expected 1 priors"):
            NetworkConfig((100, 2))

    def test_no_hidden_layer(self):
        with pytest.raises(ConfigError, match="need at least one hidden layer, got depth 0"):
            NetworkConfig((100,))

    def test_non_positive_width(self):
        with pytest.raises(ConfigError, match="widths must be positive integers"):
            NetworkConfig((10, 0), RELU, (PriorSpec(),))

    def test_activation_must_be_an_activation(self):
        with pytest.raises(ConfigError, match="activation must be an Activation instance"):
            NetworkConfig((10, 2), "relu", (PriorSpec(),))

    def test_equicorrelated_singular_rejected(self):
        # at rho = -1 the 2x2 correlation matrix [[1, -1], [-1, 1]] is singular
        assert np.linalg.det(np.array([[1.0, -1.0], [-1.0, 1.0]])) == 0.0
        prior = PriorSpec(family="equicorrelated", rho=-1.0)
        with pytest.raises(ConfigError, match="outside positive-definite range"):
            NetworkConfig((2, 3), RELU, (prior,))

    def test_equicorrelated_valid_range(self):
        # fan-in 3 admits rho in (-1/2, 1)
        NetworkConfig((3, 2), RELU, (PriorSpec(family="equicorrelated", rho=-0.4),))
        with pytest.raises(ConfigError, match=r"rho=-0.6 outside positive-definite range"):
            NetworkConfig((3, 2), RELU, (PriorSpec(family="equicorrelated", rho=-0.6),))

    def test_student_nu_bound(self):
        with pytest.raises(ConfigError, match="student_t nu must be finite and exceed 2"):
            NetworkConfig((4, 2), RELU, (PriorSpec(family="student_t", nu=2.0),))
        NetworkConfig((4, 2), RELU, (PriorSpec(family="student_t", nu=2.5),))

    def test_sigma0_positive(self):
        with pytest.raises(ConfigError, match="sigma0 must be positive and finite"):
            NetworkConfig((4, 2), RELU, (PriorSpec(sigma0=0.0),))

    # a PriorSpec checks everything but the rho range when it is built, so each case
    # names the keywords of a prior and builds it inside the raises block
    @pytest.mark.parametrize("prior, message", [
        ({"sigma0": np.inf}, "sigma0 must be positive and finite"),
        ({"sigma0": np.nan}, "sigma0 must be positive and finite"),
        ({"family": "student_t", "nu": np.inf}, "student_t nu must be finite"),
    ], ids=["sigma0_inf", "sigma0_nan", "student_t_nu_inf"])
    def test_non_finite_rejected(self, prior, message):
        with pytest.raises(ConfigError, match=message):
            PriorSpec(**prior)

    @pytest.mark.parametrize("prior, message", [
        ({"family": "laplace"}, "unknown prior family 'laplace'"),
        ({"scale_mode": "fan_out"}, "unknown scale mode 'fan_out'"),
    ])
    def test_unknown_names_rejected(self, prior, message):
        with pytest.raises(ConfigError, match=message):
            PriorSpec(**prior)


class TestUniformConfig:
    @pytest.mark.parametrize("sizes", [(10, 2, 2.0), (10, 2, True), (10, 2.5, 2), (2.5, 2, 2),
                                       (True, 2, 2)])
    def test_non_integer_sizes_rejected(self, sizes):
        # depth 2.0 used to fail with "can't multiply sequence by non-int of type 'float'"
        with pytest.raises(ConfigError):
            uniform_config(*sizes)

    def test_numpy_integer_sizes_accepted(self):
        assert uniform_config(np.int64(10), np.int64(2), np.int64(3)).widths == (10, 2, 2, 2)


class TestPriorSpec:
    @pytest.mark.parametrize("nu", [float("nan"), np.nan, np.float64("nan")])
    def test_any_nan_nu_equals_the_default(self, nu):
        # NaN != NaN, so two priors with fresh NaNs used to compare unequal
        prior = PriorSpec(nu=nu)
        assert prior == PriorSpec() and hash(prior) == hash(PriorSpec())
        assert PriorSpec(sigma0=2.0, nu=nu) == PriorSpec(sigma0=2.0, nu=nu)

    def test_set_nu_kept(self):
        assert PriorSpec(family="student_t", nu=3.0).nu == 3.0
        assert PriorSpec(nu=3.0) != PriorSpec()


class TestForward:
    """The explicit-weight reference forward pass in ``tests/reference.py``."""

    def test_single_layer_identity_matvec(self):
        cfg = uniform_config(2, 1, 1, IDENTITY)
        w = np.array([[1.0], [1.0]])
        out = forward(cfg, [w], np.array([1.0, 2.0]))
        assert out.pre[0] == pytest.approx([3.0])
        assert out.post[0] == pytest.approx([3.0])

    def test_single_layer_relu_clamps(self):
        cfg = uniform_config(2, 1, 1, RELU)
        w = np.array([[1.0], [1.0]])
        out = forward(cfg, [w], np.array([1.0, -4.0]))
        assert out.pre[0] == pytest.approx([-3.0])
        assert out.post[0] == pytest.approx([0.0])

    def test_two_layer_all_ones(self):
        cfg = uniform_config(2, 2, 2, RELU)
        ones = np.ones((2, 2))
        out = forward(cfg, [ones, ones], np.array([1.0, 1.0]))
        assert out.pre[0] == pytest.approx([2.0, 2.0])
        assert out.post[0] == pytest.approx([2.0, 2.0])
        assert out.pre[1] == pytest.approx([4.0, 4.0])

    def test_shape_mismatch_rejected(self):
        cfg = uniform_config(2, 2, 1, RELU)
        with pytest.raises(ConfigError):
            forward(cfg, [np.ones((3, 2))], np.array([1.0, 1.0]))
        with pytest.raises(ConfigError):
            forward(cfg, [np.ones((2, 2))], np.array([1.0, 1.0, 1.0]))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        cfg = uniform_config(3, 2, 2, RELU)
        ws = [rng.standard_normal((3, 2)), rng.standard_normal((2, 2))]
        x = rng.standard_normal(3)
        a = forward(cfg, ws, x)
        b = forward(cfg, ws, x)
        for l in range(2):
            assert np.array_equal(a.pre[l], b.pre[l])
            assert np.array_equal(a.post[l], b.post[l])

    @pytest.mark.parametrize("scale", [0.5, 2.0, 4.0])
    def test_relu_positive_homogeneity_power_of_two(self, scale):
        # power-of-two scaling is exact in floating point
        rng = np.random.default_rng(11)
        cfg = uniform_config(4, 3, 1, RELU)
        w = rng.standard_normal((4, 3))
        x = rng.standard_normal(4)
        base = forward(cfg, [w], x)
        scaled = forward(cfg, [scale * w], x)
        assert np.array_equal(scaled.pre[0], scale * base.pre[0])
        assert np.array_equal(np.sign(scaled.pre[0]), np.sign(base.pre[0]))

    def test_column_change_is_local(self):
        rng = np.random.default_rng(3)
        cfg = uniform_config(3, 3, 2, RELU)
        w1 = rng.standard_normal((3, 3))
        w2 = rng.standard_normal((3, 3))
        x = rng.standard_normal(3)
        base = forward(cfg, [w1, w2], x)
        w2b = w2.copy()
        w2b[:, 1] = rng.standard_normal(3)
        bumped = forward(cfg, [w1, w2b], x)
        assert np.array_equal(base.pre[0], bumped.pre[0])
        assert base.pre[1][0] == bumped.pre[1][0]
        assert base.pre[1][2] == bumped.pre[1][2]
        assert base.pre[1][1] != bumped.pre[1][1]


class TestScatterQuadratic:
    def test_iid_is_scaled_norm(self):
        prior = PriorSpec(scale_mode="fixed", sigma0=2.0)
        x = np.array([3.0, 4.0])
        assert prior.scatter_quadratic(x, 2) == pytest.approx(4.0 * 25.0)

    def test_equicorrelated_quadratic(self):
        prior = PriorSpec(family="equicorrelated", rho=0.5, scale_mode="fixed", sigma0=1.0)
        x = np.array([1.0, 2.0])
        # x' [(1-rho) I + rho 11'] x = 0.5 * 5 + 0.5 * 9
        assert prior.scatter_quadratic(x, 2) == pytest.approx(0.5 * 5.0 + 0.5 * 9.0)
