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
    forward,
    uniform_config,
    validate_config,
)


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


class TestValidateConfig:
    def test_well_formed_accepted(self):
        cfg = NetworkConfig((100, 2, 2), RELU, (PriorSpec(), PriorSpec()))
        assert validate_config(cfg) is cfg

    def test_prior_count_mismatch(self):
        cfg = NetworkConfig((100, 2, 2), RELU, (PriorSpec(),))
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_non_positive_width(self):
        with pytest.raises(ConfigError):
            validate_config(NetworkConfig((10, 0), RELU, (PriorSpec(),)))

    def test_equicorrelated_singular_rejected(self):
        # at rho = -1 the 2x2 correlation matrix [[1, -1], [-1, 1]] is singular
        assert np.linalg.det(np.array([[1.0, -1.0], [-1.0, 1.0]])) == 0.0
        prior = PriorSpec(family="equicorrelated", rho=-1.0)
        with pytest.raises(ConfigError):
            validate_config(NetworkConfig((2, 3), RELU, (prior,)))

    def test_equicorrelated_valid_range(self):
        # fan-in 3 admits rho in (-1/2, 1)
        prior = PriorSpec(family="equicorrelated", rho=-0.4)
        validate_config(NetworkConfig((3, 2), RELU, (prior,)))
        with pytest.raises(ConfigError):
            validate_config(
                NetworkConfig((3, 2), RELU, (PriorSpec(family="equicorrelated", rho=-0.6),))
            )

    def test_student_nu_bound(self):
        with pytest.raises(ConfigError):
            validate_config(NetworkConfig((4, 2), RELU, (PriorSpec(family="student_t", nu=2.0),)))
        validate_config(NetworkConfig((4, 2), RELU, (PriorSpec(family="student_t", nu=2.5),)))

    def test_sigma0_positive(self):
        with pytest.raises(ConfigError):
            validate_config(NetworkConfig((4, 2), RELU, (PriorSpec(sigma0=0.0),)))

    @pytest.mark.parametrize("prior", [
        PriorSpec(sigma0=np.inf),
        PriorSpec(sigma0=np.nan),
        PriorSpec(family="student_t", nu=np.inf),
    ], ids=["sigma0_inf", "sigma0_nan", "student_t_nu_inf"])
    def test_non_finite_rejected(self, prior):
        with pytest.raises(ConfigError):
            validate_config(NetworkConfig((4, 2), RELU, (prior,)))


class TestForward:
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
