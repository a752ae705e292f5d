import numpy as np
import pytest

import bnndep.experiments as experiments
from bnndep.estimators import DeltaGrid, kendall_tau
from bnndep.experiments import (
    GridRange,
    SweepSpec,
    mean_abs_std_error,
    quadrant_sign_violations,
    run_sweep,
    summarize,
    theoretical_sign,
)
from bnndep.network import PriorSpec, uniform_config
from bnndep.sampling import SampleBatch, SeedSpec, generate_input, sample_units


def hand_grid():
    z = np.array([-1.0, 0.0, 1.0])
    value = np.array([
        [0.30, -0.10, -0.20],
        [0.05, 0.02, -0.04],
        [-0.25, -0.01, 0.15],
    ])
    se = np.full((3, 3), 0.01)
    return DeltaGrid(z, z, value, se, 1000)


class TestTheoreticalSign:
    def test_quadrants(self):
        assert theoretical_sign(0.5, 0.5) == 1
        assert theoretical_sign(-0.5, -0.5) == 1
        assert theoretical_sign(0.5, -0.5) == -1
        assert theoretical_sign(-0.5, 0.5) == -1

    def test_zero_groups_with_negative(self):
        # the conditional exceedance at threshold zero is non-increasing,
        # like strictly negative thresholds
        assert theoretical_sign(0.0, 0.0) == 1
        assert theoretical_sign(0.0, -1.0) == 1
        assert theoretical_sign(0.0, 1.0) == -1

    def test_broadcasts_over_arrays(self):
        z = np.array([-1.0, 0.0, 1.0])
        assert np.array_equal(theoretical_sign(z[:, None], z[None, :]),
                              [[1, 1, -1], [1, 1, -1], [-1, -1, 1]])


class TestSummarize:
    def test_hand_grid(self):
        s = summarize(hand_grid())
        assert s.center_value == pytest.approx(0.02)
        assert s.corner_mean_abs == pytest.approx((0.30 + 0.20 + 0.25 + 0.15) / 4)
        assert s.mean_abs == pytest.approx(1.12 / 9)
        assert s.peakedness == pytest.approx(0.02 / 0.225)
        # exactly one cell is significantly on the wrong side:
        # (-1, 0) expects >= 0 but is -0.10 with |v| > 3 se
        assert s.quadrant_sign_violations == 1

    def test_all_zero_grid(self):
        z = np.array([-1.0, 1.0])
        grid = DeltaGrid(z, z, np.zeros((2, 2)), np.full((2, 2), 0.1), 10)
        s = summarize(grid)
        assert s.mean_abs == 0.0
        assert s.quadrant_sign_violations == 0

    def test_single_cell_grid(self):
        grid = DeltaGrid(np.array([0.0]), np.array([0.0]),
                         np.array([[0.25]]), np.array([[0.01]]), 10)
        s = summarize(grid)
        assert s.center_value == 0.25
        assert s.corner_mean_abs == 0.25
        assert s.peakedness == pytest.approx(1.0)

    def test_mean_abs_std_error(self):
        grid = hand_grid()
        assert mean_abs_std_error(grid) == pytest.approx(np.sqrt(9 * 0.01**2) / 9)


class TestGridRange:
    def test_values(self):
        v = GridRange(-1.0, 1.0, 41).values()
        assert v.shape == (41,)
        assert v[0] == -1.0 and v[-1] == 1.0 and v[20] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GridRange(-1.0, 1.0, 1).values()
        with pytest.raises(ValueError):
            GridRange(1.0, -1.0, 5).values()

    @pytest.mark.parametrize("lo,hi", [(-1.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)])
    def test_non_finite_rejected(self, lo, hi):
        # linspace over an infinite range yields NaN thresholds
        with pytest.raises(ValueError):
            GridRange(lo, hi, 3).values()


@pytest.fixture(scope="module")
def tiny_sweep():
    spec = SweepSpec(depths=(1, 2), widths=(2, 3), input_dim=20, n=4000,
                     grid=GridRange(-1.0, 1.0, 9), master_seed=11)
    return spec, run_sweep(spec)


class TestRunSweep:
    def test_shapes_and_keys(self, tiny_sweep):
        spec, cells = tiny_sweep
        assert set(cells) == {(1, 2), (1, 3), (2, 2), (2, 3)}
        grid = cells[(2, 3)].grid
        assert grid.value.shape == (9, 9)
        assert grid.n == 4000

    def test_deterministic(self, tiny_sweep):
        spec, cells = tiny_sweep
        again = run_sweep(spec)
        for key in cells:
            assert np.array_equal(cells[key].grid.value, again[key].grid.value)

    def test_first_layer_cells_are_null(self, tiny_sweep):
        _, cells = tiny_sweep
        for width in (2, 3):
            grid = cells[(1, width)].grid
            assert np.all(np.abs(grid.value) <= 5 * np.maximum(grid.std_error, 1e-12))

    def test_unit_pair_choice_immaterial(self):
        # units of one layer are exchangeable under the prior
        base = SweepSpec(depths=(2,), widths=(4,), input_dim=20, n=20_000,
                         grid=GridRange(-0.5, 0.5, 3), master_seed=12)
        other = SweepSpec(depths=(2,), widths=(4,), input_dim=20, n=20_000,
                          grid=GridRange(-0.5, 0.5, 3), master_seed=12, unit_pair=(2, 3))
        a = run_sweep(base)[(2, 4)].grid
        b = run_sweep(other)[(2, 4)].grid
        tol = 4 * np.hypot(a.std_error, b.std_error)
        assert np.all(np.abs(a.value - b.value) <= tol)

    def test_sign_flip_fault_detected(self, monkeypatch, tiny_sweep):
        # corrupting the estimator must surface as quadrant violations
        import bnndep.estimators as est

        real = est.delta_grid

        def flipped(*args, **kwargs):
            grid = real(*args, **kwargs)
            grid.value = -grid.value
            return grid

        monkeypatch.setattr(est, "delta_grid", flipped)
        spec = SweepSpec(depths=(2,), widths=(2,), input_dim=20, n=6000,
                         grid=GridRange(-1.0, 1.0, 9), master_seed=11)
        cells = run_sweep(spec)
        assert cells[(2, 2)].summary.quadrant_sign_violations > 0

    def test_healthy_sweep_has_no_violations(self, tiny_sweep):
        _, cells = tiny_sweep
        assert cells[(2, 2)].summary.quadrant_sign_violations == 0
        assert cells[(2, 3)].summary.quadrant_sign_violations == 0


class TestQuadrantViolations:
    def test_detects_significant_wrong_sign_only(self):
        z = np.array([-1.0, 1.0])
        value = np.array([[-0.5, 0.0], [0.0, 0.5]])
        se = np.full((2, 2), 0.01)
        grid = DeltaGrid(z, z, value, se, 100)
        # (-1,-1) expects >= 0 but is -0.5: one violation
        assert quadrant_sign_violations(grid) == 1
        # insignificant cells never count
        grid2 = DeltaGrid(z, z, value, np.full((2, 2), 1.0), 100)
        assert quadrant_sign_violations(grid2) == 0


# master seeds of perfbench's selftest workload at --seed 21 and 24, whose
# null data fail criterion 6 with the estimators' independence-null SEs and
# criterion 2 with a 4-SE cell rule that ignores multiplicity
SELFTEST_SEED_21 = 1012269760
SELFTEST_SEED_24 = 1550323760


@pytest.fixture(scope="module")
def layer1_grids():
    spec = SweepSpec(depths=(1,), n=20_000, master_seed=SELFTEST_SEED_24, workers=2)
    return [cell.grid for cell in run_sweep(spec).values()]


class TestGridNull:
    """Criterion 2's grid test: family-wise level, with power against dependence."""

    def test_null_grids_pass_at_bonferroni_threshold(self, layer1_grids):
        ok, detail = experiments._grid_null(layer1_grids)
        # 3 x 41 x 41 cells at family-wise 1e-3, two-sided
        assert detail["cell_threshold"] == pytest.approx(5.2009, abs=1e-4)
        # the largest cell here read 4.12 SE, beyond an uncorrected 4-SE rule
        assert ok

    def test_dependent_grid_fails(self, layer1_grids):
        spec = SweepSpec(depths=(2,), widths=(2,), n=20_000, master_seed=SELFTEST_SEED_24)
        l2h2 = run_sweep(spec)[(2, 2)].grid
        assert not experiments._grid_null([l2h2] + layer1_grids[1:])[0]

    def test_single_planted_cell_fails(self, layer1_grids):
        g = layer1_grids[0]
        value = g.value.copy()
        value[20, 20] = 5.3 * g.std_error[20, 20]
        planted = DeltaGrid(g.z1_values, g.z2_values, value, g.std_error, g.n)
        assert not experiments._grid_null([planted] + layer1_grids[1:])[0]


class TestConcordanceNull:
    """Criterion 6's test: an SE that holds for dependent units, with power."""

    def test_dependent_null_units_pass(self):
        # ReLU layer 3 of criterion 6 at selftest seed 21, where tau read -4.10
        # of the estimator's independence-null SEs
        seed = SeedSpec(SELFTEST_SEED_21)
        config = uniform_config(100, 5, 3)
        batch = sample_units(config, generate_input(100, seed), 3, (0, 1), "pre", 20_000,
                             seed.child(6, 0, 3), workers=2)
        ok, detail = experiments._concordance_null(batch)
        assert ok and detail["tau"] == kendall_tau(batch).value

    def test_planted_concordance_fails(self):
        rng = np.random.default_rng(3)
        u, noise = rng.standard_normal((2, 20_000))
        assert experiments._concordance_null(SampleBatch(u, noise, 2, "pre", PriorSpec()))[0]
        planted = SampleBatch(u, u + 10.0 * noise, 2, "pre", PriorSpec())
        assert not experiments._concordance_null(planted)[0]
