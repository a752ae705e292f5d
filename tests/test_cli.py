import json

import numpy as np
import pytest

from bnndep.cli import DEFAULT_CONFIG, main
from bnndep.estimators import DeltaGrid, delta_grid
from bnndep.gridio import (
    grid_csv_text,
    heatmap_svg_text,
    parse_grid_csv,
    read_grid_csv,
    render_heatmap,
    write_grid_csv,
)
from bnndep.network import PriorSpec
from bnndep.sampling import SampleBatch


def random_grid(n=3000, steps=7, seed=0):
    rng = np.random.default_rng(seed)
    batch = SampleBatch(rng.standard_normal(n), rng.standard_normal(n), 2, "pre", PriorSpec())
    z = np.linspace(-1.0, 1.0, steps)
    return delta_grid(batch, z, z)


class TestGridCsv:
    def test_row_count_and_header(self):
        grid = random_grid(steps=5)
        lines = grid_csv_text(grid).strip().split("\n")
        assert lines[0] == "z1,z2,delta,std_error,n"
        assert len(lines) == 1 + 25

    def test_single_cell(self):
        grid = random_grid(steps=2)
        sub = DeltaGrid(grid.z1_values[:1], grid.z2_values[:1],
                        grid.value[:1, :1], grid.std_error[:1, :1], grid.n)
        assert len(grid_csv_text(sub).strip().split("\n")) == 2

    def test_round_trip_bit_exact(self, tmp_path):
        grid = random_grid()
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        back = read_grid_csv(path)
        assert np.array_equal(back.z1_values, grid.z1_values)
        assert np.array_equal(back.z2_values, grid.z2_values)
        assert np.array_equal(back.value, grid.value)
        assert np.array_equal(back.std_error, grid.std_error)
        assert back.n == grid.n

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError):
            parse_grid_csv("a,b,c\n1,2,3\n")


class TestHeatmap:
    def test_all_zero_grid_is_white(self):
        z = np.array([-1.0, 1.0])
        grid = DeltaGrid(z, z, np.zeros((2, 2)), np.zeros((2, 2)), 10)
        svg = heatmap_svg_text(grid)
        assert svg.count('fill="#ffffff"') >= 4  # every cell at the midpoint color

    def test_single_positive_cell_is_reddest(self):
        z = np.array([-1.0, 0.0, 1.0])
        value = np.zeros((3, 3))
        value[1, 1] = 0.2
        grid = DeltaGrid(z, z, value, np.zeros((3, 3)), 10)
        svg = heatmap_svg_text(grid)
        assert svg.count('fill="#b2182b"') == 1  # the positive anchor color
        assert svg.count('fill="#2166ac"') == 0

    def test_negative_cells_blue(self):
        z = np.array([-1.0, 1.0])
        value = np.array([[-0.3, 0.0], [0.0, 0.3]])
        grid = DeltaGrid(z, z, value, np.zeros((2, 2)), 10)
        svg = heatmap_svg_text(grid)
        assert 'fill="#2166ac"' in svg and 'fill="#b2182b"' in svg

    def test_deterministic_bytes(self, tmp_path):
        grid = random_grid()
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        render_heatmap(grid, p1)
        render_heatmap(grid, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_axis_labels_present(self):
        svg = heatmap_svg_text(random_grid())
        assert ">z1</text>" in svg and ">z2</text>" in svg

    def test_color_limit_pins_scale(self):
        z = np.array([-1.0, 1.0])
        value = np.array([[0.1, 0.0], [0.0, 0.0]])
        grid = DeltaGrid(z, z, value, np.zeros((2, 2)), 10)
        free = heatmap_svg_text(grid)
        pinned = heatmap_svg_text(grid, color_limit=1.0)
        assert free != pinned
        assert free.count('fill="#b2182b"') == 1  # saturates at its own max


class TestOracleCommand:
    def test_delta00_width_2(self, capsys):
        assert main(["oracle", "delta00", "--width", "2"]) == 0
        assert capsys.readouterr().out.strip() == "0.046875"

    def test_delta00_exact(self, capsys):
        assert main(["oracle", "delta00", "--width", "5", "--exact"]) == 0
        assert capsys.readouterr().out.strip() == "31/4096"

    def test_enumerate_default_toy(self, capsys):
        assert main(["oracle", "enumerate"]) == 0
        assert capsys.readouterr().out.strip() == "0.0625"

    def test_enumerate_mixed_quadrant(self, capsys):
        assert main(["oracle", "enumerate", "--z1", "0.5", "--z2", "-0.5"]) == 0
        assert capsys.readouterr().out.strip() == "-0.0625"

    def test_enumerate_exact_fraction(self, capsys):
        assert main(["oracle", "enumerate", "--exact"]) == 0
        assert capsys.readouterr().out.strip() == "1/16"


class TestConfigHandling:
    def test_print_config_has_all_defaults(self, capsys):
        assert main(["print-config"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == DEFAULT_CONFIG

    def test_print_config_round_trip(self, tmp_path, capsys):
        assert main(["print-config", "--n", "123", "--widths", "3,4"]) == 0
        text = capsys.readouterr().out
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        assert main(["print-config", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == text

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"depth": 3}')
        assert main(["print-config", "--config", str(cfg)]) == 1

    def test_unknown_flag_usage_error(self):
        assert main(["sweep", "--bogus"]) == 1

    def test_missing_subcommand_usage_error(self):
        assert main([]) == 1

    def test_bad_units_rejected(self):
        assert main(["print-config", "--units", "1,2,3"]) == 1


class TestSweepCommand:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        args = ["sweep", "--depths", "2", "--widths", "2", "--n", "800",
                "--input-dim", "20", "--seed", "5"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        csv1 = (out1 / "grid_L2H2.csv").read_bytes()
        assert csv1 == (out2 / "grid_L2H2.csv").read_bytes()
        assert (out1 / "heatmap_L2H2.svg").read_bytes() == (out2 / "heatmap_L2H2.svg").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        # 41 x 41 grid rows plus header by default
        assert len(csv1.decode().strip().split("\n")) == 1 + 41 * 41
        summary = json.loads((out1 / "summary.json").read_text())
        assert set(summary) == {"L2H2"}
        assert "mean_abs" in summary["L2H2"]

    def test_formats_subset(self, tmp_path, capsys):
        args = ["sweep", "--depths", "1", "--widths", "2", "--n", "400",
                "--input-dim", "10", "--grid-steps", "5", "--formats", "csv",
                "--out", str(tmp_path / "o")]
        assert main(args) == 0
        capsys.readouterr()
        assert (tmp_path / "o" / "grid_L1H2.csv").exists()
        assert not (tmp_path / "o" / "heatmap_L1H2.svg").exists()
        assert not (tmp_path / "o" / "summary.json").exists()


class TestOtherCommands:
    def test_delta_single_grid(self, tmp_path, capsys):
        args = ["delta", "--depths", "2", "--widths", "2", "--n", "500",
                "--input-dim", "10", "--grid-steps", "5", "--out", str(tmp_path / "d")]
        assert main(args) == 0
        out = json.loads(capsys.readouterr().out)
        assert "summary" in out
        assert (tmp_path / "d" / "delta.csv").exists()
        assert (tmp_path / "d" / "delta.svg").exists()

    def test_delta_combo_modes(self, tmp_path, capsys):
        args = ["delta", "--depths", "2", "--widths", "2", "--n", "500",
                "--input-dim", "10", "--grid-steps", "3", "--combo", "diff",
                "--formats", "csv", "--out", str(tmp_path / "d2")]
        assert main(args) == 0
        capsys.readouterr()
        assert (tmp_path / "d2" / "delta.csv").exists()

    def test_concordance_json(self, capsys):
        args = ["concordance", "--depths", "2", "--widths", "3", "--n", "500",
                "--input-dim", "10", "--seed", "3"]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"covariance", "kendall_tau", "spearman_rho"}
        for key in doc:
            assert set(doc[key]) == {"value", "std_error", "n"}
            assert doc[key]["n"] == 500

    def test_pd_json(self, capsys):
        args = ["pd", "--depths", "2", "--widths", "3", "--n", "800",
                "--input-dim", "10", "--z-steps", "5"]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["z_values"]) == 5
        assert len(doc["right_tail"]) == 5
        assert doc["min_right"] is not None


class TestSelftestCommand:
    def test_reduced_scale_reports_byte_identical_across_workers(self, tmp_path, capsys):
        base = ["selftest", "--seed", "42", "--n", "1200", "--input-dim", "20"]
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        rc1 = main(base + ["--workers", "1", "--report", str(r1)])
        rc2 = main(base + ["--workers", "2", "--report", str(r2)])
        out = capsys.readouterr().out
        assert rc1 in (0, 2) and rc1 == rc2
        assert r1.read_bytes() == r2.read_bytes()
        assert out.count("criterion") >= 28  # one line per criterion, two runs
        report = json.loads(r1.read_text())
        assert len(report["criteria"]) == 14
