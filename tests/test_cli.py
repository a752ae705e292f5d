import io
import json

import numpy as np
import pytest

from bnndep import cli, experiments
from bnndep.cli import DEFAULT_CONFIG, main
from bnndep.estimators import DeltaGrid, EstimateWithError, PdProfile, delta_grid
from bnndep.experiments import AcceptanceReport, CriterionResult
from bnndep.gridio import (
    _json_text,
    grid_csv_text,
    heatmap_svg_text,
    parse_grid_csv,
    read_grid_csv,
    render_heatmap,
    write_grid_csv,
)
from bnndep.network import PriorSpec, uniform_config
from bnndep.sampling import SampleBatch, SeedSpec, combine_copies, generate_input, sample_units


def random_grid(n=3000, steps=7, seed=0):
    rng = np.random.default_rng(seed)
    batch = SampleBatch(rng.standard_normal(n), rng.standard_normal(n), 2, "pre", PriorSpec())
    z = np.linspace(-1.0, 1.0, steps)
    return delta_grid(batch, z, z)


# The per-cell writers as they stood before gridio built documents from
# precomputed strings and array colours; the writers must keep their bytes.
def reference_csv_text(grid):
    def fmt(x):
        return f"{x:.17g}"
    out = io.StringIO()
    out.write("z1,z2,delta,std_error,n\n")
    for a, z1 in enumerate(grid.z1_values):
        for b, z2 in enumerate(grid.z2_values):
            out.write(
                f"{fmt(z1)},{fmt(z2)},{fmt(grid.value[a, b])},"
                f"{fmt(grid.std_error[a, b])},{grid.n}\n"
            )
    return out.getvalue()


def reference_cell_color(value, limit):
    t = 0.0 if limit <= 0 else float(np.clip(value / limit, -1.0, 1.0))
    anchor = (178, 24, 43) if t >= 0 else (33, 102, 172)
    t = abs(t)
    rgb = tuple(round(m + t * (a - m)) for m, a in zip((255, 255, 255), anchor))
    return "#%02x%02x%02x" % rgb


def reference_svg_text(grid, color_limit=None):
    g1, g2 = grid.value.shape
    limit = color_limit if color_limit is not None else float(np.abs(grid.value).max())
    plot = 420.0
    left, top, right, bottom = 58.0, 16.0, 16.0, 48.0
    width = left + plot + right
    height = top + plot + bottom
    cw, ch = plot / g1, plot / g2
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">\n',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>\n',
    ]
    for a in range(g1):
        for b in range(g2):
            x = left + a * cw
            y = top + (g2 - 1 - b) * ch
            color = reference_cell_color(float(grid.value[a, b]), limit)
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw + 0.5:.2f}" '
                f'height="{ch + 0.5:.2f}" fill="{color}"/>\n'
            )
    style = 'font-family="sans-serif" font-size="13" fill="#000000"'
    ticks1 = [(0, grid.z1_values[0]), (g1 - 1, grid.z1_values[-1])]
    ticks2 = [(0, grid.z2_values[0]), (g2 - 1, grid.z2_values[-1])]
    for a, val in ticks1:
        x = left + (a + 0.5) * cw
        parts.append(
            f'<text x="{x:.2f}" y="{top + plot + 18:.2f}" text-anchor="middle" '
            f'{style}>{val:.2g}</text>\n'
        )
    for b, val in ticks2:
        y = top + (g2 - 0.5 - b) * ch
        parts.append(
            f'<text x="{left - 6:.2f}" y="{y + 4:.2f}" text-anchor="end" '
            f'{style}>{val:.2g}</text>\n'
        )
    parts.append(
        f'<text x="{left + plot / 2:.2f}" y="{height - 10:.2f}" '
        f'text-anchor="middle" {style}>z1</text>\n'
    )
    parts.append(
        f'<text x="16" y="{top + plot / 2:.2f}" text-anchor="middle" {style} '
        f'transform="rotate(-90 16 {top + plot / 2:.2f})">z2</text>\n'
    )
    parts.append("</svg>\n")
    return "".join(parts)


def writer_grids():
    """Sweep-sized, random non-square, half-way-colour and signed-zero grids."""
    yield random_grid(steps=41)
    rng = np.random.default_rng(3)
    relu = np.maximum(rng.standard_normal((2, 5000)), 0.0)
    z = np.linspace(-1.0, 1.0, 41)
    yield delta_grid(SampleBatch(relu[0], relu[1], 2, "post", PriorSpec()), z, z)
    for g1, g2 in ((1, 1), (1, 6), (5, 9), (13, 4)):
        z1, z2 = np.sort(rng.standard_normal(g1)), np.sort(rng.standard_normal(g2))
        yield DeltaGrid(z1, z2, 0.01 * rng.standard_normal((g1, g2)),
                        np.abs(rng.standard_normal((g1, g2))), int(rng.integers(2, 10**6)))
    # at |value| / limit = 1/2 several channels land exactly on .5 (216.5, 139.5, 178.5, ...)
    z = np.array([-1.0, 0.0, 1.0])
    value = np.array([[0.2, -0.2, 0.4], [-0.4, 0.0, -0.0], [0.1, -0.1, 0.3]])
    yield DeltaGrid(z, z, value, np.array([[0.0, -0.0, 1e-300]] * 3), 7)
    yield DeltaGrid(z[:2], z[:2], np.array([[-0.0, 0.0], [0.0, -0.0]]), np.full((2, 2), -0.0), 2)


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

    def test_bytes_match_per_cell_reference(self):
        for grid in writer_grids():
            assert grid_csv_text(grid) == reference_csv_text(grid)

    def test_parse_rejects_duplicate_cell(self):
        # rows (a, a), (a, b), (b, a), (b, b): repeating (a, b) in place of (b, a)
        # keeps the row count and both threshold sets, so only the cell check sees it
        lines = grid_csv_text(random_grid(steps=2)).split("\n")
        lines[3] = lines[2]
        with pytest.raises(ValueError, match="duplicate or missing"):
            parse_grid_csv("\n".join(lines))

    def test_parse_rejects_mixed_n(self):
        lines = grid_csv_text(random_grid(steps=2)).split("\n")
        lines[2] = lines[2].rsplit(",", 1)[0] + ",17"
        with pytest.raises(ValueError, match="disagree on n"):
            parse_grid_csv("\n".join(lines))

    @pytest.mark.parametrize("column", [2, 3])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_parse_rejects_non_finite(self, column, bad):
        lines = grid_csv_text(random_grid(steps=2)).split("\n")
        fields = lines[1].split(",")
        fields[column] = bad
        lines[1] = ",".join(fields)
        with pytest.raises(ValueError, match="must be finite"):
            parse_grid_csv("\n".join(lines))


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

    # a float32 limit divides in float32, as the per-cell loop's float / np.float32 did
    @pytest.mark.parametrize("color_limit", [None, 0, 0.4, 1e-3, np.float32(0.05),
                                             np.float32(0.4), np.int64(1)])
    def test_bytes_match_per_cell_reference(self, color_limit):
        for grid in writer_grids():
            assert heatmap_svg_text(grid, color_limit) == reference_svg_text(grid, color_limit)

    @pytest.mark.parametrize("color_limit", [np.nan, np.inf, -np.inf, -0.5, "1", True,
                                             np.float32(np.nan)])
    def test_bad_color_limit_rejected(self, color_limit):
        with pytest.raises(ValueError, match="color_limit"):
            heatmap_svg_text(random_grid(steps=3), color_limit)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad):
        grid = random_grid(steps=3)
        grid.value[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            heatmap_svg_text(grid, color_limit=1.0)


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

    def test_enumerate_rejects_non_positive_width(self, capsys):
        assert main(["oracle", "enumerate", "--net-widths", "1,0,2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bnndep: error: widths must be positive integers")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_enumerate_rejects_non_finite_input(self, capsys, value):
        # a NaN input used to enumerate to an exact 0 and exit 0
        assert main(["oracle", "enumerate", f"--net-input={value}"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "bnndep: error: input must be finite\n"

    @pytest.mark.parametrize("pair", ["0,1,1", "0"])
    def test_enumerate_rejects_a_pair_of_other_length(self, capsys, pair):
        assert main(["oracle", "enumerate", "--units-pair", pair]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bnndep: error: unit pair must name exactly two units")


SEED_ERROR = "bnndep: error: seeds and stream labels must be integers >= 0"


class TestConfigHandling:
    def test_print_config_has_all_defaults(self, capsys):
        assert main(["print-config"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # written out, since DEFAULT_CONFIG is derived from SweepSpec's defaults
        assert doc == {
            "depths": [2, 3, 4],
            "widths": [2, 5, 10],
            "input_dim": 100,
            "n": 100000,
            "grid": {"lo": -1.0, "hi": 1.0, "steps": 41},
            "activation": {"kind": "relu", "alpha": 1.0},
            "prior": {"family": "gaussian", "scale_mode": "fan_in",
                      "sigma0": 1.0, "rho": 0.0, "nu": None},
            "tap": "pre",
            "units": [0, 1],
            "seed": 42,
            "workers": 1,
            "out_dir": "out",
            "color_limit": None,
            "formats": ["csv", "svg", "json"],
        }
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

    def test_negative_seed_flag_rejected(self, capsys):
        # print-config used to print a seed that every sampling command rejects, and exit 0
        assert main(["print-config", "--seed", "-1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(SEED_ERROR)

    @pytest.mark.parametrize("flags, message", [
        (["--prior-family", "student_t"], "student_t nu must be finite and exceed 2, got nan"),
        (["--activation", "elu", "--elu-alpha", "0"], "elu alpha must be positive, got 0.0"),
        (["--grid-steps", "1"], "grid needs at least 2 steps"),
        (["--grid-lo", "1", "--grid-hi", "-1"], "grid needs finite lo < hi, got lo=1.0, hi=-1.0"),
    ], ids=["unset_nu", "elu_alpha_0", "one_grid_step", "reversed_grid"])
    @pytest.mark.parametrize("command", ["print-config", "concordance", "sweep"])
    def test_document_no_command_runs_is_rejected_by_every_command(
            self, tmp_path, capsys, command, flags, message):
        # print-config used to print these documents and exit 0, and concordance ran the
        # grid ones; every command now builds the run spec from the whole document
        out = tmp_path / "o"
        assert main([command, *flags, "--n", "1000", "--input-dim", "5", "--out", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err == f"bnndep: error: {message}\n"
        assert not out.exists()

    def test_valid_document_printed_as_resolved(self, capsys):
        flags = ["--prior-family", "student_t", "--nu", "5", "--activation", "elu",
                 "--elu-alpha", "0.5", "--grid-steps", "3", "--grid-lo", "-2"]
        assert main(["print-config", *flags]) == 0
        want = {**DEFAULT_CONFIG, "grid": {"lo": -2.0, "hi": 1.0, "steps": 3},
                "activation": {"kind": "elu", "alpha": 0.5},
                "prior": {**DEFAULT_CONFIG["prior"], "family": "student_t", "nu": 5.0}}
        assert capsys.readouterr().out == _json_text(want)

    @staticmethod
    def config_exit(tmp_path, capsys, text, *args):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        code = main([*(args or ["print-config"]), "--config", str(cfg)])
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("command,text", [
        ("sweep", '{"n": "abc"}'),
        ("sweep", '{"depths": 3}'),
        ("delta", '{"grid": {"steps": 4.5}}'),
    ])
    def test_mistyped_config_is_a_usage_error(self, tmp_path, capsys, command, text):
        out = tmp_path / "o"
        code, _, err = self.config_exit(tmp_path, capsys, text, command, "--input-dim", "5",
                                        "--out", str(out))
        assert code == 1 and err.startswith("bnndep: error: config key")
        assert not out.exists()

    def test_int_key_takes_int_but_not_bool(self, tmp_path, capsys):
        code, out, _ = self.config_exit(tmp_path, capsys, '{"seed": 7}')
        assert code == 0 and json.loads(out)["seed"] == 7
        for text in ('{"seed": true}', '{"seed": 7.0}', '{"seed": "7"}'):
            assert self.config_exit(tmp_path, capsys, text)[0] == 1

    def test_negative_seed_in_document_rejected(self, tmp_path, capsys):
        code, out, err = self.config_exit(tmp_path, capsys, '{"seed": -1}')
        assert code == 1 and out == "" and err.startswith(SEED_ERROR)

    def test_float_key_takes_any_real_but_bool(self, tmp_path, capsys):
        code, out, _ = self.config_exit(tmp_path, capsys, '{"prior": {"sigma0": 2}}')
        assert code == 0 and json.loads(out)["prior"]["sigma0"] == 2
        for text in ('{"prior": {"sigma0": true}}', '{"prior": {"sigma0": "2"}}',
                     '{"prior": {"sigma0": null}}'):
            assert self.config_exit(tmp_path, capsys, text)[0] == 1

    def test_none_key_takes_none_or_real(self, tmp_path, capsys):
        for text in ('{"prior": {"nu": 5}}', '{"prior": {"nu": 4.5}}', '{"color_limit": null}'):
            assert self.config_exit(tmp_path, capsys, text)[0] == 0
        for text in ('{"prior": {"nu": "5"}}', '{"prior": {"nu": false}}',
                     '{"color_limit": [0.1]}'):
            assert self.config_exit(tmp_path, capsys, text)[0] == 1

    def test_list_key_takes_list_of_default_element_type(self, tmp_path, capsys):
        code, out, _ = self.config_exit(tmp_path, capsys, '{"depths": [2, 3]}')
        assert code == 0 and json.loads(out)["depths"] == [2, 3]
        for text in ('{"depths": [2, 2.5]}', '{"units": [0, true]}', '{"widths": "2,5"}',
                     '{"grid": 3}'):
            assert self.config_exit(tmp_path, capsys, text)[0] == 1


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

    @pytest.mark.parametrize("limit", ["nan", "inf", "-0.5"])
    def test_bad_color_limit_rejected_before_sampling(self, tmp_path, capsys, limit):
        out = tmp_path / "o"
        args = ["sweep", "--depths", "2", "--widths", "2", "--n", "400", "--input-dim", "10",
                "--grid-steps", "3", "--color-limit", limit, "--out", str(out)]
        assert main(args) == 1
        assert "color_limit" in capsys.readouterr().err
        assert not out.exists()  # the output directory is made only after the sweep ran

    @pytest.mark.parametrize("flag", ["--depths", "--widths"])
    def test_empty_depth_or_width_list_rejected(self, tmp_path, capsys, flag):
        out = tmp_path / "o"
        assert main(["sweep", flag, ",", "--n", "400", "--out", str(out)]) == 1
        assert "at least one value" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_depths_or_widths_rejected(self, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["sweep", "--depths", "2,2", "--widths", "2,2", "--n", "200", "--out", str(out)]
        assert main(args) == 1
        assert "distinct depths and distinct widths" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--grid-steps", "1", "at least 2 steps"), ("--n", "1", "n >= 2")])
    def test_bad_grid_or_sample_size_leaves_no_directory(self, tmp_path, capsys, flag, value,
                                                         message):
        out = tmp_path / "o"
        args = ["sweep", "--depths", "2", "--widths", "2", "--n", "400", "--input-dim", "10",
                "--grid-steps", "3", flag, value, "--out", str(out)]
        assert main(args) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("mode", ["sum", "diff"])
    def test_delta_combo_second_copy_is_the_child_seed_draw(self, tmp_path, capsys, mode):
        args = ["delta", "--depths", "2", "--widths", "3", "--n", "500", "--input-dim", "10",
                "--seed", "7", "--grid-steps", "5", "--combo", mode, "--formats", "csv",
                "--out", str(tmp_path / "d")]
        assert main(args) == 0
        capsys.readouterr()
        config, seed = uniform_config(10, 3, 2), SeedSpec(7)
        x = generate_input(10, seed)
        first, second = (sample_units(config, x, 2, (0, 1), "pre", 500, s)
                         for s in (seed, seed.child(1)))
        z = np.linspace(-1.0, 1.0, 5)
        want = grid_csv_text(delta_grid(combine_copies(first, second, mode), z, z))
        assert (tmp_path / "d" / "delta.csv").read_text() == want

    @pytest.mark.parametrize("command", ["sweep", "delta"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_worker_count_leaves_no_directory(self, tmp_path, capsys, command, workers):
        # workers below 1 used to run serially without a word
        out = tmp_path / "o"
        args = [command, "--depths", "2", "--widths", "2", "--n", "400", "--input-dim", "10",
                "--grid-steps", "3", "--workers", workers, "--out", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("bnndep: error:") and "workers an integer >= 1" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("flags, message", [
        (["--z-quantiles", "abc"], "--z-quantiles"),
        (["--z-quantiles", "0.5"], "--z-quantiles"),
        (["--z-quantiles", "0.1,0.5,0.9"], "--z-quantiles"),
        (["--z-quantiles=-0.1,0.5"], "[0, 1]"),
        (["--z-quantiles", "0.1,1.5"], "[0, 1]"),
        (["--z-quantiles", "nan,0.5"], "[0, 1]"),
        (["--z-steps", "0"], "--z-steps"),
    ])
    def test_pd_threshold_flags_checked_before_sampling(self, monkeypatch, capsys, flags,
                                                        message):
        def no_sampling(*args, **kwargs):
            raise AssertionError("pd sampled before checking its threshold flags")

        monkeypatch.setattr(cli, "sample_layer", no_sampling)
        assert main(["pd", "--n", "200000", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bnndep: error:") and message in err


class TestConfigDocumentRuns:
    """A --config document and the same settings as flags give the same bytes."""

    DOC = {"depths": [2], "widths": [3], "input_dim": 10, "n": 600, "seed": 4,
           "grid": {"lo": -0.5, "hi": 0.5, "steps": 5}, "workers": 2, "units": [1, 0],
           "tap": "post", "prior": {"family": "equicorrelated", "rho": 0.3}}
    FLAGS = ["--depths", "2", "--widths", "3", "--input-dim", "10", "--n", "600", "--seed", "4",
             "--grid-lo", "-0.5", "--grid-hi", "0.5", "--grid-steps", "5", "--workers", "2"]
    DEPENDENT = ["--units", "1,0", "--tap", "post", "--prior-family", "equicorrelated",
                 "--rho", "0.3"]

    @staticmethod
    def outputs(tmp_path, capsys, name, argv):
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        files = sorted((p.name, p.read_bytes()) for p in out.iterdir()) if out.exists() else []
        return capsys.readouterr().out, files

    @pytest.mark.parametrize("command", [
        ["delta"], ["delta", "--combo", "diff", "--tail", "lower"], ["concordance"],
        ["pd", "--z-steps", "5"],
    ])
    def test_document_matches_flags(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(self.DOC))
        from_doc = self.outputs(tmp_path, capsys, "doc", [*command, "--config", str(cfg)])
        from_flags = self.outputs(tmp_path, capsys, "flags",
                                  [*command, *self.FLAGS, *self.DEPENDENT])
        assert from_doc == from_flags
        # the units, tap and prior change the output, so the document's were read
        assert self.outputs(tmp_path, capsys, "defaults", [*command, *self.FLAGS]) != from_doc


class TestJsonText:
    """The one JSON encoder behind every document the package writes."""

    def test_numpy_values_become_plain_json(self):
        doc = {"int": np.int64(3), "float32": np.float32(0.5), "bool": np.bool_(True),
               "array": np.arange(3), "matrix": np.array([[1.5, -2.0]]), "tuple": (1, 2)}
        assert _json_text(doc) == (
            '{\n  "array": [\n    0,\n    1,\n    2\n  ],\n  "bool": true,\n  "float32": 0.5,\n'
            '  "int": 3,\n  "matrix": [\n    [\n      1.5,\n      -2.0\n    ]\n  ],\n'
            '  "tuple": [\n    1,\n    2\n  ]\n}\n')

    def test_non_finite_values(self):
        values = [np.nan, np.float64(np.inf), -np.inf, np.array([np.nan])]
        assert _json_text(values).split() == ["[", "NaN,", "Infinity,", "-Infinity,", "[",
                                              "NaN", "]", "]"]

    def test_nested_dataclasses(self):
        cell = EstimateWithError(0.25, np.float64(0.125), 8)
        profile = PdProfile(np.array([-0.5, 0.5]), [cell, None], [None, cell], 0.25, None)
        assert json.loads(_json_text({"profile": profile})) == {"profile": {
            "z_values": [-0.5, 0.5],
            "right_tail": [{"value": 0.25, "std_error": 0.125, "n": 8}, None],
            "left_tail": [None, {"value": 0.25, "std_error": 0.125, "n": 8}],
            "min_right": 0.25, "min_left": None}}

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            _json_text({"cells": {1, 2}})

    def test_report_sorts_integer_detail_keys_as_strings(self):
        details = {"mean_abs": {2: np.float64(0.5), 5: 0.25, 10: 0.125}, "pair": (np.int64(1),)}
        result = CriterionResult(11, "trend", "pass", details)
        assert result.details == {"mean_abs": {"2": 0.5, "5": 0.25, "10": 0.125}, "pair": [1]}
        text = AcceptanceReport(7, 1000, [result]).to_json()
        assert text.index('"10"') < text.index('"2"') < text.index('"5"')
        assert json.loads(text)["criteria"][0]["details"] == result.details


class TestSelftestCommand:
    def test_n_below_the_suite_minimum_rejected_before_any_draw(self, capsys, monkeypatch):
        # n = 199 used to fail inside criterion 6 with "concordance estimation needs n >= 2"
        monkeypatch.setattr(experiments, "generate_input", None)
        assert main(["selftest", "--n", "999"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == ("bnndep: error: the acceptance suite needs n >= 1000 "
                                     "(10 samples per zero-concordance block), got 999\n")

    def test_smallest_n_runs(self, capsys):
        assert main(["selftest", "--n", "1000", "--input-dim", "20"]) == 0
        assert capsys.readouterr().out.endswith("selftest: PASS\n")

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
