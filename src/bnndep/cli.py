"""Command-line interface.

Subcommands: ``sweep`` (grids + heatmaps + summary for a depth/width
sweep), ``delta`` (one grid), ``concordance`` (covariance, tau, rho for a
unit pair), ``pd`` (positive-dependence profile), ``oracle`` (exact
values), ``selftest`` (acceptance suite), ``print-config``.

Exit codes: 0 success, 1 usage or configuration error, 2 failed selftest.
A JSON config document can seed every option; explicit flags override the
file, and environment variables are never consulted.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

import numpy as np

from . import estimators as est
from . import exact, network
from .experiments import GridRange, SweepSpec, acceptance_suite, run_sweep, summarize
from .gridio import _check_color_limit, _json_text, render_heatmap, write_grid_csv
from .network import Activation, ConfigError, NetworkConfig, PriorSpec, uniform_config
from .sampling import TAPS, SeedSpec, combine_copies, generate_input, sample_layer, sample_units


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fits(default, value) -> bool:
    """Whether ``value`` has the type of ``default``; numbers are never bools."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(default[0], v) for v in value)
    if isinstance(value, bool):
        return isinstance(default, bool)
    if default is None or isinstance(default, float):
        # a None default (prior.nu, color_limit) is an optional number
        return isinstance(value, (int, float)) or (default is None and value is None)
    return isinstance(value, type(default))


def _merge_config(base: dict, override: dict, context: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in out:
            raise UsageError(f"unknown config key {context + key!r}")
        if not _fits(out[key], value):
            raise UsageError(f"config key {context + key!r} cannot be {json.dumps(value)}; "
                             f"its default is {json.dumps(out[key])}")
        if isinstance(value, dict):
            value = _merge_config(out[key], value, context + key + ".")
        out[key] = value
    return out


def load_config(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise UsageError("config document must be a JSON object")
    return _merge_config(DEFAULT_CONFIG, doc)


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t != ""]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}")


def _csv_words(text: str) -> list[str]:
    return [t for t in text.split(",") if t]


# Flags shared by the sampling subcommands, one per config leaf: the flag, the
# leaf's dotted path, the conversion of the parsed value, argparse keywords.
_COMMON_FLAGS = (
    ("--seed", "seed", None, {"type": int}),
    ("--n", "n", None, {"type": int}),
    ("--input-dim", "input_dim", None, {"type": int}),
    ("--depths", "depths", _csv_ints, {"help": "comma-separated hidden-layer counts"}),
    ("--widths", "widths", _csv_ints, {"help": "comma-separated hidden widths"}),
    ("--grid-steps", "grid.steps", None, {"type": int}),
    ("--grid-lo", "grid.lo", None, {"type": float}),
    ("--grid-hi", "grid.hi", None, {"type": float}),
    ("--activation", "activation.kind", None, {"choices": Activation.KINDS}),
    ("--elu-alpha", "activation.alpha", None, {"type": float}),
    ("--prior-family", "prior.family", None, {"choices": network._FAMILIES}),
    ("--scale-mode", "prior.scale_mode", None, {"choices": network._SCALE_MODES}),
    ("--sigma0", "prior.sigma0", None, {"type": float}),
    ("--rho", "prior.rho", None, {"type": float}),
    ("--nu", "prior.nu", None, {"type": float}),
    ("--tap", "tap", None, {"choices": TAPS}),
    ("--units", "units", _csv_ints, {"help": "comma-separated pair of unit indices"}),
    ("--workers", "workers", None, {"type": int}),
    ("--out", "out_dir", None, {"dest": "out_dir"}),
    ("--color-limit", "color_limit", None, {"type": float}),
    ("--formats", "formats", _csv_words, {"help": "comma-separated subset of csv,svg,json"}),
)

# The config document is SweepSpec's fields, its sections those of GridRange, Activation
# and PriorSpec, with two leaves renamed, an unset nu as null, and three output leaves.
_RENAMED = {"master_seed": "seed", "unit_pair": "units"}
DEFAULT_CONFIG: dict = {_RENAMED.get(k, k): v
                        for k, v in json.loads(_json_text(SweepSpec())).items()}
DEFAULT_CONFIG["prior"]["nu"] = None
DEFAULT_CONFIG.update(out_dir="out", color_limit=None, formats=["csv", "svg", "json"])


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config document")
    for flag, *_, kwargs in _COMMON_FLAGS:
        p.add_argument(flag, **kwargs)


def resolve_config(args: argparse.Namespace) -> tuple[dict, SweepSpec]:
    """The config document of the file and flags, and the run spec it builds: every
    command checks the whole document, its grid, activation and prior sections too."""
    doc = (load_config(args.config) if getattr(args, "config", None)
           else copy.deepcopy(DEFAULT_CONFIG))
    for flag, path, convert, kwargs in _COMMON_FLAGS:
        # argparse's default dest unless the row names one
        value = getattr(args, kwargs.get("dest", flag[2:].replace("-", "_")), None)
        if value is not None:
            section, _, key = path.rpartition(".")
            (doc[section] if section else doc)[key] = convert(value) if convert else value
    for fmt in doc["formats"]:
        if fmt not in ("csv", "svg", "json"):
            raise UsageError(f"unknown output format {fmt!r}")
    if not (doc["depths"] and doc["widths"]):
        raise UsageError("depths and widths must each name at least one value")
    if len(doc["units"]) != 2:
        raise UsageError("units must name exactly two indices")
    SeedSpec(doc["seed"])  # the samplers' seed rule, before any command runs
    _check_color_limit(doc["color_limit"])
    return doc, _sweep_spec_from(doc)


def _sweep_spec_from(doc: dict) -> SweepSpec:
    nu = float("nan" if doc["prior"]["nu"] is None else doc["prior"]["nu"])
    return SweepSpec(
        depths=tuple(doc["depths"]), widths=tuple(doc["widths"]), input_dim=doc["input_dim"],
        n=doc["n"], grid=GridRange(**doc["grid"]), activation=Activation(**doc["activation"]),
        prior=PriorSpec(**{**doc["prior"], "nu": nu}), tap=doc["tap"],
        unit_pair=tuple(doc["units"]), master_seed=doc["seed"], workers=doc["workers"])


def cmd_sweep(args) -> int:
    doc, spec = resolve_config(args)
    cells = run_sweep(spec)
    out_dir = Path(doc["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {}
    for (depth, width), cell in sorted(cells.items()):
        stem = f"L{depth}H{width}"
        if "csv" in doc["formats"]:
            write_grid_csv(cell.grid, out_dir / f"grid_{stem}.csv")
        if "svg" in doc["formats"]:
            render_heatmap(cell.grid, out_dir / f"heatmap_{stem}.svg", doc["color_limit"])
        summary[stem] = cell.summary
    if "json" in doc["formats"]:
        (out_dir / "summary.json").write_text(_json_text(summary))
    print(f"wrote {len(cells)} grids to {out_dir}")
    return 0


def _single_net(args) -> tuple[dict, SweepSpec, tuple[NetworkConfig, np.ndarray, int]]:
    """Config document, run spec, and the network, input and tapped layer of one net."""
    doc, spec = resolve_config(args)
    depth = spec.depths[0]
    config = uniform_config(spec.input_dim, spec.widths[0], depth, spec.activation, spec.prior)
    x = generate_input(spec.input_dim, spec.master_seed)
    return doc, spec, (config, x, depth if args.layer is None else args.layer)


def cmd_delta(args) -> int:
    doc, spec, net = _single_net(args)
    z = spec.grid.values()
    seed, draw = SeedSpec(spec.master_seed), (*net, spec.unit_pair, spec.tap, spec.n)
    batch = sample_units(*draw, seed, workers=spec.workers)
    if args.combo != "single":
        # the second, independent copy of the networks is drawn on the child seed (1,)
        second = sample_units(*draw, seed.child(1), workers=spec.workers)
        batch = combine_copies(batch, second, args.combo)
    grid = est.delta_grid(batch, z, z, tail=args.tail)
    out_dir = Path(doc["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in doc["formats"]:
        write_grid_csv(grid, out_dir / "delta.csv")
    if "svg" in doc["formats"]:
        render_heatmap(grid, out_dir / "delta.svg", doc["color_limit"])
    print(_json_text({"summary": summarize(grid)}), end="")
    return 0


def cmd_concordance(args) -> int:
    _, spec, net = _single_net(args)
    batch = sample_units(*net, spec.unit_pair, spec.tap, spec.n, spec.master_seed,
                         workers=spec.workers)
    report = {
        "covariance": est.covariance(batch),
        "kendall_tau": est.kendall_tau(batch),
        "spearman_rho": est.spearman_rho(batch),
    }
    print(_json_text(report), end="")
    return 0


def cmd_pd(args) -> int:
    _, spec, net = _single_net(args)
    try:
        qlo, qhi = (float(t) for t in args.z_quantiles.split(","))
    except ValueError:
        raise UsageError(f"--z-quantiles needs two numbers, got {args.z_quantiles!r}")
    if not (0.0 <= qlo <= 1.0 and 0.0 <= qhi <= 1.0 and args.z_steps >= 1):
        raise UsageError(f"--z-quantiles must lie in [0, 1] and --z-steps be >= 1, "
                         f"got {args.z_quantiles!r} and {args.z_steps}")
    samples = sample_layer(*net, spec.n, spec.master_seed, spec.tap, workers=spec.workers)
    lo, hi = np.quantile(samples[:, -1], [qlo, qhi])
    print(_json_text(est.pd_profile(samples, np.linspace(lo, hi, args.z_steps))), end="")
    return 0


def cmd_oracle(args) -> int:
    if args.mode == "delta00":
        value = exact.analytic_delta_zero(args.width)
    else:
        # enumerate: exact value for the builtin toy net or a custom one
        widths = tuple(_csv_ints(args.net_widths))
        input_vec = tuple(float(t) for t in args.net_input.split(","))
        spec = exact.DiscreteNetSpec(widths=widths, input=input_vec)
        value = exact.enumerate_exact_delta(
            spec, len(widths) - 1, tuple(_csv_ints(args.units_pair)),
            args.z1, args.z2, args.tail)
    print(value if args.exact else f"{float(value):.17g}")
    return 0


def cmd_selftest(args) -> int:
    report = acceptance_suite(master_seed=args.seed, n=args.n, input_dim=args.input_dim,
                              workers=args.workers)
    for line in report.lines():
        print(line)
    if args.report:
        Path(args.report).write_text(report.to_json())
    print("selftest:", "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 2


def cmd_print_config(args) -> int:
    doc, _ = resolve_config(args)
    print(_json_text(doc), end="")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="bnndep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("sweep", help="depth/width sweep with grids and heatmaps")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("delta", help="one exceedance-difference grid")
    _add_common(p)
    p.add_argument("--layer", type=int)
    p.add_argument("--tail", choices=("upper", "lower"), default="upper")
    p.add_argument("--combo", choices=("single", "sum", "diff"), default="single")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("concordance", help="covariance, tau, rho for a unit pair")
    _add_common(p)
    p.add_argument("--layer", type=int)
    p.set_defaults(func=cmd_concordance)

    p = sub.add_parser("pd", help="positive-dependence profile of one layer")
    _add_common(p)
    p.add_argument("--layer", type=int)
    p.add_argument("--z-steps", type=int, dest="z_steps", default=21)
    p.add_argument("--z-quantiles", dest="z_quantiles", default="0.01,0.99")
    p.set_defaults(func=cmd_pd)

    p = sub.add_parser("oracle", help="exact enumeration and closed-form values")
    p.add_argument("mode", choices=("delta00", "enumerate"))
    p.add_argument("--width", type=int, default=2,
                   help="previous-layer width for delta00")
    p.add_argument("--net-widths", dest="net_widths", default="1,1,2")
    p.add_argument("--net-input", dest="net_input", default="1")
    p.add_argument("--units-pair", dest="units_pair", default="0,1")
    p.add_argument("--z1", type=float, default=0.0)
    p.add_argument("--z2", type=float, default=0.0)
    p.add_argument("--tail", choices=("upper", "lower"), default="upper")
    p.add_argument("--exact", action="store_true", help="print an exact fraction")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    for flag, path, _, kwargs in _COMMON_FLAGS:
        if flag in ("--seed", "--n", "--input-dim", "--workers"):
            p.add_argument(flag, default=DEFAULT_CONFIG[path], **kwargs)
    p.add_argument("--report", help="path for the JSON report")
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("print-config", help="print the resolved configuration")
    _add_common(p)
    p.set_defaults(func=cmd_print_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (UsageError, ConfigError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"bnndep: error: {exc}", file=sys.stderr)
        return 1


def script_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script_entry()
