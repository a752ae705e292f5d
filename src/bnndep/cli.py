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
from . import exact
from .experiments import GridRange, SweepSpec, acceptance_suite, run_sweep, summarize
from .gridio import render_heatmap, write_grid_csv
from .network import Activation, ConfigError, NetworkConfig, PriorSpec, uniform_config
from .sampling import SeedSpec, generate_input, sample_layer, sample_replicas, sample_units

DEFAULT_CONFIG = {
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


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _merge_config(base: dict, override: dict, context: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in out:
            raise UsageError(f"unknown config key {context + key!r}")
        if isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = _merge_config(out[key], value, context + key + ".")
        else:
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


# Flags shared by the sampling subcommands: the flag, the dotted config path
# it overrides, the conversion applied to the parsed value, argparse keywords.
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
    ("--prior-family", "prior.family", None,
     {"choices": ("gaussian", "equicorrelated", "student_t")}),
    ("--scale-mode", "prior.scale_mode", None, {"choices": ("fan_in", "fixed")}),
    ("--sigma0", "prior.sigma0", None, {"type": float}),
    ("--rho", "prior.rho", None, {"type": float}),
    ("--nu", "prior.nu", None, {"type": float}),
    ("--tap", "tap", None, {"choices": ("pre", "post")}),
    ("--units", "units", _csv_ints, {"help": "comma-separated pair of unit indices"}),
    ("--workers", "workers", None, {"type": int}),
    ("--out", "out_dir", None, {"dest": "out_dir"}),
    ("--color-limit", "color_limit", None, {"type": float}),
    ("--formats", "formats", _csv_words, {"help": "comma-separated subset of csv,svg,json"}),
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config document")
    for flag, _, _, kwargs in _COMMON_FLAGS:
        p.add_argument(flag, **kwargs)


def resolve_config(args: argparse.Namespace) -> dict:
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
    if len(doc["units"]) != 2:
        raise UsageError("units must name exactly two indices")
    return doc


def _activation_from(doc: dict) -> Activation:
    return Activation(doc["activation"]["kind"], doc["activation"]["alpha"])


def _prior_from(doc: dict) -> PriorSpec:
    p = doc["prior"]
    nu = float("nan") if p["nu"] is None else float(p["nu"])
    return PriorSpec(family=p["family"], scale_mode=p["scale_mode"],
                     sigma0=p["sigma0"], rho=p["rho"], nu=nu)


def _sweep_spec_from(doc: dict) -> SweepSpec:
    return SweepSpec(
        depths=tuple(doc["depths"]),
        widths=tuple(doc["widths"]),
        input_dim=doc["input_dim"],
        n=doc["n"],
        grid=GridRange(doc["grid"]["lo"], doc["grid"]["hi"], doc["grid"]["steps"]),
        activation=_activation_from(doc),
        prior=_prior_from(doc),
        tap=doc["tap"],
        unit_pair=tuple(doc["units"]),
        master_seed=doc["seed"],
        workers=doc["workers"],
    )


def _estimate_doc(e: est.EstimateWithError) -> dict:
    return {"value": e.value, "std_error": e.std_error, "n": e.n}


def cmd_sweep(args) -> int:
    doc = resolve_config(args)
    spec = _sweep_spec_from(doc)
    out_dir = Path(doc["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = run_sweep(spec)
    summary = {}
    for (depth, width), cell in sorted(cells.items()):
        stem = f"L{depth}H{width}"
        if "csv" in doc["formats"]:
            write_grid_csv(cell.grid, out_dir / f"grid_{stem}.csv")
        if "svg" in doc["formats"]:
            render_heatmap(cell.grid, out_dir / f"heatmap_{stem}.svg", doc["color_limit"])
        summary[stem] = cell.summary.__dict__
    if "json" in doc["formats"]:
        with open(out_dir / "summary.json", "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
    print(f"wrote {len(cells)} grids to {out_dir}")
    return 0


def _single_net(args) -> tuple[dict, NetworkConfig, np.ndarray, int, SeedSpec]:
    """Config document, network, input, tapped layer and seed of a one-network command."""
    doc = resolve_config(args)
    depth, width = doc["depths"][0], doc["widths"][0]
    config = uniform_config(doc["input_dim"], width, depth,
                            _activation_from(doc), _prior_from(doc))
    layer = args.layer if args.layer is not None else depth
    seed = SeedSpec(doc["seed"])
    return doc, config, generate_input(doc["input_dim"], seed), layer, seed


def cmd_delta(args) -> int:
    doc, config, x, layer, seed = _single_net(args)
    z = GridRange(doc["grid"]["lo"], doc["grid"]["hi"], doc["grid"]["steps"]).values()
    pair = tuple(doc["units"])
    if args.combo == "single":
        batch = sample_units(config, x, layer, pair, doc["tap"], doc["n"], seed,
                             workers=doc["workers"])
    else:
        batch = sample_replicas(config, x, layer, pair, doc["tap"], doc["n"], seed,
                                workers=doc["workers"])
    grid = est.delta_grid(batch, z, z, tail=args.tail, combo=args.combo)
    out_dir = Path(doc["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in doc["formats"]:
        write_grid_csv(grid, out_dir / "delta.csv")
    if "svg" in doc["formats"]:
        render_heatmap(grid, out_dir / "delta.svg", doc["color_limit"])
    print(json.dumps({"summary": summarize(grid).__dict__}, sort_keys=True, indent=2))
    return 0


def cmd_concordance(args) -> int:
    doc, config, x, layer, seed = _single_net(args)
    batch = sample_units(config, x, layer, tuple(doc["units"]), doc["tap"],
                         doc["n"], seed, workers=doc["workers"])
    report = {
        "covariance": _estimate_doc(est.covariance(batch)),
        "kendall_tau": _estimate_doc(est.kendall_tau(batch)),
        "spearman_rho": _estimate_doc(est.spearman_rho(batch)),
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def cmd_pd(args) -> int:
    doc, config, x, layer, seed = _single_net(args)
    samples = sample_layer(config, x, layer, doc["n"], seed, doc["tap"],
                           workers=doc["workers"])
    qlo, qhi = (float(t) for t in args.z_quantiles.split(","))
    lo, hi = np.quantile(samples[:, -1], [qlo, qhi])
    profile = est.pd_profile(samples, np.linspace(lo, hi, args.z_steps))
    doc_out = {
        "z_values": [float(z) for z in profile.z_values],
        "right_tail": [None if c is None else _estimate_doc(c) for c in profile.right_tail],
        "left_tail": [None if c is None else _estimate_doc(c) for c in profile.left_tail],
        "min_right": profile.min_right,
        "min_left": profile.min_left,
    }
    print(json.dumps(doc_out, sort_keys=True, indent=2))
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
    report = acceptance_suite(
        master_seed=args.seed,
        n=args.n,
        big_n=args.big_n,
        rb_n=args.rb_n,
        rb_seeds=args.rb_seeds,
        input_dim=args.input_dim,
        workers=args.workers,
    )
    for line in report.lines():
        print(line)
    if args.report:
        Path(args.report).write_text(report.to_json())
    print("selftest:", "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 2


def cmd_print_config(args) -> int:
    doc = resolve_config(args)
    print(json.dumps(doc, sort_keys=True, indent=2))
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
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--big-n", type=int, dest="big_n")
    p.add_argument("--rb-n", type=int, dest="rb_n")
    p.add_argument("--rb-seeds", type=int, dest="rb_seeds", default=30)
    p.add_argument("--input-dim", type=int, dest="input_dim", default=100)
    p.add_argument("--workers", type=int, default=1)
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
