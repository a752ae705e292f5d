"""Check that every bnndep subcommand writes the same bytes as at a base git ref.

The base ref is extracted with ``git archive`` into a scratch directory; the
other side is this checkout's ``src`` as it stands, uncommitted edits
included.  Each side runs the same command lines in fresh interpreters, 23
per seed and 11 more.  At each seed: every subcommand (sweeps with their
CSV/SVG/JSON files, one-grid ``delta`` runs, ``concordance``, ``pd``,
``oracle``, ``selftest`` with its JSON report, ``print-config``); post-tap
``delta`` and whole-layer ``pd`` runs under tanh, sigmoid and elu; ``delta``,
``concordance`` and ``pd`` from a ``--config`` document; and ``delta`` and
``concordance`` from a second document that sets the activation and prior
leaves the first leaves out (elu with alpha 0.5, student_t with nu 5, fixed
scale, sigma0 0.5).  The tool writes each document into the run directory on
both sides.  Then once: a bare ``print-config``, two ``oracle enumerate``
runs on a 2-3-2 net with non-dyadic inputs, and every ``--help`` page.  Each
run's stdout, stderr, exit code and files land in one directory per run, and
``diff -r`` compares the two trees.  The exit status is 0 when they match;
otherwise the scratch directory is kept and its path printed.  Run from the
repository root:

    python3 tools/output_identity.py --base HEAD --seeds 1-3 --n 2000
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SUBCOMMANDS = ("sweep", "delta", "concordance", "pd", "oracle", "selftest", "print-config")


def seed_list(text: str) -> list[int]:
    """Seeds from a comma-separated list of numbers and ranges, e.g. ``1-3,7``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def runs(seeds: list[int], n: int) -> list[tuple[str, list[str], dict | None]]:
    """(run directory, argv, config document or None) triples.

    ``{out}`` in an argv stands for the run directory; a run's config document
    is written there as ``config.json`` before the command starts.
    """
    out = []
    for s in seeds:
        c = ["--seed", str(s), "--n", str(n), "--input-dim", "20"]
        small = ["--depths", "2,3", "--widths", "2,5"]
        one = ["--depths", "3", "--widths", "4"]
        out += [(f"s{s}/{name}", argv, None) for name, argv in (
            ("sweep", ["sweep", *c, "--out", "{out}"]),
            ("sweep_post", ["sweep", *c, *small, "--tap", "post", "--color-limit", "0.05",
                            "--out", "{out}"]),
            ("sweep_student_t", ["sweep", *c, "--depths", "2", "--widths", "3",
                                 "--prior-family", "student_t", "--nu", "5",
                                 "--activation", "tanh", "--workers", "2", "--out", "{out}"]),
            ("delta", ["delta", *c, *one, "--out", "{out}"]),
            ("delta_lower_sum", ["delta", *c, *one, "--tail", "lower", "--combo", "sum",
                                 "--color-limit", "0", "--out", "{out}"]),
            ("delta_post_diff", ["delta", *c, *one, "--tap", "post", "--combo", "diff",
                                 "--grid-steps", "9", "--out", "{out}"]),
            ("delta_diff_workers", ["delta", *c, *one, "--combo", "diff", "--workers", "2",
                                    "--out", "{out}"]),
            ("delta_post_tanh", ["delta", *c, *one, "--tap", "post", "--activation", "tanh",
                                 "--out", "{out}"]),
            ("concordance", ["concordance", *c, "--depths", "2", "--widths", "3"]),
            ("concordance_post", ["concordance", *c, *one, "--tap", "post"]),
            ("concordance_layer", ["concordance", *c, *one, "--layer", "2"]),
            ("pd", ["pd", *c, *one]),
            ("pd_post_sigmoid", ["pd", *c, *one, "--tap", "post", "--activation", "sigmoid",
                                 "--workers", "2"]),
            ("pd_post_elu_t", ["pd", *c, *one, "--tap", "post", "--activation", "elu",
                               "--elu-alpha", "0.5", "--prior-family", "student_t", "--nu", "5"]),
            ("oracle_delta00", ["oracle", "delta00", "--width", str(1 + s % 6), "--exact"]),
            ("oracle_enumerate", ["oracle", "enumerate", "--net-widths", "1,2,2",
                                  "--z1", str(0.25 * s), "--tail", "lower"]),
            ("selftest", ["selftest", "--seed", str(s), "--n", str(n), "--input-dim", "20",
                          "--report", "{out}/report.json"]),
            ("print_config", ["print-config", *c, "--tap", "post"]),
        )]
        doc = {"seed": s, "n": n, "input_dim": 20, "depths": [3], "widths": [4],
               "grid": {"lo": -0.5, "hi": 1.5, "steps": 9}, "units": [1, 0], "tap": "post",
               "prior": {"family": "equicorrelated", "rho": 0.3}, "workers": 2}
        elu_t = {**doc, "activation": {"kind": "elu", "alpha": 0.5},
                 "prior": {"family": "student_t", "nu": 5, "scale_mode": "fixed", "sigma0": 0.5}}
        out += [(f"s{s}/{name}", [sub, "--config", "{out}/config.json", "--out", "{out}"], d)
                for name, sub, d in (("delta_config", "delta", doc),
                                     ("concordance_config", "concordance", doc),
                                     ("pd_config", "pd", doc),
                                     ("delta_config_elu_t", "delta", elu_t),
                                     ("concordance_config_elu_t", "concordance", elu_t))]
    # every default of the config document, with no flag or file over it
    out.append(("defaults/print_config", ["print-config"], None))
    # a wider net with non-dyadic inputs, where pre-activations are rounded in float64
    wide = ["oracle", "enumerate", "--net-widths", "2,3,2", "--exact"]
    out.append(("oracle/enumerate_wide", [*wide, "--net-input", "0.1,0.2",
                                          "--z1", "0.3", "--z2", "0.3"], None))
    out.append(("oracle/enumerate_wide_lower", [*wide, "--net-input", "0.7,-1.3",
                                                "--z1", "-0.6", "--z2", "0.5",
                                                "--tail", "lower"], None))
    out.append(("help/bnndep", ["--help"], None))
    out += [(f"help/{sub}", [sub, "--help"], None) for sub in SUBCOMMANDS]
    return out


def run_side(src: Path, dest: Path, plan: list[tuple[str, list[str], dict | None]]) -> None:
    env = {**os.environ, "PYTHONPATH": str(src)}
    for name, argv, doc in plan:
        run_dir = dest / name
        run_dir.mkdir(parents=True)
        if doc is not None:
            (run_dir / "config.json").write_text(json.dumps(doc, indent=2) + "\n")
        argv = [a.replace("{out}", str(run_dir)) for a in argv]
        proc = subprocess.run([sys.executable, "-m", "bnndep.cli", *argv], env=env,
                              cwd=run_dir, capture_output=True, text=True)
        # output paths differ between the sides; name them the same way in the logs
        for label, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            (run_dir / f"{label}.txt").write_text(text.replace(str(run_dir), "{out}"))
        (run_dir / "exit_code.txt").write_text(f"{proc.returncode}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref to compare against, e.g. HEAD")
    parser.add_argument("--seeds", default="1-3", help="seeds, e.g. 1-3,7")
    parser.add_argument("--n", type=int, default=2000)
    args = parser.parse_args()
    plan = runs(seed_list(args.seeds), args.n)
    scratch = Path(tempfile.mkdtemp(prefix="bnndep_identity_"))
    diff = None
    try:
        base_tree = scratch / "base_tree"
        base_tree.mkdir()
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive, check=True)
        for side, src in (("base", base_tree / "src"), ("change", ROOT / "src")):
            print(f"running {len(plan)} commands on {side} ({src})", flush=True)
            run_side(src, scratch / side, plan)
        diff = subprocess.run(["diff", "-r", "base", "change"], cwd=scratch,
                              capture_output=True, text=True)
        print(diff.stdout[:20000], end="")
        files = sum(len(f) for _, _, f in os.walk(scratch / "change"))
        verdict = "identical" if diff.returncode == 0 else "DIFFERENT"
        print(f"{verdict}: {len(plan)} runs per side, {files} files per side, "
              f"base {args.base}, seeds {args.seeds}, n={args.n}")
        return diff.returncode
    finally:
        if diff is not None and diff.returncode != 0:
            print(f"kept {scratch} for inspection")
        else:
            shutil.rmtree(scratch)


if __name__ == "__main__":
    sys.exit(main())
