"""Benchmark this checkout against a git ref in alternating pairs of perfbench runs.

The base ref is extracted with ``git archive`` into a scratch directory; the
change side is this checkout as it stands, uncommitted edits included (to
measure a commit, check it out first).  For each workload, pair k (from 1)
runs ``perfbench/run.py --workload W --seed k --seconds S --trace 0`` once on
each side, each in a fresh interpreter from its own tree, and the side that
runs first alternates from pair to pair.  ``os.getloadavg()`` is read
before every run, so host contention shows in the record.

``BENCH_<label>.json`` at the repository root holds the host (nproc, CPU model,
Python, numpy and scipy versions), the base ref, every run (seed, load average,
end-to-end metrics, ``correct`` flag, attempted and failed checks) and, per
workload and metric, each side's median and quartiles, the per-pair
change/base ratios with their median and IQR, the pairs in which the change
reads better, and the bound ``BENCHMARK.json`` fixes for the metric.  Keys are
sorted.  Run from the repository root:

    python3 tools/bench_pairs.py --base HEAD --workloads estimate,sweep --pairs 10 \\
        --seconds 10 --label estimate
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("sweep", "estimate", "selftest")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), linearly interpolated as numpy's default percentile is."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base: list[dict], change: list[dict], bounds: dict) -> dict:
    """Per-metric comparison of one workload's runs; base[k] and change[k] form pair k.

    ``bounds`` maps each metric name to ``{"bound": b, "better": "lower" | "higher"}``
    as in BENCHMARK.json.
    """
    if len(base) != len(change) or not base:
        raise ValueError("need one change run per base run, and at least one pair")
    out = {}
    for name in sorted(base[0]["metrics"]):
        b = [r["metrics"][name] for r in base]
        c = [r["metrics"][name] for r in change]
        spec = bounds[name]
        lower_better = spec["better"] == "lower"
        ratios = [y / x if x else float("nan") for x, y in zip(b, c)]
        bq, cq, rq = quartiles(b), quartiles(c), quartiles(ratios)
        median_ratio = cq[1] / bq[1] if bq[1] else float("nan")
        row = {
            "base": b, "change": c,
            "base_median": bq[1], "base_q1": bq[0], "base_q3": bq[2], "base_iqr": bq[2] - bq[0],
            "change_median": cq[1], "change_q1": cq[0], "change_q3": cq[2],
            "change_iqr": cq[2] - cq[0],
            "ratios": ratios, "ratio_median": rq[1], "ratio_iqr": rq[2] - rq[0],
            "median_ratio": median_ratio,
            "pairs_change_better": sum((y < x) if lower_better else (y > x)
                                       for x, y in zip(b, c)),
            "pairs": len(b),
            "better": spec["better"], "bound": spec["bound"],
            "within_bound": (median_ratio <= 1 + spec["bound"] if lower_better
                             else median_ratio >= 1 - spec["bound"]),
        }
        out[name] = row
    return out


def fail_summary(runs: list[dict]) -> dict:
    """Checks attempted and failed over all runs of one side, and whether every run was correct."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {"all_correct": all(r["correct"] for r in runs), "attempted": attempted,
            "failed": failed, "fail_rate": failed / attempted if attempted else 0.0}


def extract(ref: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def commit_of(ref: str) -> str:
    return subprocess.run(["git", "rev-parse", ref], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its end-to-end metrics and verdict."""
    load = os.getloadavg()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py failed in {tree} ({workload}, seed {seed}):\n"
                           f"{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "loadavg": list(load), "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def host() -> dict:
    import numpy
    import scipy

    model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        model = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), None)
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def bounds() -> dict:
    """BENCHMARK.json's end-to-end metrics by name."""
    return {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref of the base side, e.g. HEAD")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated, from " + ", ".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    if any(w not in WORKLOADS for w in workloads) or args.pairs < 1:
        parser.error("unknown workload or fewer than one pair")

    scratch = Path(tempfile.mkdtemp(prefix="bnndep_bench_"))
    try:
        trees = {"base": scratch / "base", "change": ROOT}
        extract(args.base, trees["base"])
        doc = {
            "host": host(), "seconds": args.seconds, "pairs": args.pairs,
            "base": {"ref": args.base, "commit": commit_of(args.base)},
            "change": {"tree": "working tree"}, "workloads": {},
        }
        specs = bounds()
        for workload in workloads:
            runs = {"base": [], "change": []}
            for k in range(1, args.pairs + 1):
                order = ("base", "change") if k % 2 else ("change", "base")
                for side in order:
                    runs[side].append(run_once(trees[side], workload, k, args.seconds))
                b, c = runs["base"][-1]["metrics"], runs["change"][-1]["metrics"]
                print(f"{workload} pair {k}/{args.pairs} ({order[0]} first): wall_s "
                      f"{b['wall_s']:.3f} -> {c['wall_s']:.3f}", flush=True)
            summary = summarize(runs["base"], runs["change"], specs)
            doc["workloads"][workload] = {
                "runs": runs, "metrics": summary,
                "checks": {side: fail_summary(runs[side]) for side in runs},
            }
            for name, row in summary.items():
                print(f"  {workload:9s} {name:12s} {row['base_median']:10.4g} -> "
                      f"{row['change_median']:10.4g}  ratio median {row['ratio_median']:.3f} "
                      f"(IQR {row['ratio_iqr']:.3f}), change better in "
                      f"{row['pairs_change_better']}/{row['pairs']}")
        path = ROOT / f"BENCH_{args.label}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
        return 0
    finally:
        shutil.rmtree(scratch)


if __name__ == "__main__":
    sys.exit(main())
