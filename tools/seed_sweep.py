"""Run the acceptance suite at many master seeds and print how near each criterion came to failing.

The master seeds are those of perfbench's selftest workload: benchmark seed
s runs ``acceptance_suite`` at ``random.Random(f"selftest:{s}").randrange(1, 2**31)``
and the suite's default input_dim of 100, as that workload does.
One line per seed names the criteria that failed or warned and gives the
worst readings of the many-cell criteria:

- c1: the worst wrong-signed cell and the bound, in SEs;
- c2: the largest layer-1 cell and the bound, in SEs;
- c9: the worst RB-vs-indicator gap at widths 2 and 5, as a fraction of its bound;
- c13: the lowest layer-2 and largest layer-1 profile score and the bound, in SEs.

The last line counts, per criterion, the seeds at which it failed.  Run from
the repository root:

    PYTHONPATH=src python3 tools/seed_sweep.py --n 20000 --seeds 1-30,301 --workers 2
"""

from __future__ import annotations

import argparse
import random
from collections import Counter

from bnndep import acceptance_suite


def seed_list(text: str) -> list[int]:
    """Benchmark seeds from a comma-separated list of numbers and ranges, e.g. ``1-30,301``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def margins(details: dict) -> str:
    d = details
    return (f"c1={d[1]['max_cell_ratio']:.2f}/{d[1]['cell_threshold']:.2f} "
            f"c2={d[2]['max_cell_ratio']:.2f}/{d[2]['cell_threshold']:.2f} "
            f"c9={d[9]['H2_worst_gap_fraction']:.3f},{d[9]['H5_worst_gap_fraction']:.3f} "
            f"c13={d[13]['layer2_min_score']:.2f},{d[13]['layer1_max_abs_score']:.2f}"
            f"/{d[13]['cell_threshold']:.2f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=20_000)
    parser.add_argument("--seeds", default="1-30,301", help="benchmark seeds, e.g. 1-30,301")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    failures: Counter = Counter()
    for s in seed_list(args.seeds):
        master = random.Random(f"selftest:{s}").randrange(1, 2**31)
        report = acceptance_suite(master_seed=master, n=args.n, workers=args.workers)
        failed = [r.cid for r in report.results if r.status == "fail"]
        warned = [r.cid for r in report.results if r.status == "warn"]
        failures.update(failed)
        print(f"s={s} master={master} fail={failed} warn={warned} "
              + margins({r.cid: r.details for r in report.results}), flush=True)
    print("failures per criterion:", dict(sorted(failures.items())) or "none")


if __name__ == "__main__":
    main()
