"""Run the acceptance suite at many master seeds and print how near each criterion came to failing.

The master seeds are those of perfbench's selftest workload: benchmark seed
s runs ``acceptance_suite`` at ``random.Random(f"selftest:{s}").randrange(1, 2**31)``
and the suite's default input_dim of 100, as that workload does.
One line per seed names the criteria that failed or warned and gives the
``margin`` of every criterion that reports one: its worst score over its
threshold, where 1.0 or more fails (see ``experiments._family``).

The last line counts, per criterion, the seeds at which it failed.  Run from
the repository root:

    PYTHONPATH=src python3 tools/seed_sweep.py --n 20000 --seeds 1-30,301 --workers 2
"""

from __future__ import annotations

import argparse
import random
from collections import Counter

from bnndep import acceptance_suite
from output_identity import seed_list


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
        margins = " ".join(f"c{r.cid}={r.details['margin']:.3f}"
                           for r in report.results if "margin" in r.details)
        print(f"s={s} master={master} fail={failed} warn={warned} {margins}", flush=True)
    print("failures per criterion:", dict(sorted(failures.items())) or "none")


if __name__ == "__main__":
    main()
