"""Run the acceptance suite at many master seeds and print how near each criterion came to failing.

The master seeds are those of perfbench's selftest workload: benchmark seed
s runs ``acceptance_suite`` at ``random.Random(f"selftest:{s}").randrange(1, 2**31)``
and the suite's default input_dim of 100, as that workload does.
One line per seed names the criteria that failed or warned and gives the
``margin`` of every criterion that reports one: its worst score over its
threshold, where 1.0 or more fails (see ``experiments._family``).

Criterion 12, the soft depth trend, has no margin; its line entry ``c12=``
is the smaller of its two successive peakedness ratios, which warns below 0.9.
The closing lines count, per criterion, the seeds at which it failed, set the
number of seeds with any failure beside the ``SUITE_ALPHA * seeds`` that the
suite's false-alarm budget predicts, and give each criterion's closest margin
over all seeds (the lowest ratio for criterion 12) with the seed where it
happened.  Run from the repository root:

    PYTHONPATH=src python3 tools/seed_sweep.py --n 20000 --seeds 1-30,301 --workers 2
"""

from __future__ import annotations

import argparse
import random
from collections import Counter

from bnndep import acceptance_suite
from bnndep.experiments import SUITE_ALPHA
from output_identity import seed_list


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=20_000)
    parser.add_argument("--seeds", default="1-30,301", help="benchmark seeds, e.g. 1-30,301")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    failures: Counter = Counter()
    failing_seeds = 0
    closest: dict = {}
    seeds = seed_list(args.seeds)
    for s in seeds:
        master = random.Random(f"selftest:{s}").randrange(1, 2**31)
        report = acceptance_suite(master_seed=master, n=args.n, workers=args.workers)
        failed = [r.cid for r in report.results if r.status == "fail"]
        warned = [r.cid for r in report.results if r.status == "warn"]
        failures.update(failed)
        failing_seeds += bool(failed)
        readings = {r.cid: r.details["margin"] for r in report.results if "margin" in r.details}
        peaks = next(r.details["peakedness"] for r in report.results if r.cid == 12)
        readings[12] = min(peaks["3"] / peaks["2"], peaks["4"] / peaks["3"])
        for cid, value in readings.items():
            # the closest reading is the largest margin, or criterion 12's smallest ratio
            best = closest.get(cid, (value, s))[0]
            if value >= best if cid != 12 else value <= best:
                closest[cid] = (value, s)
        margins = " ".join(f"c{cid}={value:.3f}" for cid, value in sorted(readings.items()))
        print(f"s={s} master={master} fail={failed} warn={warned} {margins}", flush=True)
    print("failures per criterion:", dict(sorted(failures.items())) or "none")
    print(f"failing seeds: {failing_seeds} of {len(seeds)}, "
          f"{SUITE_ALPHA * len(seeds):.3f} expected at SUITE_ALPHA = {SUITE_ALPHA}")
    print("closest per criterion:", " ".join(
        f"c{cid}={value:.3f}@s{s}" for cid, (value, s) in sorted(closest.items())))


if __name__ == "__main__":
    main()
