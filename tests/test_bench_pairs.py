import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BOUNDS = {"wall_s": {"name": "wall_s", "better": "lower", "bound": 0.24},
          "speed": {"name": "speed", "better": "higher", "bound": 0.1}}


def run(wall, speed, correct=True, failed=0):
    return {"seed": 1, "loadavg": [0.0, 0.0, 0.0], "correct": correct, "attempted": 10,
            "failed": failed, "metrics": {"wall_s": wall, "speed": speed}}


BASE = [run(2.0, 10.0), run(1.0, 10.0), run(4.0, 10.0), run(3.0, 10.0)]
CHANGE = [run(1.0, 11.0), run(1.5, 9.0), run(2.0, 12.0), run(1.5, 10.0)]


class TestSummary:
    def test_medians_quartiles_and_ratios(self):
        row = bench_pairs.summarize(BASE, CHANGE, BOUNDS)["wall_s"]
        assert row["base"] == [2.0, 1.0, 4.0, 3.0]
        # numpy-style linear quartiles of 1, 2, 3, 4: 1.75, 2.5, 3.25
        assert (row["base_q1"], row["base_median"], row["base_q3"]) == (1.75, 2.5, 3.25)
        assert row["base_iqr"] == 1.5
        assert row["change_median"] == 1.5
        assert row["ratios"] == [0.5, 1.5, 0.5, 0.5]
        assert row["ratio_median"] == 0.5 and row["ratio_iqr"] == 0.25
        assert row["median_ratio"] == 0.6
        assert row["pairs_change_better"] == 3 and row["pairs"] == 4
        assert row["within_bound"] and row["bound"] == 0.24

    def test_higher_is_better_counts_and_bound(self):
        row = bench_pairs.summarize(BASE, CHANGE, BOUNDS)["speed"]
        assert row["better"] == "higher"
        assert row["pairs_change_better"] == 2     # 11 > 10 and 12 > 10; a tie counts for neither
        assert row["median_ratio"] == 1.05 and row["within_bound"]
        worse = bench_pairs.summarize(BASE, [run(1.0, 8.0)] * 4, BOUNDS)["speed"]
        assert worse["median_ratio"] == 0.8 and not worse["within_bound"]

    def test_one_pair(self):
        row = bench_pairs.summarize([run(2.0, 1.0)], [run(1.0, 1.0)], BOUNDS)["wall_s"]
        assert row["base_iqr"] == 0.0 and row["ratio_median"] == 0.5

    @pytest.mark.parametrize("change", [CHANGE[:3], []])
    def test_unpaired_runs_rejected(self, change):
        with pytest.raises(ValueError, match="one change run per base run"):
            bench_pairs.summarize(BASE[:len(change) + 1] if change else [], change, BOUNDS)

    def test_fail_summary(self):
        got = bench_pairs.fail_summary([run(1.0, 1.0), run(1.0, 1.0, correct=False, failed=2)])
        assert got == {"all_correct": False, "attempted": 20, "failed": 2, "fail_rate": 0.1}

    def test_summary_serialises_with_sorted_keys(self):
        doc = bench_pairs.summarize(BASE, CHANGE, BOUNDS)
        text = json.dumps(doc, sort_keys=True)
        assert json.loads(text) == doc
        assert list(json.loads(text)["wall_s"]) == sorted(doc["wall_s"])

    def test_bounds_come_from_the_benchmark_file(self):
        bounds = bench_pairs.bounds()
        assert {"wall_s", "setup_s", "cpu_s", "peak_rss_mb"} <= set(bounds)
        assert all(b["better"] == "lower" for b in bounds.values())
