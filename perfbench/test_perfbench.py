"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Span self-time arithmetic, metric names and units, and a small-n smoke run
of every workload in both modes.
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")

# small enough for a test; the 4-SE checks stay clear of false alarms here
SMALL = workloads.Sizes(sweep_n=5_000, estimate_n=50_000, selftest_n=5_000, speedup_n=2_000)


def make_span(sid, start, end, parent=None):
    span = tracing.Span(sid, f"m.f{sid}", parent, "op")
    span.start, span.end = start, end
    return span


def test_self_time_subtracts_nested_children():
    spans = [make_span(0, 0.0, 10.0), make_span(1, 1.0, 4.0, 0), make_span(2, 2.0, 3.0, 1),
             make_span(3, 5.0, 6.0, 0)]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})
    assert sum(own.values()) == pytest.approx(spans[0].duration)


def test_self_time_counts_overlapping_children_once():
    # children cover [1, 7] and [9, 10] of the parent's [0, 10]
    spans = [make_span(0, 0.0, 10.0), make_span(1, 1.0, 5.0, 0), make_span(2, 3.0, 7.0, 0),
             make_span(3, 9.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_traced_call_nests_spans_and_restores_names():
    import numpy as np
    from bnndep import estimators, network, sampling

    original = estimators.kendall_tau
    batch = sampling.SampleBatch(np.arange(60.0), np.arange(60.0)[::-1].copy(), 2, "pre",
                                 network.PriorSpec())
    tracer = tracing.Tracer()
    with tracer.installed():
        assert estimators.kendall_tau is not original
        estimators.kendall_tau(batch)
    assert estimators.kendall_tau is original
    spans = {s.name: s for s in tracer.spans}
    outer = spans["estimators.kendall_tau"]
    inner = spans["estimators.kendall_tau_arrays"]
    assert inner.parent == outer.sid and outer.parent is None
    assert outer.attrs == {"tap": "pre"}
    own = tracing.self_times(tracer.spans)
    assert own[outer.sid] == pytest.approx(outer.duration - inner.duration)


def test_metric_names_and_units():
    for group in ("end_to_end", "per_layer"):
        names = [m["name"] for m in BENCHMARK[group]]
        assert len(names) == len(set(names))
        for m in BENCHMARK[group]:
            assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64
            assert UNIT.fullmatch(m["unit"]) and len(m["unit"]) <= 16
            assert m["better"] in ("lower", "higher")


def test_no_checkout_fails_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def toy_grid(value, std_error):
    import numpy as np
    from bnndep import estimators

    z = np.linspace(-1.0, 1.0, 5)
    return estimators.DeltaGrid(z, z, np.asarray(value, float), np.asarray(std_error, float), 1000)


def test_wrong_signed_cells_matches_bnndep_rule_at_3_se():
    import numpy as np
    from bnndep import experiments

    rng = np.random.default_rng(0)
    for _ in range(20):
        grid = toy_grid(rng.normal(0.0, 1.0, (5, 5)), rng.uniform(0.1, 0.6, (5, 5)))
        assert workloads.wrong_signed_cells(grid, 3.0) == experiments.quadrant_sign_violations(grid)


def test_sign_rule_check_fails_real_violations_and_records_false_alarms():
    import numpy as np
    from bnndep import experiments

    assert 3.9 < workloads.sign_rule_threshold(25) < 4.0
    se = np.full((5, 5), 0.01)

    def one_wrong_cell(value):
        # z = 0 is grouped with the negative side, so cell (0, 0.5) must be <= 0
        v = np.zeros((5, 5))
        v[2, 3] = value
        return toy_grid(v, se)

    near_null, flipped = one_wrong_cell(0.035), one_wrong_cell(0.1)
    for grid, fails in ((near_null, False), (flipped, True)):
        checks = workloads.Checks()
        counts = {"g": experiments.quadrant_sign_violations(grid)}
        workloads.check_sign_rule("toy", {"g": grid}, counts, checks)
        assert counts == {"g": 1}
        assert checks.attempted == 2
        assert bool(checks.failed) is fails
        assert checks.findings == {"toy: cells beyond 3 SE by bnndep's rule": {"g": 1}}
    checks = workloads.Checks()
    workloads.check_sign_rule("toy", {"g": near_null}, {"g": 0}, checks)
    assert checks.failed == ["toy sign-violation counts match the grids"]


def test_block_se_matches_classical_se_for_independent_units():
    import numpy as np
    from bnndep import estimators

    rng = np.random.default_rng(1)
    u, v = rng.standard_normal((2, 20_000))
    for estimate in (estimators.kendall_tau_arrays, estimators.spearman_rho_arrays):
        classical = estimate(u, v).std_error
        assert workloads.block_se(estimate, u, v) == pytest.approx(classical, rel=0.25)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sweep", "estimate", "selftest"])
def test_smoke_run_prints_every_metric(workload, trace, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    for key in list(run.PINNED_ENV) + ["PYTHONPATH"]:
        if key in os.environ:
            monkeypatch.setenv(key, os.environ[key])
        else:
            monkeypatch.delenv(key, raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv, sizes=SMALL) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert result["attempted"] >= 1
    assert result["correct"] is (result["failed"] == 0)
    assert any(line.split()[0] == "fail_rate" for line in lines)
    assert result["failed"] == 0
    assert any(line.split()[:2] == ["fail_rate", "0"] for line in lines)
