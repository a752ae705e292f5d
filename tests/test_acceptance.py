"""Acceptance suite: every release criterion at its stated tolerance.

The full suite samples tens of millions of forward passes; it is built
once per session and each test asserts one criterion, printing its
pass/fail line.  Criterion 12 is a soft trend check and may warn without
failing the suite.
"""

import pytest

from bnndep.experiments import acceptance_suite

MASTER_SEED = 42
N = 100_000


@pytest.fixture(scope="session")
def report():
    return acceptance_suite(master_seed=MASTER_SEED, n=N, workers=2)


def criterion(report, cid):
    result = next(r for r in report.results if r.cid == cid)
    print(result.line())
    return result


def test_criterion_01_quadrant_sign_structure(report):
    r = criterion(report, 1)
    assert r.status == "pass", r.details


def test_criterion_02_first_layer_null(report):
    r = criterion(report, 2)
    assert r.status == "pass", r.details


def test_criterion_03_origin_analytic_match(report):
    r = criterion(report, 3)
    assert r.status == "pass", r.details


def test_criterion_04_origin_scale_invariance(report):
    r = criterion(report, 4)
    assert r.status == "pass", r.details


def test_criterion_05_zero_covariance(report):
    r = criterion(report, 5)
    assert r.status == "pass", r.details


def test_criterion_06_zero_concordance(report):
    r = criterion(report, 6)
    assert r.status == "pass", r.details


def test_criterion_07_replica_combo_signs(report):
    r = criterion(report, 7)
    assert r.status == "pass", r.details


def test_criterion_08_enumeration_pipeline_match(report):
    r = criterion(report, 8)
    assert r.status == "pass", r.details


def test_criterion_09_rao_blackwell_consistency(report):
    r = criterion(report, 9)
    assert r.status == "pass", r.details


def test_criterion_10_concordance_equivalence(report):
    r = criterion(report, 10)
    assert r.status == "pass", r.details


def test_criterion_11_width_trend(report):
    r = criterion(report, 11)
    assert r.status == "pass", r.details


def test_criterion_12_depth_trend_soft(report):
    r = criterion(report, 12)
    # qualitative trend: a warning is reported, never a failure
    assert r.status in ("pass", "warn"), r.details


def test_criterion_13_positive_dependence(report):
    r = criterion(report, 13)
    assert r.status == "pass", r.details


def test_criterion_14_determinism(report):
    r = criterion(report, 14)
    assert r.status == "pass", r.details


def test_report_is_machine_readable_and_stable(report):
    text = report.to_json()
    assert text == report.to_json()
    assert '"criteria"' in text
    assert len(report.results) == 14
