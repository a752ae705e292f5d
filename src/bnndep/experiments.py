"""Width/depth sweeps, grid summaries, and the acceptance suite.

``run_sweep`` reproduces the sampling protocol at configurable scale: one
fixed Gaussian input, one prior draw per width at the greatest depth, tapped
at every depth for the chosen unit pair, and an exceedance-difference grid
per (depth, width) cell.  ``acceptance_suite`` executes every acceptance
criterion and returns a machine-readable, byte-deterministic report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import estimators as est
from . import exact, gridio
from .network import IDENTITY, RELU, Activation, PriorSpec, _finite, _integer, uniform_config
from .sampling import (
    DIFF_OF_COPIES,
    SUM_OF_COPIES,
    SampleBatch,
    SeedSpec,
    combine_copies,
    generate_input,
    sample_layer,
    sample_taps,
)

_EPS = 1e-12

# The suite's false-alarm budget: the chance, fixed in advance rather than
# tuned to data, that a correct run fails any of its STATISTICAL_CRITERIA
# criteria (1-7, 9 and 13).  Each gets an equal share, split by Bonferroni
# over its tails (see _family).  perfbench's sign-rule check keeps its own rate.
SUITE_ALPHA = 5e-3
STATISTICAL_CRITERIA = 9
# Equal blocks behind the batch-means SE of the zero-concordance test.
NULL_BLOCKS = 100


@dataclass(frozen=True)
class GridRange:
    lo: float = -1.0
    hi: float = 1.0
    steps: int = 41

    def __post_init__(self) -> None:
        if not _integer(self.steps):
            raise ValueError(f"grid steps must be an integer, got {self.steps!r}")
        if self.steps < 2:
            raise ValueError("grid needs at least 2 steps")
        if not (_finite(self.lo, self.hi) and self.lo < self.hi):
            raise ValueError(f"grid needs finite lo < hi, got lo={self.lo}, hi={self.hi}")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


@dataclass(frozen=True)
class SweepSpec:
    depths: tuple[int, ...] = (2, 3, 4)
    widths: tuple[int, ...] = (2, 5, 10)
    input_dim: int = 100
    n: int = 100_000
    grid: GridRange = GridRange()
    activation: Activation = RELU
    prior: PriorSpec = PriorSpec()
    tap: str = "pre"
    unit_pair: tuple[int, int] = (0, 1)
    master_seed: int = 42
    workers: int = 1


@dataclass(frozen=True)
class GridSummary:
    """Scalar reading of one grid: overall size, center vs corners, sign errors."""

    mean_abs: float
    center_value: float
    corner_mean_abs: float
    peakedness: float
    quadrant_sign_violations: int


@dataclass
class SweepCell:
    grid: est.DeltaGrid
    summary: GridSummary


def theoretical_sign(z1, z2):
    """Sign the exceedance difference must have at (z1, z2) beyond layer 1.

    The conditional exceedance is non-decreasing in the conditioning norm
    for z > 0 and non-increasing for z <= 0, so the covariance of the two
    is non-negative exactly when z1 and z2 fall on the same side, with zero
    grouped with the negative side.  Broadcasts over arrays.
    """
    return np.where((z1 > 0) == (z2 > 0), 1, -1)


def _wrong_side(grid: est.DeltaGrid) -> np.ndarray:
    """Each cell's value signed so that the side the sign rule forbids is positive."""
    return -theoretical_sign(grid.z1_values[:, None], grid.z2_values[None, :]) * grid.value


def quadrant_sign_violations(grid: est.DeltaGrid) -> int:
    """Cells more than 3 SE on the wrong side of zero, with no multiplicity correction."""
    return int(np.count_nonzero(_wrong_side(grid) > 3.0 * grid.std_error))


def summarize(grid: est.DeltaGrid) -> GridSummary:
    v = grid.value
    ia = int(np.argmin(np.abs(grid.z1_values)))
    ib = int(np.argmin(np.abs(grid.z2_values)))
    center = float(v[ia, ib])
    corners = np.array([v[0, 0], v[0, -1], v[-1, 0], v[-1, -1]])
    corner_mean_abs = float(np.abs(corners).mean())
    return GridSummary(
        mean_abs=float(np.abs(v).mean()),
        center_value=center,
        corner_mean_abs=corner_mean_abs,
        peakedness=center / max(corner_mean_abs, _EPS),
        quadrant_sign_violations=quadrant_sign_violations(grid),
    )


def run_sweep(spec: SweepSpec) -> dict[tuple[int, int], SweepCell]:
    """Grid plus summary for every (depth, width) combination, depth-major.

    Deterministic given the master seed.  One input vector serves every cell.
    Each width is drawn once, at the greatest depth, and tapped at every
    depth: cells of one width share their draws (common random numbers);
    cells of different widths are independent.
    """
    if not (spec.depths and spec.widths) or any(
            len(set(v)) != len(v) for v in (spec.depths, spec.widths)):
        raise ValueError(f"a sweep needs distinct depths and distinct widths, got "
                         f"depths={list(spec.depths)}, widths={list(spec.widths)}")
    seed = SeedSpec(spec.master_seed)
    x = generate_input(spec.input_dim, seed)
    z = spec.grid.values()
    grids = {}
    for hi, width in enumerate(spec.widths):
        config = uniform_config(spec.input_dim, width, max(spec.depths), spec.activation,
                                spec.prior)
        # stream (0, hi) is the first listed depth's; the comprehension frees the batches
        grids.update({(b.layer, width): est.delta_grid(b, z, z) for b in sample_taps(
            config, x, tuple(sorted(spec.depths)), spec.unit_pair, spec.tap, spec.n,
            seed.child(0, hi), workers=spec.workers)})
    return {(d, w): SweepCell(grids[d, w], summarize(grids[d, w]))
            for d in spec.depths for w in spec.widths}


def mean_abs_std_error(grid: est.DeltaGrid) -> float:
    """SE of the grid's mean absolute cell value, cells treated independently."""
    return float(np.sqrt(np.sum(grid.std_error**2)) / grid.std_error.size)


# ---------------------------------------------------------------------------
# Acceptance suite
# ---------------------------------------------------------------------------

@dataclass
class CriterionResult:
    cid: int
    title: str
    status: str  # "pass" | "fail" | "warn"
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        # plain values under string keys, which the report sorts as strings ("10" before "2")
        self.details = json.loads(json.dumps(self.details, default=gridio._json_default))

    def line(self) -> str:
        return f"[{self.status.upper():4s}] criterion {self.cid:2d}: {self.title}"


@dataclass
class AcceptanceReport:
    master_seed: int
    n: int
    results: list[CriterionResult]

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]

    def to_json(self) -> str:
        return gridio._json_text({
            "master_seed": self.master_seed,
            "n": self.n,
            "passed": self.passed,
            "criteria": [
                {"id": r.cid, "title": r.title, "status": r.status, "details": r.details}
                for r in self.results
            ],
        })


def _family(tests: dict, **extra) -> tuple[bool, dict]:
    """One criterion's verdict on its named tests, at its share of SUITE_ALPHA.

    Each test is ``(scores, tails)``: scores in normal SEs, positive on the
    failing side, and ``tails`` one-sided tails per score, 2 for a two-sided
    test scored by absolute value.  One Bonferroni threshold covers every
    tail.  ``margin`` is the worst score over it; 1.0 or more fails, and so
    does a NaN score.
    """
    from scipy.special import ndtri
    tails = sum(np.size(scores) * k for scores, k in tests.values())
    threshold = float(-ndtri(SUITE_ALPHA / STATISTICAL_CRITERIA / tails))
    worst = {name: float(np.max(scores)) for name, (scores, _) in tests.items()}
    worst_score = float(np.max(list(worst.values())))
    return bool(worst_score < threshold), {
        "threshold": threshold, "tails": tails, "worst_score": worst_score,
        "margin": worst_score / threshold, "worst_scores": worst, **extra}


def _z(diff, std_error):
    """Two-sided score: ``|diff|`` in SEs."""
    return np.abs(diff) / np.maximum(std_error, _EPS)


def _sign_scores(grid: est.DeltaGrid) -> np.ndarray:
    """Criteria 1 and 7: each cell's wrong-side value in SEs at zero dependence.

    That SE is the boundary the sign rule tests: the plug-in SE collapses when
    a cross count is empty.  The grid must come from ``delta_grid``, which
    stores it; grids read back from CSV lack it.
    """
    if grid.null_std_error is None:
        raise ValueError("sign rule needs grids from delta_grid (null_std_error is None)")
    return _wrong_side(grid) / np.maximum(grid.null_std_error, _EPS)


def _rb_scores(batch: SampleBatch, zs) -> np.ndarray:
    """Criterion 9: the Rao-Blackwell vs indicator gap at each zs x zs cell, in combined SEs."""
    rb, ind = est.rao_blackwell_grid(batch, zs, zs), est.delta_grid(batch, zs, zs)
    return _z(rb.value - ind.value, np.hypot(rb.std_error, ind.std_error)).ravel()


def _pd_tests(layer2: np.ndarray, layer1: np.ndarray) -> dict:
    """Criterion 13: width-3 profile cells not below 1/4 at layer 2, equal to it at layer 1.

    Given a layer-1 output h != 0 the layer-2 units are i.i.d. and symmetric,
    so the profile is 1/4 + (3/4) P(h = 0 | tail event).  Cells sit at 21
    thresholds between the last unit's 1% and 99% quantiles and score in SEs
    of a proportion at 1/4; an empty cell scores NaN and fails.
    """
    def scores(samples: np.ndarray) -> np.ndarray:
        lo, hi = np.quantile(samples[:, -1], [0.01, 0.99])
        prof = est.pd_profile(samples, np.linspace(lo, hi, 21))
        return np.array([(c.value - 0.25) / np.sqrt(0.25 * 0.75 / c.n) if c is not None
                         else np.nan for c in prof.right_tail + prof.left_tail])

    return {"layer2": (-scores(layer2), 1), "layer1": (np.abs(scores(layer1)), 2)}


def _concordance_tests(batch: SampleBatch) -> dict:
    """Criterion 6: tau and rho against zero in batch-means SEs.

    The batch-means SE is the statistic's spread over NULL_BLOCKS equal blocks
    over sqrt(NULL_BLOCKS).  Unlike the estimators' SEs, which hold only for
    independent units, it also holds for uncorrelated but dependent ones.  Its
    t-score has NULL_BLOCKS - 1 degrees of freedom, so it is converted to the
    normal score of the same tail probability.
    """
    from scipy.special import ndtri, stdtr
    tests = {}
    for name, estimate in (("tau", est.kendall_tau_arrays), ("rho", est.spearman_rho_arrays)):
        blocks = zip(np.array_split(batch.u, NULL_BLOCKS), np.array_split(batch.v, NULL_BLOCKS))
        spread = np.std([estimate(a, b).value for a, b in blocks], ddof=1)
        t = _z(estimate(batch.u, batch.v).value, spread / np.sqrt(NULL_BLOCKS))
        tests[name] = (-ndtri(stdtr(NULL_BLOCKS - 1, -t)), 2)
    return tests


def _enumeration_match() -> tuple[bool, dict]:
    """Criterion 8: the grid estimator on the toy net's enumerated law equals the oracle.

    The law is a sample holding each of the 8 weight configurations once.
    Its probabilities are multiples of 1/8, so every cell over z in
    {-0.5, 0, 0.5}, both tails, must match exactly.
    """
    toy, z = exact.toy_relu_net(), np.array([-0.5, 0.0, 0.5])
    k, chunks = exact._configurations(toy, 2)
    pre = np.ldexp(np.concatenate(list(chunks)), -k)   # exact: the toy net is integral
    law = SampleBatch(pre[:, 0], pre[:, 1], 2, "pre", PriorSpec())
    mismatches = 0
    for tail in (est.UPPER, est.LOWER):
        ex = [[float(exact.enumerate_exact_delta(toy, 2, (0, 1), z1, z2, tail)) for z2 in z]
              for z1 in z]
        mismatches += int(np.count_nonzero(est.delta_grid(law, z, z, tail).value != ex))
    return mismatches == 0, {"cells": 2 * z.size**2, "mismatches": mismatches}


# Batches behind criterion 9's repeated-seed variance comparison.
RB_SEEDS = 30


def acceptance_suite(
    master_seed: int = SweepSpec.master_seed, n: int = SweepSpec.n,
    input_dim: int = SweepSpec.input_dim, workers: int = SweepSpec.workers,
) -> AcceptanceReport:
    """Run every acceptance criterion and collect a deterministic report.

    Every sample size follows from ``n``, which must be at least 10 * NULL_BLOCKS.
    The width-10 origin cell, whose target is small enough to rival the
    standard error at n draws, takes 10n; criterion 9 compares variances
    over RB_SEEDS batches of max(2000, n // 5).
    """
    if n < 10 * NULL_BLOCKS:
        # criterion 6's blocks each need enough samples for a rank statistic
        raise ValueError(f"the acceptance suite needs n >= {10 * NULL_BLOCKS} "
                         f"(10 samples per zero-concordance block), got {n!r}")
    seed = SeedSpec(master_seed)
    x = generate_input(input_dim, seed)
    z = GridRange().values()

    def taps(label, width, layers, count=n, act=RELU, prior=PriorSpec(), norms=False,
             workers=workers) -> list[SampleBatch]:
        """Units (0, 1) at the pre tap of ``layers``, from one draw on ``seed.child(*label)``."""
        return sample_taps(uniform_config(input_dim, width, layers[-1], act, prior), x, layers,
                           (0, 1), "pre", count, seed.child(*label), want_norms=norms,
                           workers=workers)

    # one sweep, drawn on streams (0, hi), serves criteria 1, 2, 11 and 12
    base = run_sweep(SweepSpec(depths=(1, 2, 3, 4), input_dim=input_dim, n=n,
                               master_seed=master_seed, workers=workers))

    def sign_structure():
        cells = {f"L{d}H{h}": cell for (d, h), cell in base.items() if d >= 2}
        # the uncorrected 3-SE counts are reported alongside
        counts = {k: c.summary.quadrant_sign_violations for k, c in cells.items()}
        return _family({k: (_sign_scores(c.grid), 1) for k, c in cells.items()}, violations=counts)

    def first_layer_null():
        tests = {f"L1H{h}": (_z(cell.grid.value, cell.grid.std_error), 2)
                 for (d, h), cell in base.items() if d == 1}
        batch = taps((2,), 5, (1,))[0]
        # layer-1 units are independent, so the estimators' null SEs hold here
        for name, e in (("tau", est.kendall_tau(batch)), ("rho", est.spearman_rho(batch))):
            tests[name] = (_z(e.value, e.std_error), 2)
        return _family(tests)

    def origin(sigma0: float, label: int) -> dict:
        tests = {}
        for h in (2, 5, 10):
            batch = taps((label, h), h, (2,), count=10 * n if h == 10 else n,
                         prior=PriorSpec(sigma0=sigma0))[0]
            e, target = est.delta_upper(batch, 0.0, 0.0), float(exact.analytic_delta_zero(h))
            tests[f"H{h}"] = (_z(e.value - target, e.std_error), 2)
        return tests

    def zero_covariance():
        tests = {}
        priors = {"iid": PriorSpec(),
                  "equicorrelated": PriorSpec(family="equicorrelated", rho=0.5)}
        for pi, (name, prior) in enumerate(priors.items()):
            for batch in taps((5, pi), 5, (1, 2, 3), prior=prior):
                cov = est.covariance(batch)
                tests[f"{name}_layer{batch.layer}"] = (_z(cov.value, cov.std_error), 2)
        return _family(tests)

    def zero_concordance():
        tests = {}
        for ai, act in enumerate((RELU, IDENTITY)):
            for batch in taps((6, ai), 5, (2, 3), act=act):
                tests.update({f"{act.kind}_layer{batch.layer}_{name}": test
                              for name, test in _concordance_tests(batch).items()})
        return _family(tests)

    def copy_signs():
        # the second, independent copy is drawn on the child seed (7, 1)
        copies = [taps(label, 2, (2,))[0] for label in ((7,), (7, 1))]
        center = int(np.argmin(np.abs(z)))
        tests = {}
        for mode in (SUM_OF_COPIES, DIFF_OF_COPIES):
            g = est.delta_grid(combine_copies(*copies, mode), z, z)
            c = g.cell(center, center)
            tests[mode] = (_sign_scores(g), 1)
            tests[f"{mode}_center"] = (-c.value / max(c.std_error, _EPS), 1)
        return _family(tests)

    def rao_blackwell():
        zs = (-0.5, 0.0, 0.5)
        tests = {f"H{h}": (_rb_scores(taps((9, h), h, (2,), norms=True)[0], zs), 2)
                 for h in (2, 5)}
        rb_n, rb_vals, ind_vals = max(2000, n // 5), [], []
        for rep in range(RB_SEEDS):
            batch = taps((9, 0, rep), 2, (2,), count=rb_n, norms=True)[0]
            rb_vals.append(est.rao_blackwell_delta(batch, 0.0, 0.0).value)
            ind_vals.append(est.delta_upper(batch, 0.0, 0.0).value)
        var_rb, var_ind = float(np.var(rb_vals, ddof=1)), float(np.var(ind_vals, ddof=1))
        # the variance comparison is a plain conjunct, outside the false-alarm budget
        ok, det = _family(tests, replication_var_conditional=var_rb,
                          replication_var_indicator=var_ind, replications=RB_SEEDS,
                          replication_n=rb_n)
        return ok and var_rb <= var_ind, det

    def brute_force_match():
        rng = seed.stream(10)
        mismatches = 0
        size_cap = min(2000, max(2, n))
        for case in range(200):
            size = int(rng.integers(2, size_cap + 1))
            if case % 2 == 0:
                lo = max(2, size // 5)
                u = rng.integers(0, lo, size).astype(float)
                v = rng.integers(0, lo, size).astype(float)
            else:
                u = rng.standard_normal(size)
                v = rng.standard_normal(size)
            mismatches += int(est.kendall_tau_arrays(u, v).value != exact.brute_force_tau(u, v))
        return mismatches == 0, {"mismatches": mismatches}

    def width_trend():
        m = {h: base[(2, h)].summary.mean_abs for h in (2, 5, 10)}
        se = {h: mean_abs_std_error(base[(2, h)].grid) for h in (2, 5, 10)}
        gap_25, gap_510 = m[2] - m[5], m[5] - m[10]
        ok = gap_25 > np.hypot(se[2], se[5]) and gap_510 > np.hypot(se[5], se[10])
        return ok, {"mean_abs": m, "gap_2_5": gap_25, "gap_5_10": gap_510, "se": se}

    def depth_trend():
        peaks = {d: base[(d, 2)].summary.peakedness for d in (2, 3, 4)}
        return peaks[3] >= 0.9 * peaks[2] and peaks[4] >= 0.9 * peaks[3], {"peakedness": peaks}

    def pd_floor():
        config = uniform_config(input_dim, 3, 2)
        return _family(_pd_tests(*(sample_layer(config, x, layer, n, seed.child(13, layer),
                                                workers=workers) for layer in (2, 1))))

    def determinism():
        zs, outputs = np.linspace(-1.0, 1.0, 9), []
        for w in (1, 2):
            batch = taps((14,), 2, (2,), count=4000, workers=w)[0]
            grid = est.delta_grid(batch, zs, zs)
            outputs.append({
                "samples": batch.u.tobytes() + batch.v.tobytes(),
                "csv": gridio.grid_csv_text(grid),
                "svg": gridio.heatmap_svg_text(grid),
                "summary": gridio._json_text(summarize(grid)),
            })
        checks = {key: outputs[0][key] == outputs[1][key] for key in outputs[0]}
        return all(checks.values()), {"equal": checks}

    # (cid, title, check[, status on failure]); a failed check fails unless its row says
    table = (
        (1, "quadrant sign structure over all depth/width grids", sign_structure),
        (2, "first-layer grids and concordance are null", first_layer_null),
        (3, "origin value matches dead-layer closed form", lambda: _family(origin(1.0, 3))),
        (4, "origin check is invariant to the weight scale",
         lambda: _family({f"sigma0={s}_{k}": test for i, s in enumerate((0.1, 10.0))
                          for k, test in origin(s, 40 + i).items()})),
        (5, "zero covariance between units at every layer", zero_covariance),
        (6, "zero concordance beyond the first layer", zero_concordance),
        (7, "independent-copy sum/diff grids obey the sign rule", copy_signs),
        (8, "estimators on the enumerated law equal exact enumeration", _enumeration_match),
        (9, "conditional-expectation estimator agrees with smaller variance", rao_blackwell),
        (10, "fast concordance equals brute force bitwise on 200 batches", brute_force_match),
        (11, "dependence decreases with width at depth 2", width_trend),
        # soft: deeper nets concentrate dependence at the center, or warn
        (12, "peakedness non-decreasing with depth at width 2 (soft)", depth_trend, "warn"),
        (13, "positive-dependence profile bounded away from zero", pd_floor),
        (14, "outputs are byte-identical across worker counts", determinism),
    )
    results = []
    for cid, title, check, *on_fail in table:
        ok, details = check()
        status = "pass" if ok else on_fail[0] if on_fail else "fail"
        results.append(CriterionResult(cid, title, status, details))
    return AcceptanceReport(master_seed, n, results)

