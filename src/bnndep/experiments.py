"""Width/depth sweeps, grid summaries, and the acceptance suite.

``run_sweep`` reproduces the sampling protocol at configurable scale: one
fixed Gaussian input, per-(depth, width) prior sampling of the last hidden
layer's first two pre-activations, and an exceedance-difference grid per
cell.  ``acceptance_suite`` executes every acceptance criterion and returns
a machine-readable, byte-deterministic report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import ndtri

from . import estimators as est
from . import exact
from .network import IDENTITY, RELU, Activation, PriorSpec, _finite, uniform_config
from .sampling import (
    SampleBatch,
    SeedSpec,
    generate_input,
    sample_layer,
    sample_replicas,
    sample_units,
)

_EPS = 1e-12

# Family-wise false-alarm rate of a null test over all cells of its grids,
# fixed in advance rather than tuned to data; perfbench's sign-rule check
# uses the same rate.
GRID_NULL_ALPHA = 1e-3
# Equal blocks behind the batch-means SE of the zero-concordance test.
NULL_BLOCKS = 100


@dataclass(frozen=True)
class GridRange:
    lo: float = -1.0
    hi: float = 1.0
    steps: int = 41

    def values(self) -> np.ndarray:
        if self.steps < 2:
            raise ValueError("grid needs at least 2 steps")
        if not (_finite(self.lo, self.hi) and self.lo < self.hi):
            raise ValueError(f"grid needs finite lo < hi, got lo={self.lo}, hi={self.hi}")
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


def quadrant_sign_violations(grid: est.DeltaGrid) -> int:
    """Cells whose estimate is significantly on the wrong side of zero."""
    wrong = theoretical_sign(grid.z1_values[:, None], grid.z2_values[None, :]) * grid.value < 0
    significant = np.abs(grid.value) > 3.0 * grid.std_error
    return int(np.count_nonzero(wrong & significant))


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
    """Grid plus summary for every (depth, width) combination.

    Fully deterministic given the master seed; the input vector is drawn
    once and shared by every cell, while weight streams are namespaced per
    cell so cells are statistically independent.
    """
    seed = SeedSpec(spec.master_seed)
    x = generate_input(spec.input_dim, seed)
    z = spec.grid.values()
    out: dict[tuple[int, int], SweepCell] = {}
    for li, depth in enumerate(spec.depths):
        for hi, width in enumerate(spec.widths):
            config = uniform_config(spec.input_dim, width, depth, spec.activation, spec.prior)
            batch = sample_units(
                config, x, depth, spec.unit_pair, spec.tap, spec.n,
                seed.child(li, hi), workers=spec.workers,
            )
            grid = est.delta_grid(batch, z, z)
            out[(depth, width)] = SweepCell(grid, summarize(grid))
    return out


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
        doc = {
            "master_seed": self.master_seed,
            "n": self.n,
            "passed": self.passed,
            "criteria": [
                {"id": r.cid, "title": r.title, "status": r.status, "details": r.details}
                for r in self.results
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _py(value):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_py(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_py(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _py(v) for k, v in value.items()}
    return value


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def _within(value: float, std_error: float, target: float = 0.0) -> bool:
    """The 4-SE agreement test that most criteria apply."""
    return abs(value - target) <= 4.0 * std_error


def _grid_null(grids: list[est.DeltaGrid]) -> tuple[bool, dict]:
    """Every cell within the two-sided Bonferroni bound at GRID_NULL_ALPHA over all cells."""
    threshold = float(ndtri(1.0 - GRID_NULL_ALPHA / (2 * sum(g.value.size for g in grids))))
    max_ratio = max(float((np.abs(g.value) / np.maximum(g.std_error, _EPS)).max())
                    for g in grids)
    return max_ratio <= threshold, {"max_cell_ratio": max_ratio, "cell_threshold": threshold}


def _concordance_null(batch: SampleBatch) -> tuple[bool, dict]:
    """Tau and rho within 4 batch-means SEs of zero.

    The batch-means SE is the statistic's spread over NULL_BLOCKS equal blocks
    over sqrt(NULL_BLOCKS).  Unlike the estimators' SEs, which hold only for
    independent units, it also holds for uncorrelated but dependent ones.
    """
    ok, detail = True, {}
    for name, estimate in (("tau", est.kendall_tau_arrays), ("rho", est.spearman_rho_arrays)):
        blocks = zip(np.array_split(batch.u, NULL_BLOCKS), np.array_split(batch.v, NULL_BLOCKS))
        spread = np.std([estimate(a, b).value for a, b in blocks], ddof=1)
        se = float(spread / np.sqrt(NULL_BLOCKS))
        value = estimate(batch.u, batch.v).value
        ok = ok and _within(value, se)
        detail.update({name: value, f"{name}_bound": 4 * se})
    return ok, detail


_ORIGIN_TARGETS = {h: exact.analytic_delta_zero(h) for h in (2, 5, 10)}


def acceptance_suite(
    master_seed: int = 42,
    n: int = 100_000,
    big_n: Optional[int] = None,
    rb_n: Optional[int] = None,
    rb_seeds: int = 30,
    input_dim: int = 100,
    grid_steps: int = 41,
    workers: int = 1,
) -> AcceptanceReport:
    """Run every acceptance criterion and collect a deterministic report.

    ``big_n`` (default 10n) drives the width-10 origin check, whose target
    is small enough to rival the standard error at the base sample count;
    ``rb_n`` and ``rb_seeds`` size the repeated-seed variance comparison.
    """
    if big_n is None:
        big_n = 10 * n
    if rb_n is None:
        rb_n = max(2000, n // 5)
    seed = SeedSpec(master_seed)
    x = generate_input(input_dim, seed)
    grid = GridRange(-1.0, 1.0, grid_steps)
    z = grid.values()
    results: list[CriterionResult] = []

    base = run_sweep(SweepSpec(
        input_dim=input_dim, n=n, grid=grid, master_seed=master_seed, workers=workers,
    ))

    # 1: significantly wrong-signed cells must not exist in any grid
    violations = {f"L{d}H{h}": cell.summary.quadrant_sign_violations
                  for (d, h), cell in base.items()}
    results.append(CriterionResult(
        1, "quadrant sign structure over all depth/width grids",
        _status(all(c == 0 for c in violations.values())),
        _py({"violations": violations}),
    ))

    # 2: first-layer units are independent: grid null plus concordance nulls
    l1 = run_sweep(SweepSpec(
        depths=(1,), input_dim=input_dim, n=n, grid=grid,
        master_seed=master_seed, workers=workers,
    ))
    ok2, det2 = _grid_null([cell.grid for cell in l1.values()])
    config_l1 = uniform_config(input_dim, 5, 1)
    batch_l1 = sample_units(config_l1, x, 1, (0, 1), "pre", n, seed.child(2), workers=workers)
    tau = est.kendall_tau(batch_l1)
    rho = est.spearman_rho(batch_l1)
    # layer-1 units are independent, so the estimators' null SEs hold here
    ok2 = ok2 and _within(tau.value, tau.std_error) and _within(rho.value, rho.std_error)
    det2.update({"tau": tau.value, "tau_bound": 4 * tau.std_error,
                 "rho": rho.value, "rho_bound": 4 * rho.std_error})
    results.append(CriterionResult(
        2, "first-layer grids and concordance are null", _status(ok2), _py(det2)))

    # 3-4: origin value matches the dead-layer closed form, at three scales
    def origin_check(sigma0: float, label: int) -> tuple[bool, dict]:
        prior = PriorSpec(sigma0=sigma0)
        ok = True
        detail = {}
        for h in (2, 5, 10):
            count = big_n if h == 10 else n
            config = uniform_config(input_dim, h, 2, RELU, prior)
            batch = sample_units(config, x, 2, (0, 1), "pre", count,
                                 seed.child(label, h), workers=workers)
            e = est.delta_upper(batch, 0.0, 0.0)
            target = float(_ORIGIN_TARGETS[h])
            ok = ok and _within(e.value, e.std_error, target)
            detail[f"H{h}"] = {"estimate": e.value, "target": target,
                               "tolerance": 4.0 * e.std_error, "n": e.n}
        return ok, detail

    ok3, det3 = origin_check(1.0, 3)
    results.append(CriterionResult(
        3, "origin value matches dead-layer closed form", _status(ok3), _py(det3)))

    det4 = {}
    ok4 = True
    for idx, sigma0 in enumerate((0.1, 10.0)):
        ok_s, det_s = origin_check(sigma0, 40 + idx)
        ok4 = ok4 and ok_s
        det4[f"sigma0={sigma0}"] = det_s
    results.append(CriterionResult(
        4, "origin check is invariant to the weight scale", _status(ok4), _py(det4)))

    # 5: uncorrelated units under both independent and within-column-correlated priors
    det5 = {}
    ok5 = True
    priors5 = {"iid": PriorSpec(),
               "equicorrelated": PriorSpec(family="equicorrelated", rho=0.5)}
    for pi, (pname, prior) in enumerate(priors5.items()):
        config = uniform_config(input_dim, 5, 3, RELU, prior)
        for layer in (1, 2, 3):
            batch = sample_units(config, x, layer, (0, 1), "pre", n,
                                 seed.child(5, pi, layer), workers=workers)
            cov = est.covariance(batch)
            ok5 = ok5 and _within(cov.value, cov.std_error)
            det5[f"{pname}_layer{layer}"] = {"cov": cov.value, "bound": 4 * cov.std_error}
    results.append(CriterionResult(
        5, "zero covariance between units at every layer", _status(ok5), _py(det5)))

    # 6: zero concordance beyond layer 1 for two activations
    det6 = {}
    ok6 = True
    for ai, act in enumerate((RELU, IDENTITY)):
        config = uniform_config(input_dim, 5, 3, act)
        for layer in (2, 3):
            batch = sample_units(config, x, layer, (0, 1), "pre", n,
                                 seed.child(6, ai, layer), workers=workers)
            ok, det6[f"{act.kind}_layer{layer}"] = _concordance_null(batch)
            ok6 = ok6 and ok
    results.append(CriterionResult(
        6, "zero concordance beyond the first layer", _status(ok6), _py(det6)))

    # 7: sums and differences of independent copies obey the same sign rule
    config7 = uniform_config(input_dim, 2, 2)
    replicas = sample_replicas(config7, x, 2, (0, 1), "pre", n, seed.child(7), workers=workers)
    det7 = {}
    ok7 = True
    center = int(np.argmin(np.abs(z)))
    for mode in (est.SUM_OF_COPIES, est.DIFF_OF_COPIES):
        g = est.delta_grid(replicas, z, z, combo=mode)
        viol = quadrant_sign_violations(g)
        c = g.cell(center, center)
        ok7 = ok7 and viol == 0 and c.value >= -4.0 * c.std_error
        det7[mode] = {"violations": viol, "center": c.value, "center_se": c.std_error}
    results.append(CriterionResult(
        7, "independent-copy sum/diff grids obey the sign rule", _status(ok7), _py(det7)))

    # 8: Monte Carlo pipeline reproduces exact enumeration on the toy net
    toy = exact.toy_relu_net()
    mc = exact.sample_discrete_net(toy, 2, (0, 1), "pre", n, seed.child(8))
    det8 = {}
    ok8 = True
    for z1, z2 in ((0.0, 0.0), (0.5, 0.5), (0.5, -0.5)):
        ex = float(exact.enumerate_exact_delta(toy, 2, (0, 1), z1, z2))
        e = est.delta_upper(mc, z1, z2)
        ok8 = ok8 and _within(e.value, e.std_error, ex)
        det8[f"z=({z1},{z2})"] = {"exact": ex, "estimate": e.value,
                                  "tolerance": 4.0 * e.std_error}
    results.append(CriterionResult(
        8, "sampler and estimators match exact enumeration", _status(ok8), _py(det8)))

    # 9: conditional-expectation estimator agrees and has smaller variance
    det9 = {}
    ok9 = True
    points = [(z1, z2) for z1 in (-0.5, 0.0, 0.5) for z2 in (-0.5, 0.0, 0.5)]
    for h in (2, 5):
        config = uniform_config(input_dim, h, 2)
        batch = sample_units(config, x, 2, (0, 1), "pre", n, seed.child(9, h),
                             want_norms=True, workers=workers)
        worst = 0.0
        for z1, z2 in points:
            rb = est.rao_blackwell_delta(batch, z1, z2)
            ind = est.delta_upper(batch, z1, z2)
            bound = 4.0 * np.sqrt(rb.std_error**2 + ind.std_error**2)
            gap = abs(rb.value - ind.value)
            ok9 = ok9 and gap <= bound
            worst = max(worst, gap / max(bound, _EPS))
        det9[f"H{h}_worst_gap_fraction"] = worst
    rb_vals, ind_vals = [], []
    config_rb = uniform_config(input_dim, 2, 2)
    for rep in range(rb_seeds):
        batch = sample_units(config_rb, x, 2, (0, 1), "pre", rb_n,
                             seed.child(9, 0, rep), want_norms=True, workers=workers)
        rb_vals.append(est.rao_blackwell_delta(batch, 0.0, 0.0).value)
        ind_vals.append(est.delta_upper(batch, 0.0, 0.0).value)
    var_rb = float(np.var(rb_vals, ddof=1))
    var_ind = float(np.var(ind_vals, ddof=1))
    ok9 = ok9 and var_rb <= var_ind
    det9.update({"replication_var_conditional": var_rb,
                 "replication_var_indicator": var_ind,
                 "replications": rb_seeds, "replication_n": rb_n})
    results.append(CriterionResult(
        9, "conditional-expectation estimator agrees with smaller variance",
        _status(ok9), _py(det9)))

    # 10: fast concordance count equals brute force bitwise
    rng10 = np.random.default_rng(master_seed)
    mismatches = 0
    size_cap = min(2000, max(2, n))
    for case in range(200):
        size = int(rng10.integers(2, size_cap + 1))
        if case % 2 == 0:
            lo = max(2, size // 5)
            u = rng10.integers(0, lo, size).astype(float)
            v = rng10.integers(0, lo, size).astype(float)
        else:
            u = rng10.standard_normal(size)
            v = rng10.standard_normal(size)
        fast = est.kendall_tau_arrays(u, v).value
        slow = exact.brute_force_tau(u, v)
        if fast != slow:
            mismatches += 1
    results.append(CriterionResult(
        10, "fast concordance equals brute force bitwise on 200 batches",
        _status(mismatches == 0), _py({"mismatches": mismatches})))

    # 11: wider layers weaken dependence: mean |value| strictly ordered
    m = {h: base[(2, h)].summary.mean_abs for h in (2, 5, 10)}
    se_m = {h: mean_abs_std_error(base[(2, h)].grid) for h in (2, 5, 10)}
    gap_25 = m[2] - m[5]
    gap_510 = m[5] - m[10]
    ok11 = (gap_25 > np.hypot(se_m[2], se_m[5])
            and gap_510 > np.hypot(se_m[5], se_m[10]))
    results.append(CriterionResult(
        11, "dependence decreases with width at depth 2", _status(ok11),
        _py({"mean_abs": m, "gap_2_5": gap_25, "gap_5_10": gap_510,
             "se": se_m})))

    # 12 (soft): deeper nets concentrate dependence at the center
    peaks = {d: base[(d, 2)].summary.peakedness for d in (2, 3, 4)}
    trend_ok = peaks[3] >= 0.9 * peaks[2] and peaks[4] >= 0.9 * peaks[3]
    results.append(CriterionResult(
        12, "peakedness non-decreasing with depth at width 2 (soft)",
        "pass" if trend_ok else "warn", _py({"peakedness": peaks})))

    # 13: positive-dependence profile strictly positive; layer-1 value is 1/4
    config13 = uniform_config(input_dim, 3, 2)
    mat2 = sample_layer(config13, x, 2, n, seed.child(13, 2), workers=workers)
    lo, hi = np.quantile(mat2[:, -1], [0.01, 0.99])
    z13 = np.linspace(lo, hi, 21)
    prof2 = est.pd_profile(mat2, z13)
    ok13 = True
    min_lower_bound = np.inf
    for cells in (prof2.right_tail, prof2.left_tail):
        for c in cells:
            if c is None:
                ok13 = False
                continue
            bound = c.value - 4.0 * c.std_error
            min_lower_bound = min(min_lower_bound, bound)
            ok13 = ok13 and bound > 0.0
    mat1 = sample_layer(config13, x, 1, n, seed.child(13, 1), workers=workers)
    lo1, hi1 = np.quantile(mat1[:, -1], [0.01, 0.99])
    prof1 = est.pd_profile(mat1, np.linspace(lo1, hi1, 21))
    worst1 = 0.0
    for cells in (prof1.right_tail, prof1.left_tail):
        for c in cells:
            if c is None:
                ok13 = False
                continue
            dev = abs(c.value - 0.25) / max(c.std_error, _EPS)
            worst1 = max(worst1, dev)
    ok13 = ok13 and worst1 <= 4.0
    results.append(CriterionResult(
        13, "positive-dependence profile bounded away from zero", _status(ok13),
        _py({"min_lower_bound_layer2": min_lower_bound,
             "empirical_constant_right": prof2.min_right,
             "empirical_constant_left": prof2.min_left,
             "layer1_worst_deviation": worst1})))

    # 14: thread count cannot change a single byte of any output
    results.append(_determinism_criterion(master_seed, input_dim))

    return AcceptanceReport(master_seed, n, results)


def _determinism_criterion(master_seed: int, input_dim: int) -> CriterionResult:
    from . import gridio

    seed = SeedSpec(master_seed)
    x = generate_input(input_dim, seed)
    config = uniform_config(input_dim, 2, 2)
    z = np.linspace(-1.0, 1.0, 9)
    outputs = []
    for workers in (1, 2):
        batch = sample_units(config, x, 2, (0, 1), "pre", 4000, seed.child(14),
                             workers=workers)
        grid = est.delta_grid(batch, z, z)
        outputs.append({
            "samples": batch.u.tobytes() + batch.v.tobytes(),
            "csv": gridio.grid_csv_text(grid),
            "svg": gridio.heatmap_svg_text(grid),
            "summary": json.dumps(_py(summarize(grid).__dict__), sort_keys=True),
        })
    checks = {key: outputs[0][key] == outputs[1][key] for key in outputs[0]}
    return CriterionResult(
        14, "outputs are byte-identical across worker counts",
        _status(all(checks.values())), _py({"equal": checks}))
