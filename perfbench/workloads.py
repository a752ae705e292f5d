"""The benchmark's three workloads: set-up, timed phase and output checks.

Each workload receives only a master seed generated from the benchmark's
own ``--seed``; sizes are fixed here, never chosen per seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

from bnndep import cli, estimators, exact, experiments, gridio, network, sampling

WORKERS = 2
INPUT_DIM = 100

# Family-wise false-alarm rate of the sign-rule check over all grid cells it
# tests in one pass.  bnndep's own rule flags any cell beyond 3 SE with no
# multiplicity correction; over 9 x 1681 cells, near-null cells along a
# z = 0 axis at width 10 cross that line at a few percent of seeds, so its
# counts are recorded as findings rather than failing the run.
SIGN_RULE_ALPHA = 1e-3

# Blocks of the estimate workload's pre batch behind the batch-means SE of
# its tau and rho null checks (see Estimate.check).
NULL_BLOCKS = 100


@dataclass(frozen=True)
class Sizes:
    """Sample counts; the defaults are the benchmark, smaller ones are for tests."""

    sweep_n: int = 100_000
    estimate_n: int = 1_000_000
    selftest_n: int = 20_000
    speedup_n: int = 100_000


@dataclass
class Checks:
    """Output checks of one run; ``fail_rate`` is failed / attempted.

    ``findings`` holds bnndep's own statistical verdicts that are reported
    but not checked (see ``check_sign_rule``).
    """

    attempted: int = 0
    failed: list[str] = field(default_factory=list)
    findings: dict = field(default_factory=dict)

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(label)


def _within(value: float, target: float, se: float, k: float = 4.0) -> bool:
    return abs(value - target) <= k * se


def sign_rule_threshold(cells: int) -> float:
    """SE multiple that ``cells`` null cells all stay under with probability >= 1 - alpha.

    One-sided Bonferroni bound at alpha = SIGN_RULE_ALPHA, under the normal
    approximation.
    """
    return NormalDist().inv_cdf(1.0 - SIGN_RULE_ALPHA / cells)


def wrong_signed_cells(grid: estimators.DeltaGrid, k: float) -> int:
    """Cells more than ``k`` SE on the side that bnndep's quadrant-sign rule forbids."""
    sign = np.array([[experiments.theoretical_sign(a, b) for b in grid.z2_values]
                     for a in grid.z1_values])
    wrong = -sign * grid.value
    return int(np.count_nonzero((wrong > 0) & (wrong > k * grid.std_error)))


def check_sign_rule(label: str, grids: dict, counts: dict, checks: Checks) -> None:
    """bnndep's quadrant-sign rule over ``grids``, checked at a family-wise level.

    ``counts`` are bnndep's own per-grid counts of cells beyond 3 SE.  They
    must match the grids; a non-zero one is recorded as a finding, and only
    a cell beyond the family-wise threshold fails the check.
    """
    checks.check(f"{label} sign-violation counts match the grids",
                 counts == {c: experiments.quadrant_sign_violations(g) for c, g in grids.items()})
    k = sign_rule_threshold(sum(g.value.size for g in grids.values()))
    for c, g in grids.items():
        checks.check(f"{label} {c} no cell wrong-signed beyond {k:.2f} SE",
                     wrong_signed_cells(g, k) == 0)
    flagged = {c: n for c, n in counts.items() if n}
    if flagged:
        checks.findings[f"{label}: cells beyond 3 SE by bnndep's rule"] = flagged


def block_se(estimate, u: np.ndarray, v: np.ndarray) -> float:
    """Batch-means SE of ``estimate(u, v).value``: its spread over NULL_BLOCKS equal blocks."""
    values = [estimate(a, b).value
              for a, b in zip(np.array_split(u, NULL_BLOCKS), np.array_split(v, NULL_BLOCKS))]
    return float(np.std(values, ddof=1) / np.sqrt(NULL_BLOCKS))


class Sweep:
    """``bnndep sweep`` at its defaults through ``cli.main``, writing CSV, SVG and JSON."""

    name = "sweep"

    def __init__(self, sizes: Sizes, scratch: Path):
        self.n = sizes.sweep_n
        self.scratch = scratch

    def setup(self, master_seed: int) -> dict:
        sampling.generate_input(INPUT_DIM, sampling.SeedSpec(master_seed))
        return {"seed": master_seed}

    def run(self, inputs: dict, tracer) -> dict:
        out = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.scratch))
        argv = ["sweep", "--seed", str(inputs["seed"]), "--n", str(self.n),
                "--workers", str(WORKERS), "--out", str(out)]
        with tracer.operation("sweep"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return {"code": code, "out": out}

    def check(self, inputs: dict, outputs: dict, checks: Checks) -> None:
        out = outputs["out"]
        try:
            checks.check("sweep exit code 0", outputs["code"] == 0)
            summary = json.loads((out / "summary.json").read_text())
            cells = [f"L{d}H{w}" for d in (2, 3, 4) for w in (2, 5, 10)]
            written = {p.name for p in out.iterdir()}
            expected = ({f"grid_{c}.csv" for c in cells} | {f"heatmap_{c}.svg" for c in cells}
                        | {"summary.json"})
            checks.check("sweep wrote every grid, heatmap and summary", written == expected)
            grids = {}
            for cell in cells:
                text = (out / f"grid_{cell}.csv").read_text()
                grid = grids[cell] = gridio.read_grid_csv(out / f"grid_{cell}.csv")
                checks.check(f"{cell} CSV re-parses bit-exactly",
                             gridio.grid_csv_text(grid) == text)
                a = int(np.argmin(np.abs(grid.z1_values)))
                b = int(np.argmin(np.abs(grid.z2_values)))
                center = grid.cell(a, b)
                if cell.startswith("L2"):
                    width = int(cell[3:])
                    checks.check(f"{cell} centre within 4 SE of the dead-layer closed form",
                                 _within(center.value, float(exact.analytic_delta_zero(width)),
                                         center.std_error))
            check_sign_rule("sweep", grids,
                            {c: summary[c]["quadrant_sign_violations"] for c in cells}, checks)
        finally:
            shutil.rmtree(out)


@dataclass
class _Batches:
    pre: sampling.SampleBatch
    post: sampling.SampleBatch
    layer: np.ndarray
    z: np.ndarray
    points: np.ndarray
    pd_z: np.ndarray
    null_se: dict = field(default_factory=dict)


class Estimate:
    """Estimator-bound: fixed batches drawn in set-up, every estimator timed on them."""

    name = "estimate"

    def __init__(self, sizes: Sizes, scratch: Path):
        self.n = sizes.estimate_n

    def setup(self, master_seed: int) -> _Batches:
        seed = sampling.SeedSpec(master_seed)
        x = sampling.generate_input(INPUT_DIM, seed)
        pre = sampling.sample_units(
            network.uniform_config(INPUT_DIM, 2, 2), x, 2, (0, 1), "pre", self.n,
            seed.child(1), want_norms=True, workers=WORKERS)
        # ReLU copy of the same draws: about half of each unit is tied at exactly 0
        post = sampling.SampleBatch(network.RELU(pre.u), network.RELU(pre.v), pre.layer,
                                    "post", pre.prior, pre.prev_norms)
        layer = sampling.sample_layer(network.uniform_config(INPUT_DIM, 3, 2), x, 2,
                                      self.n // 2, seed.child(2), workers=WORKERS)
        z = experiments.GridRange().values()
        lo, hi = np.quantile(layer[:, -1], [0.01, 0.99])
        # every tenth 41-grid value is linspace(-1, 1, 5), taken from the grid
        # itself so scalar estimates can be compared with grid cells bitwise
        return _Batches(pre, post, layer, z, z[::10], np.linspace(lo, hi, 21))

    def run(self, b: _Batches, tracer) -> dict:
        out: dict = {}
        with tracer.operation("delta_grid"):
            out["grid_upper"] = estimators.delta_grid(b.pre, b.z, b.z, tail="upper")
            out["grid_lower"] = estimators.delta_grid(b.pre, b.z, b.z, tail="lower")
            out["grid_post"] = estimators.delta_grid(b.post, b.z, b.z, tail="upper")
        with tracer.operation("covariance"):
            out["cov"] = estimators.covariance(b.pre)
        with tracer.operation("concordance"):
            out["tau_pre"] = estimators.kendall_tau(b.pre)
            out["rho_pre"] = estimators.spearman_rho(b.pre)
            out["tau_post"] = estimators.kendall_tau(b.post)
            out["rho_post"] = estimators.spearman_rho(b.post)
        with tracer.operation("rao_blackwell"):
            out["rb"] = {(i, j): estimators.rao_blackwell_delta(b.pre, z1, z2)
                         for i, z1 in enumerate(b.points) for j, z2 in enumerate(b.points)}
        with tracer.operation("scalar_delta"):
            out["upper"] = {(i, j): estimators.delta_upper(b.pre, z1, z2)
                            for i, z1 in enumerate(b.points) for j, z2 in enumerate(b.points)}
            out["lower"] = {(i, j): estimators.delta_lower(b.pre, z1, z2)
                            for i, z1 in enumerate(b.points) for j, z2 in enumerate(b.points)}
        with tracer.operation("pd_profile"):
            out["pd"] = estimators.pd_profile(b.layer, b.pd_z)
        return out

    def check(self, b: _Batches, out: dict, checks: Checks) -> None:
        e = out["cov"]
        checks.check("cov within 4 SE of 0", _within(e.value, 0.0, e.std_error))
        # bnndep's tau and rho SEs are those of independent units.  These units
        # are uncorrelated but dependent through the shared previous-layer
        # norm, and their tau and rho spread wider than those SEs say, so the
        # null checks use a batch-means SE and bnndep's own z-scores beyond 4
        # are recorded as findings.
        if not b.null_se:
            b.null_se["tau_pre"] = block_se(estimators.kendall_tau_arrays, b.pre.u, b.pre.v)
            b.null_se["rho_pre"] = block_se(estimators.spearman_rho_arrays, b.pre.u, b.pre.v)
        for key, se in b.null_se.items():
            e = out[key]
            checks.check(f"{key} within 4 batch-means SE of 0", _within(e.value, 0.0, se))
            if not _within(e.value, 0.0, e.std_error):
                checks.findings[f"{key} z-score by bnndep's SE"] = e.value / e.std_error
        for (i, j), rb in out["rb"].items():
            ind = out["upper"][(i, j)]
            bound = 4.0 * np.hypot(rb.std_error, ind.std_error)
            checks.check(f"RB vs indicator at {(i, j)}", abs(rb.value - ind.value) <= bound)
        for tail in ("upper", "lower"):
            grid = out[f"grid_{tail}"]
            for (i, j), e in out[tail].items():
                checks.check(f"{tail} grid cell equals scalar at {(i, j)}",
                             grid.cell(10 * i, 10 * j) == e)
        for side, cells in (("right", out["pd"].right_tail), ("left", out["pd"].left_tail)):
            for k, c in enumerate(cells):
                checks.check(f"pd {side} cell {k} lower bound > 0",
                             c is not None and c.value - 4.0 * c.std_error > 0.0)


class Selftest:
    """The acceptance suite at reduced n; the only workload that runs ``exact``."""

    name = "selftest"

    def __init__(self, sizes: Sizes, scratch: Path):
        self.n = sizes.selftest_n

    def setup(self, master_seed: int) -> dict:
        sampling.generate_input(INPUT_DIM, sampling.SeedSpec(master_seed))
        return {"seed": master_seed}

    def run(self, inputs: dict, tracer) -> experiments.AcceptanceReport:
        with tracer.operation("selftest"):
            return experiments.acceptance_suite(master_seed=inputs["seed"], n=self.n,
                                                workers=WORKERS)

    def check(self, inputs: dict, report: experiments.AcceptanceReport, checks: Checks) -> None:
        for r in report.results:
            if r.cid == 1:
                self._check_criterion_1(inputs, r, checks)
            else:
                # a soft criterion reports "warn"; only "fail" counts against it
                checks.check(f"criterion {r.cid} ({r.status})", r.status != "fail")

    def _check_criterion_1(self, inputs: dict, result: experiments.CriterionResult,
                           checks: Checks) -> None:
        """Criterion 1's sign rule, at a family-wise level, on the suite's own sweep.

        That sweep is deterministic in the master seed, so it is re-run here,
        outside the timed phase, once per benchmark run.
        """
        if "base" not in inputs:
            inputs["base"] = experiments.run_sweep(experiments.SweepSpec(
                input_dim=INPUT_DIM, n=self.n, grid=experiments.GridRange(-1.0, 1.0, 41),
                master_seed=inputs["seed"], workers=WORKERS))
        grids = {f"L{d}H{h}": cell.grid for (d, h), cell in inputs["base"].items()}
        check_sign_rule("criterion 1", grids, result.details["violations"], checks)


WORKLOADS = {w.name: w for w in (Sweep, Estimate, Selftest)}


def sampler_speedup(master_seed: int, n: int, rounds: int = 3) -> float:
    """Best wall time of the L2H10 sweep cell at one worker over that at WORKERS.

    The two worker counts alternate for ``rounds`` rounds, so a slow spell of
    a shared machine does not land on one side only.
    """
    seed = sampling.SeedSpec(master_seed)
    config = network.uniform_config(INPUT_DIM, 10, 2)
    x = sampling.generate_input(INPUT_DIM, seed)
    best = {1: float("inf"), WORKERS: float("inf")}
    for _ in range(rounds):
        for workers in best:
            t0 = time.perf_counter()
            sampling.sample_units(config, x, 2, (0, 1), "pre", n, seed.child(0, 2),
                                  workers=workers)
            best[workers] = min(best[workers], time.perf_counter() - t0)
    return best[1] / best[WORKERS]
