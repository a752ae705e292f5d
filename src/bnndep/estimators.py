"""Dependence estimators with standard errors.

Every estimator is a pure function of an immutable sample batch.  Standard
errors come from closed-form influence functions (O(n)); a seeded bootstrap
is available for validation.  Tail events use weak inequalities (>=, <=)
throughout: with ReLU taps the value 0 carries real probability mass, so
the choice is semantically load-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.special import ndtr, stdtr
from scipy.stats import rankdata

from .network import GAUSSIAN_EQUICORRELATED, GAUSSIAN_IID, STUDENT_T, PriorSpec, _finite
from .sampling import ReplicaBatch, SampleBatch

UPPER = "upper"
LOWER = "lower"

SINGLE = "single"
SUM_OF_COPIES = "sum"
DIFF_OF_COPIES = "diff"


@dataclass(frozen=True)
class EstimateWithError:
    """Scalar estimate, its standard error, and the sample count behind it."""

    value: float
    std_error: float
    n: int


@dataclass
class DeltaGrid:
    """Joint-minus-product exceedance differences over a threshold grid.

    ``value[a, b]`` estimates the difference between the joint probability
    that the two units exceed (z1_values[a], z2_values[b]) and the product
    of the marginal exceedance probabilities; ``lower`` tail replaces
    exceedance with the complementary <= events.
    """

    z1_values: np.ndarray
    z2_values: np.ndarray
    value: np.ndarray       # (len(z1), len(z2))
    std_error: np.ndarray
    n: int
    tail: str = UPPER
    combo: str = SINGLE

    def cell(self, a: int, b: int) -> EstimateWithError:
        return EstimateWithError(float(self.value[a, b]), float(self.std_error[a, b]), self.n)


@dataclass
class PdProfile:
    """Conditional all-same-sign probabilities along a threshold sweep.

    ``right_tail[i]`` estimates P(X_1 >= 0, ..., X_{N-1} >= 0 | X_N >= z_i);
    the left tail uses <= throughout.  Cells whose conditioning event holds
    for no sample are None rather than zero.  ``min_right``/``min_left`` are
    the smallest available estimates, the empirical positive-dependence
    constant.
    """

    z_values: np.ndarray
    right_tail: list[Optional[EstimateWithError]]
    left_tail: list[Optional[EstimateWithError]]
    min_right: Optional[float]
    min_left: Optional[float]


# ---------------------------------------------------------------------------
# Exceedance-difference estimators
# ---------------------------------------------------------------------------

def _delta_from_counts(c11, c1, c2, n: int):
    """Estimate and influence-function SE from exceedance counts.

    Both the scalar estimators and the grid evaluator reduce to integer
    counts and call this one function, which keeps the two paths bitwise
    identical.  The SE is the ddof-1 standard deviation of the influence
    values, available in closed form because all indicator cross-products
    collapse (I1*I2 = I11).
    """
    nf = np.float64(n)
    p11 = np.asarray(c11, dtype=np.float64) / nf
    p1 = np.asarray(c1, dtype=np.float64) / nf
    p2 = np.asarray(c2, dtype=np.float64) / nf
    # grouped through p1*p2 and p1+p2 so exchanging the units is bit-exact
    prod = p1 * p2
    tot = p1 + p2
    value = p11 - prod
    mean_sq = p11 + prod * tot - 2.0 * tot * p11 + 2.0 * prod * p11
    mean = p11 - 2.0 * prod
    var_pop = mean_sq - mean * mean
    var = np.maximum(var_pop, 0.0) * (nf / (nf - 1.0))
    se = np.sqrt(var / nf)
    return value, se


def _delta_xy(u: np.ndarray, v: np.ndarray, z1: float, z2: float, tail: str) -> EstimateWithError:
    n = u.shape[0]
    if n < 2:
        raise ValueError("exceedance-difference estimation needs n >= 2")
    if not _finite(u, v, z1, z2):
        raise ValueError("samples and thresholds must be finite")
    if tail == UPPER:
        m1, m2 = u >= z1, v >= z2
    elif tail == LOWER:
        m1, m2 = u <= z1, v <= z2
    else:
        raise ValueError(f"tail must be 'upper' or 'lower', got {tail!r}")
    c11 = int(np.count_nonzero(m1 & m2))
    c1 = int(np.count_nonzero(m1))
    c2 = int(np.count_nonzero(m2))
    value, se = _delta_from_counts(c11, c1, c2, n)
    return EstimateWithError(float(value), float(se), n)


def delta_upper(batch: SampleBatch, z1: float, z2: float) -> EstimateWithError:
    """Plug-in estimate of P(u >= z1, v >= z2) - P(u >= z1) P(v >= z2)."""
    return _delta_xy(batch.u, batch.v, z1, z2, UPPER)


def delta_lower(batch: SampleBatch, z1: float, z2: float) -> EstimateWithError:
    """Lower-tail analogue of :func:`delta_upper`, with both events <=."""
    return _delta_xy(batch.u, batch.v, z1, z2, LOWER)


def _combo_arrays(replicas: ReplicaBatch, mode: str) -> tuple[np.ndarray, np.ndarray]:
    if mode == SUM_OF_COPIES:
        return replicas.u1 + replicas.u2, replicas.v1 + replicas.v2
    if mode == DIFF_OF_COPIES:
        return replicas.u1 - replicas.u2, replicas.v1 - replicas.v2
    raise ValueError(f"mode must be 'sum' or 'diff', got {mode!r}")


def delta_combo(replicas: ReplicaBatch, z1: float, z2: float, mode: str) -> EstimateWithError:
    """Exceedance difference for sums or differences of independent copies."""
    cu, cv = _combo_arrays(replicas, mode)
    return _delta_xy(cu, cv, z1, z2, UPPER)


def delta_grid(
    batch: Union[SampleBatch, ReplicaBatch],
    z1_values: Sequence[float],
    z2_values: Sequence[float],
    tail: str = UPPER,
    combo: str = SINGLE,
) -> DeltaGrid:
    """Evaluate the exceedance difference on a full threshold grid.

    One sorted pass over the samples feeds a 2-D threshold histogram whose
    cumulative sums give every cell's joint and marginal counts, making a
    G x G grid O(n log n + G^2) instead of O(G^2 n).  Each cell equals the
    corresponding scalar estimator exactly.
    """
    z1 = np.asarray(z1_values, dtype=np.float64)
    z2 = np.asarray(z2_values, dtype=np.float64)
    if z1.size == 0 or z2.size == 0:
        raise ValueError("threshold grids must be non-empty")
    if np.any(np.diff(z1) <= 0) or np.any(np.diff(z2) <= 0):
        raise ValueError("threshold grids must be strictly increasing")
    if combo == SINGLE:
        if not isinstance(batch, SampleBatch):
            raise ValueError("combo 'single' needs a SampleBatch")
        u, v = batch.u, batch.v
    else:
        if not isinstance(batch, ReplicaBatch):
            raise ValueError(f"combo {combo!r} needs a ReplicaBatch")
        u, v = _combo_arrays(batch, combo)
    n = u.shape[0]
    if n < 2:
        raise ValueError("exceedance-difference estimation needs n >= 2")
    if not _finite(u, v, z1, z2):
        raise ValueError("samples and thresholds must be finite")
    if tail not in (UPPER, LOWER):
        raise ValueError(f"tail must be 'upper' or 'lower', got {tail!r}")

    g1, g2 = z1.size, z2.size
    # bin each sample by the thresholds below it (at or below it for the upper
    # tail); prefix sums then count u <= z1[a] (lower) or u < z1[a] (upper)
    side = "left" if tail == LOWER else "right"
    ai = np.searchsorted(z1, u, side=side)
    bi = np.searchsorted(z2, v, side=side)
    hist = np.bincount(ai * (g2 + 1) + bi, minlength=(g1 + 1) * (g2 + 1))
    pre = hist.reshape(g1 + 1, g2 + 1).cumsum(axis=0).cumsum(axis=1)
    c11, c1, c2 = pre[:g1, :g2], pre[:g1, g2], pre[g1, :g2]
    if tail == UPPER:
        # u >= z1[a] is the complement of u < z1[a]; integer counts keep it exact
        c11 = n - c1[:, None] - c2[None, :] + c11
        c1, c2 = n - c1, n - c2

    value, se = _delta_from_counts(c11, c1[:, None], c2[None, :], n)
    return DeltaGrid(z1, z2, value, se, n, tail, combo)


# ---------------------------------------------------------------------------
# Covariance
# ---------------------------------------------------------------------------

def _cov_with_se(x: np.ndarray, y: np.ndarray) -> EstimateWithError:
    n = x.shape[0]
    if n < 2:
        raise ValueError("covariance estimation needs n >= 2")
    xc = x - x.mean()
    yc = y - y.mean()
    prod = xc * yc
    value = prod.sum() / (n - 1)
    psi = prod - prod.mean()
    se = psi.std(ddof=1) / np.sqrt(n)
    return EstimateWithError(float(value), float(se), n)


def covariance(batch: SampleBatch) -> EstimateWithError:
    """Unbiased sample covariance of the unit pair, influence-function SE."""
    return _cov_with_se(batch.u, batch.v)


def bootstrap_std_error(
    statistic: Callable[[np.ndarray, np.ndarray], float],
    u: np.ndarray,
    v: np.ndarray,
    resamples: int = 200,
    seed: int = 0,
) -> float:
    """Seeded nonparametric bootstrap SE, for validating the closed forms."""
    rng = np.random.default_rng(seed)
    n = u.shape[0]
    vals = np.empty(resamples)
    for b in range(resamples):
        idx = rng.integers(0, n, n)
        vals[b] = statistic(u[idx], v[idx])
    return float(vals.std(ddof=1))


# ---------------------------------------------------------------------------
# Concordance: Kendall's tau (tau-a) and Spearman's rho
# ---------------------------------------------------------------------------

def _strict_inversions(a: np.ndarray) -> int:
    """Number of pairs i < j with a[i] > a[j], by level-vectorized merging.

    Bottom-up merge sort where every level merges all block pairs at once
    through one stable argsort; stability makes equal values count as
    non-inversions.  Padding with +inf never creates inversions because
    padded left elements are excluded by the <= count and padded right
    elements are masked out.
    """
    n = a.shape[0]
    if n < 2:
        return 0
    size = 1 << (n - 1).bit_length()
    arr = np.full(size, np.inf)
    arr[:n] = a
    total = 0
    width = 1
    while width < size:
        two_w = 2 * width
        blocks = arr.reshape(-1, two_w)
        perm = np.argsort(blocks, axis=1, kind="stable")
        pos = np.empty_like(perm)
        np.put_along_axis(pos, perm, np.broadcast_to(np.arange(two_w), perm.shape), axis=1)
        right_pos = pos[:, width:]
        k = np.arange(width)
        left_le = right_pos - k                       # real left elements <= y
        starts = np.arange(blocks.shape[0]) * two_w
        real_left = np.clip(n - starts, 0, width)[:, None]
        contrib = real_left - left_le
        real_right = (starts[:, None] + width + k) < n
        total += int(contrib[real_right].sum())
        arr = np.take_along_axis(blocks, perm, axis=1).reshape(-1)
        width = two_w
    return total


def _tie_pair_count(*sorted_keys: np.ndarray) -> int:
    """Sum over runs of equal key tuples of C(run, 2); rows sorted by the keys."""
    first = sorted_keys[0]
    if first.shape[0] < 2:
        return 0
    differs = np.zeros(first.shape[0] - 1, dtype=bool)
    for key in sorted_keys:
        differs |= key[1:] != key[:-1]
    edges = np.concatenate(([0], np.flatnonzero(differs) + 1, [first.shape[0]]))
    runs = np.diff(edges)
    return int((runs * (runs - 1) // 2).sum())


def kendall_tau_arrays(u: np.ndarray, v: np.ndarray) -> EstimateWithError:
    """tau-a: (concordant - discordant) / C(n, 2), ties counted as neither.

    O(n log n): after sorting by (u, v), discordant pairs are exactly the
    strict inversions of the v sequence; tie bookkeeping recovers the
    concordant count.  The SE is the classical variance of tau under the
    independence null.
    """
    n = u.shape[0]
    if n < 2:
        raise ValueError("concordance estimation needs n >= 2")
    if not _finite(u, v):
        raise ValueError("concordance estimation needs finite samples")
    order = np.lexsort((v, u))
    us, vs = u[order], v[order]
    discordant = _strict_inversions(vs)
    n0 = n * (n - 1) // 2
    tied_u = _tie_pair_count(us)
    tied_v = _tie_pair_count(np.sort(v))
    tied_both = _tie_pair_count(us, vs)
    numerator = n0 - tied_u - tied_v + tied_both - 2 * discordant
    tau = numerator / n0
    se = np.sqrt(2.0 * (2 * n + 5) / (9.0 * n * (n - 1)))
    return EstimateWithError(tau, float(se), n)


def kendall_tau(batch: SampleBatch) -> EstimateWithError:
    return kendall_tau_arrays(batch.u, batch.v)


def spearman_rho_arrays(u: np.ndarray, v: np.ndarray) -> EstimateWithError:
    """Pearson correlation of mid-ranks; SE under the independence null."""
    n = u.shape[0]
    if n < 2:
        raise ValueError("concordance estimation needs n >= 2")
    if not _finite(u, v):
        raise ValueError("concordance estimation needs finite samples")
    ra = rankdata(u, method="average")
    rb = rankdata(v, method="average")
    ac = ra - ra.mean()
    bc = rb - rb.mean()
    denom = np.sqrt((ac @ ac) * (bc @ bc))
    if denom == 0.0:
        raise ValueError("rank correlation undefined for constant data")
    rho = float(np.clip((ac @ bc) / denom, -1.0, 1.0))
    se = 1.0 / np.sqrt(n - 1)
    return EstimateWithError(rho, float(se), n)


def spearman_rho(batch: SampleBatch) -> EstimateWithError:
    return spearman_rho_arrays(batch.u, batch.v)


# ---------------------------------------------------------------------------
# Conditional exceedance and its Rao-Blackwellized estimator
# ---------------------------------------------------------------------------

def conditional_exceedance(prior: PriorSpec, z: float, y) -> Union[float, np.ndarray]:
    """P(w'X >= z | scatter-weighted norm of X equals y).

    For elliptical weight priors this probability depends on X only through
    the scalar y.  Gaussian families give the standard normal survival at
    z / y, the student_t family the t survival at z / y.  At y = 0 the
    projection is exactly zero, so the value is 1 when z <= 0 and 0 above.
    """
    y_arr = np.asarray(y, dtype=np.float64)
    if np.any(y_arr < 0):
        raise ValueError("the conditioning norm must be non-negative")
    if prior.family in (GAUSSIAN_IID, GAUSSIAN_EQUICORRELATED):
        def survival(q):
            return ndtr(-q)
    elif prior.family == STUDENT_T:
        def survival(q):
            return stdtr(prior.nu, -q)
    else:
        raise ValueError(f"no closed-form conditional exceedance for {prior.family!r}")
    positive = y_arr > 0
    quotient = np.where(positive, z / np.where(positive, y_arr, 1.0), 0.0)
    at_zero = 1.0 if z <= 0 else 0.0
    out = np.where(positive, survival(quotient), at_zero)
    return float(out) if np.ndim(y) == 0 else out


def rao_blackwell_delta(batch: SampleBatch, z1: float, z2: float) -> EstimateWithError:
    """Exceedance difference via conditional expectations of the indicators.

    Replaces each indicator with its conditional exceedance probability
    given the previous-layer norm and returns the sample covariance of the
    two resulting sequences; estimates the same quantity as
    :func:`delta_upper` with never-larger asymptotic variance.
    """
    if batch.prev_norms is None:
        raise ValueError("batch was sampled without previous-layer norms")
    if batch.layer < 2:
        raise ValueError("conditioning on the previous layer needs layer >= 2")
    a = conditional_exceedance(batch.prior, z1, batch.prev_norms)
    b = conditional_exceedance(batch.prior, z2, batch.prev_norms)
    return _cov_with_se(a, b)


# ---------------------------------------------------------------------------
# Positive-dependence profile
# ---------------------------------------------------------------------------

def pd_profile(layer_samples: np.ndarray, z_values: Sequence[float]) -> PdProfile:
    """Conditional all-same-sign probabilities along a threshold sweep.

    For each z, the right tail is the relative frequency of
    {X_1 >= 0, ..., X_{N-1} >= 0} among samples with X_N >= z; the left
    tail conditions on X_N <= z with <= events.  Empty conditioning events
    yield None cells.
    """
    samples = np.asarray(layer_samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] < 2:
        raise ValueError("need an (n, N) matrix with N >= 2 units")
    if samples.shape[0] < 2:
        raise ValueError("positive-dependence estimation needs n >= 2")
    z = np.asarray(z_values, dtype=np.float64)
    lead, last = samples[:, :-1], samples[:, -1]
    all_up = np.all(lead >= 0.0, axis=1)
    all_down = np.all(lead <= 0.0, axis=1)

    def tail_cells(cond: Callable[[float], np.ndarray], event: np.ndarray):
        cells: list[Optional[EstimateWithError]] = []
        for zi in z:
            mask = cond(zi)
            m = int(np.count_nonzero(mask))
            if m == 0:
                cells.append(None)
                continue
            k = int(np.count_nonzero(mask & event))
            p = k / m
            se = np.sqrt(p * (1.0 - p) / m)
            cells.append(EstimateWithError(p, float(se), m))
        return cells

    right = tail_cells(lambda zi: last >= zi, all_up)
    left = tail_cells(lambda zi: last <= zi, all_down)
    if all(c is None for c in right) and all(c is None for c in left):
        raise ValueError("every conditioning event is empty")
    min_right = min((c.value for c in right if c is not None), default=None)
    min_left = min((c.value for c in left if c is not None), default=None)
    return PdProfile(z, right, left, min_right, min_left)
