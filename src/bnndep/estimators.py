"""Dependence estimators with standard errors.

Every estimator is a pure function of an immutable sample batch.  Standard
errors come from closed-form influence functions (O(n)).  Tail events use
weak inequalities (>=, <=) throughout: with ReLU taps the value 0 carries
real probability mass, so the choice is semantically load-bearing.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .network import GAUSSIAN_EQUICORRELATED, GAUSSIAN_IID, STUDENT_T, PriorSpec, _finite
from .sampling import SampleBatch

UPPER = "upper"
LOWER = "lower"
_PAIR_MIN = 1 << 16     # samples from which an estimator's two per-unit passes run side by side
_BIN_CHUNK = 1 << 13    # samples :func:`_bins` places per step; larger chunks raise peak memory


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
    of the marginal exceedance probabilities; a ``lower``-tail grid uses
    the <= events instead, and no field records which tail a grid holds.
    ``null_std_error`` is the SE each cell would have at zero dependence,
    sqrt(p1(1-p1) p2(1-p2) / n) from its marginals; it is None for a grid
    read back from CSV and for a Rao-Blackwell grid.
    """

    z1_values: np.ndarray
    z2_values: np.ndarray
    value: np.ndarray       # (len(z1), len(z2))
    std_error: np.ndarray
    n: int
    null_std_error: Optional[np.ndarray] = None

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


def _checked_n(what: str, n: int, *values) -> int:
    """n, after checking n >= 2 and that the values (thresholds, raw samples) are finite."""
    if n < 2:
        raise ValueError(f"{what} needs n >= 2")
    if not _finite(*values):
        raise ValueError(f"{what} needs finite values")
    return n


def _sample_count(what: str, *samples: np.ndarray, finite: tuple = ()) -> int:
    """Common length n of raw 1-D samples, after :func:`_checked_n` on them and ``finite``."""
    shape = np.shape(samples[0])
    if len(shape) != 1 or any(np.shape(s) != shape for s in samples):
        raise ValueError(f"{what} needs 1-D samples of equal length")
    return _checked_n(what, shape[0], *samples, *finite)


def _pair(f: Callable, a, b, n: int) -> tuple:
    """(f(a), f(b)), the serial bits; from n = _PAIR_MIN up f(b) runs on a helper thread."""
    if n < _PAIR_MIN:
        return f(a), f(b)
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        fb = pool.submit(f, b)
        return f(a), fb.result()


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


def _delta_xy(batch: SampleBatch, z1: float, z2: float, tail: str) -> EstimateWithError:
    n = _checked_n("exceedance-difference estimation", batch.n, z1, z2)
    m1, m2 = (batch.u >= z1, batch.v >= z2) if tail == UPPER else (batch.u <= z1, batch.v <= z2)
    c11, c1, c2 = (int(np.count_nonzero(m)) for m in (m1 & m2, m1, m2))
    value, se = _delta_from_counts(c11, c1, c2, n)
    return EstimateWithError(float(value), float(se), n)


def delta_upper(batch: SampleBatch, z1: float, z2: float) -> EstimateWithError:
    """Plug-in estimate of P(u >= z1, v >= z2) - P(u >= z1) P(v >= z2)."""
    return _delta_xy(batch, z1, z2, UPPER)


def delta_lower(batch: SampleBatch, z1: float, z2: float) -> EstimateWithError:
    """Lower-tail analogue of :func:`delta_upper`, with both events <=."""
    return _delta_xy(batch, z1, z2, LOWER)


def _thresholds(z1_values: Sequence[float], z2_values: Sequence[float]) -> tuple:
    """A grid's two threshold axes as float64 arrays, each checked non-empty and increasing."""
    z1 = np.asarray(z1_values, dtype=np.float64)
    z2 = np.asarray(z2_values, dtype=np.float64)
    if z1.size == 0 or z2.size == 0:
        raise ValueError("threshold grids must be non-empty")
    if np.any(np.diff(z1) <= 0) or np.any(np.diff(z2) <= 0):
        raise ValueError("threshold grids must be strictly increasing")
    return z1, z2


def _bins(z: np.ndarray, x: np.ndarray, side: str) -> np.ndarray:
    """``np.searchsorted(z, x, side)`` for increasing finite z and finite x: per chunk of x,
    the affine guess from z's end points (fmax/fmin send an overflow's NaN to bin 0), moved
    by one where it is off, and ``searchsorted`` for the samples still off.  Only an evenly
    spaced z places every sample by the guess; on an uneven z this is slower than searchsorted."""
    g = z.size
    edges = np.concatenate(([-np.inf], z, [np.inf]))
    # bin i is right when lo[i] is below x and hi[i] is not; "below" is <= for side right
    lo, hi = edges[:-1], edges[1:]
    below, above = (np.less_equal, np.greater) if side == "right" else (np.less, np.greater_equal)
    out = np.empty(x.shape, dtype=np.intp)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = (g - 1) / (z[-1] - z[0]) if g > 1 else 0.0
        for s in range(0, x.size, _BIN_CHUNK):
            xs, i = x[s:s + _BIN_CHUNK], out[s:s + _BIN_CHUNK]
            i[...] = np.fmin(np.fmax((xs - z[0]) * scale + 1.0, 0.0), g)
            i -= above(lo.take(i), xs)
            i += below(hi.take(i), xs)
            off = above(lo.take(i), xs) | below(hi.take(i), xs)
            if off.any():
                i[off] = np.searchsorted(z, xs[off], side)
    return out


def delta_grid(
    batch: SampleBatch,
    z1_values: Sequence[float],
    z2_values: Sequence[float],
    tail: str = UPPER,
) -> DeltaGrid:
    """Evaluate the exceedance difference on a full threshold grid.

    Each sample's bin among its axis's thresholds (:func:`_bins`, O(1) on an evenly spaced
    grid) feeds a 2-D threshold histogram whose cumulative sums give every cell's joint and
    marginal counts, making a G x G grid O(n log G + G^2) instead of O(G^2 n).  Each cell
    equals the corresponding scalar estimator exactly.
    """
    z1, z2 = _thresholds(z1_values, z2_values)
    u, v = batch.u, batch.v
    n = _checked_n("exceedance-difference estimation", batch.n, z1, z2)
    if tail not in (UPPER, LOWER):
        raise ValueError(f"tail must be 'upper' or 'lower', got {tail!r}")

    g1, g2 = z1.size, z2.size
    # bin each sample by the thresholds below it (at or below it for the upper
    # tail); prefix sums then count u <= z1[a] (lower) or u < z1[a] (upper)
    side = "left" if tail == LOWER else "right"
    ai, bi = _pair(lambda zx: _bins(*zx, side), (z1, u), (z2, v), n)
    # the flat bin index, built in place so no n-length temporary joins ai and bi
    ai *= g2 + 1
    ai += bi
    del bi
    hist = np.bincount(ai, minlength=(g1 + 1) * (g2 + 1))
    pre = hist.reshape(g1 + 1, g2 + 1).cumsum(axis=0).cumsum(axis=1)
    c11, c1, c2 = pre[:g1, :g2], pre[:g1, g2], pre[g1, :g2]
    if tail == UPPER:
        # u >= z1[a] is the complement of u < z1[a]; integer counts keep it exact
        c11 = n - c1[:, None] - c2[None, :] + c11
        c1, c2 = n - c1, n - c2

    value, se = _delta_from_counts(c11, c1[:, None], c2[None, :], n)
    p1, p2 = c1 / n, c2 / n
    null_se = np.sqrt(np.outer(p1 * (1.0 - p1), p2 * (1.0 - p2)) / n)
    return DeltaGrid(z1, z2, value, se, n, null_se)


# ---------------------------------------------------------------------------
# Covariance
# ---------------------------------------------------------------------------

def _cov_with_se(x: np.ndarray, y: np.ndarray, n: int) -> EstimateWithError:
    """Covariance of n checked pairs (see :func:`_checked_n`); x and y are not written."""
    prod, yc = _pair(lambda a: a - a.mean(), x, y, n)
    prod *= yc
    value = prod.sum() / (n - 1)
    prod -= prod.mean()                 # the influence values psi
    prod -= prod.mean()                 # psi.std(ddof=1), in ndarray.std's operation order
    prod *= prod
    se = np.sqrt(prod.sum() / (n - 1)) / np.sqrt(n)
    return EstimateWithError(float(value), float(se), n)


def covariance(batch: SampleBatch) -> EstimateWithError:
    """Unbiased sample covariance of the unit pair, influence-function SE."""
    return _cov_with_se(batch.u, batch.v, _checked_n("covariance estimation", batch.n))


# ---------------------------------------------------------------------------
# Concordance: Kendall's tau (tau-a) and Spearman's rho
# ---------------------------------------------------------------------------

def _strict_inversions(arr: np.ndarray, width: int = 1) -> int:
    """Number of pairs i < j with arr[i] > arr[j], for integers arr >= 0 of a power-of-two
    length whose blocks of ``width`` are each sorted.  arr ends sorted.  Its dtype must hold
    the tagged values up to 2 max(arr) + 1 (int32 below 2**30); positions sum in int64.

    Bottom-up merge sort: each level tags every value with its half in the
    low bit (0 left, 1 right), so one sort along the rows merges all block
    pairs at once, equal values left first.  In a block of two halves of w,
    right element j (from 0) at merged position p has w - (p - j) left
    elements behind it: summed, nb w (3w - 1) / 2 less the p, which are the
    tagged flat positions less the nb (nb - 1) w^2 of the block starts.
    """
    flat_pos = np.arange(arr.shape[0])
    total = 0
    while width < arr.shape[0]:
        blocks = arr.reshape(-1, 2 * width)
        blocks <<= 1
        blocks[:, width:] |= 1
        blocks.sort(axis=1)
        nb = blocks.shape[0]
        right_p = np.dot(arr & 1, flat_pos)
        total += nb * width * (3 * width - 1) // 2 + width * width * nb * (nb - 1) - int(right_p)
        arr >>= 1
        width *= 2
    return total


def _run_starts(xs: np.ndarray) -> np.ndarray:
    """True at 0, at the start of every later run of equal values in sorted xs, and at n."""
    return np.concatenate(([True], xs[1:] != xs[:-1], [True]))


def _tie_pair_count(runs: np.ndarray) -> int:
    """Sum of C(run, 2) over the run lengths: the number of tied pairs."""
    return int(runs @ runs - runs.sum()) // 2


def _ranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense 0-based ranks and run edges of x; ties share a rank, so argsort need not be stable.
    Zeros (-0.0 too) are one run between the negatives and the positives.  From an eighth of x
    up (ReLU and dead-layer atoms), only the first zero stands for that run in the argsort;
    below that share the bookkeeping costs more than the shorter sort saves."""
    n = x.size
    zeros = n - np.count_nonzero(x)
    squeeze = zeros > 0 and 8 * zeros >= n
    if squeeze:
        keep = x != 0
        first = np.argmin(keep)         # also its index among the kept values
        keep[first] = True
        x = x[keep]
    order = np.argsort(x)
    starts = _run_starts(x[order])
    del x
    work = np.cumsum(starts[:-1], dtype=np.int64)
    work -= 1
    ranks = np.empty_like(work)
    ranks[order] = work
    del order, work
    if squeeze:                         # every zero takes its run's rank
        zero_rank = ranks[first]
        ranks, kept_ranks = np.full(n, zero_rank), ranks
        ranks[keep] = kept_ranks
        del keep, kept_ranks            # freed before edges: a lower peak heap
    edges = np.flatnonzero(starts)
    if squeeze:
        edges[zero_rank + 1:] += zeros - 1
    return ranks, edges


def kendall_tau_arrays(u: np.ndarray, v: np.ndarray) -> EstimateWithError:
    """tau-a: (concordant - discordant) / C(n, 2), ties counted as neither.

    O(n log n): each unit is sorted once into dense integer ranks, and one
    sort of the int64 key ``rank_u * n + rank_v`` orders the pairs by (u, v)
    (pairs with equal keys are tied in both units).  Discordant pairs are
    then exactly the strict inversions of the v ranks in that order; tie
    bookkeeping recovers the concordant count.  The SE is the classical
    variance of tau under the independence null.
    """
    u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    if u.size > 3_037_000_499:          # isqrt(2**63 - 1): keys up to n * n - 1 fit int64
        raise ValueError("concordance estimation needs n <= 3037000499")
    n = _sample_count("concordance estimation", u, v)
    (ru, tied_u), (rv, tied_v) = ((ranks, _tie_pair_count(np.diff(edges)))
                                  for ranks, edges in _pair(_ranks, u, v, n))
    key = np.sort(ru * n + rv)
    del ru, rv
    tied_both = _tie_pair_count(np.diff(np.flatnonzero(_run_starts(key))))
    # v's ranks in (u, v) order, padded to a power of two with n: above every rank, no
    # inversions; int32 when the merge's tagged values, up to 2n + 1, fit it
    padded = np.full(1 << (n - 1).bit_length(), n, np.int32 if 2 * n + 1 < 2**31 else np.int64)
    padded[:n] = key % n
    key = padded
    # from _PAIR_MIN up the two halves are merged side by side, then together; below, key is one
    h = key.shape[0] // (2 if n >= _PAIR_MIN else 1)
    discordant = sum(_pair(_strict_inversions, key[:h], key[h:], n)) + _strict_inversions(key, h)
    n0 = n * (n - 1) // 2
    tau = (n0 - tied_u - tied_v + tied_both - 2 * discordant) / n0
    se = np.sqrt(2.0 * (2 * n + 5) / (9.0 * n * (n - 1)))
    return EstimateWithError(tau, float(se), n)


def kendall_tau(batch: SampleBatch) -> EstimateWithError:
    return kendall_tau_arrays(batch.u, batch.v)


def _spearman_rho(u: np.ndarray, v: np.ndarray, n: int) -> EstimateWithError:
    """Pearson correlation of mid-ranks; SE under the independence null."""
    def mid_ranks(x):                   # scipy.stats.rankdata(x, "average") bit for bit
        ranks, edges = _ranks(x)
        mid = edges[1:] + 1
        mid += edges[:-1]
        del edges
        mid = 0.5 * mid                 # each run's mean 1-based position
        return mid[ranks]

    ac, bc = _pair(mid_ranks, u, v, n)
    ac -= ac.mean()
    bc -= bc.mean()
    denom = np.sqrt((ac @ ac) * (bc @ bc))
    if denom == 0.0:
        raise ValueError("rank correlation undefined for constant data")
    rho = float(np.clip((ac @ bc) / denom, -1.0, 1.0))
    se = 1.0 / np.sqrt(n - 1)
    return EstimateWithError(rho, float(se), n)


def spearman_rho_arrays(u: np.ndarray, v: np.ndarray) -> EstimateWithError:
    """:func:`spearman_rho` of two raw sample arrays."""
    u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    return _spearman_rho(u, v, _sample_count("concordance estimation", u, v))


def spearman_rho(batch: SampleBatch) -> EstimateWithError:
    return _spearman_rho(batch.u, batch.v, _checked_n("concordance estimation", batch.n))


# ---------------------------------------------------------------------------
# Rao-Blackwellized exceedance differences
# ---------------------------------------------------------------------------

def _norm_survival(prior: PriorSpec, z: float, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Survival of the prior's family at z / y, written into ``out``, for checked positive
    norms y: the grid sets the zero-norm atom itself."""
    from scipy.special import ndtr, stdtr
    if prior.family not in (GAUSSIAN_IID, GAUSSIAN_EQUICORRELATED, STUDENT_T):
        raise ValueError(f"no closed-form conditional exceedance for {prior.family!r}")
    survival = partial(stdtr, prior.nu) if prior.family == STUDENT_T else ndtr
    if z == 0:                          # survival(0) once, not a survival pass over y
        out[...] = survival(0.0)
        return out
    with np.errstate(over="ignore"):    # -z / y is +-inf for a tiny y: exact survivals 0 and 1
        np.divide(-z, y, out=out)
    return survival(out, out=out)   # never where=: scipy.special ufuncs corrupt memory with it


def rao_blackwell_grid(batch: SampleBatch, z1_values: Sequence[float],
                       z2_values: Sequence[float]) -> DeltaGrid:
    """Upper-tail exceedance differences from conditional expectations of the indicators.

    Given the previous-layer norm y, an elliptical prior puts P(u >= z | y) at its family's
    survival at z / y, normal or t; where y = 0 it is 1 for z <= 0 and 0 above.  Each
    distinct threshold's survival row is computed once, for both axes, and cell (a, b) is
    the sample covariance of rows z1[a] and z2[b]: it estimates the upper-tail
    :func:`delta_grid` cell with never-larger asymptotic variance.  A row runs over each half's
    norms sorted, [0, n//2) then [n//2, n) (2.4x faster survival), zero norms (-0.0 too) first
    at their exact 0 or 1.  Rows hold n float64s per distinct threshold; the last one holds the
    sorted norms until it is filled.  Tap ``"pre"`` only; ``null_std_error`` is None.
    """
    z1, z2 = _thresholds(z1_values, z2_values)
    if batch.tap != "pre":
        raise ValueError(f"Rao-Blackwell estimation needs tap 'pre', got {batch.tap!r}")
    if batch.prev_norms is None:
        raise ValueError("batch was sampled without previous-layer norms")
    if batch.layer < 2:
        raise ValueError("conditioning on the previous layer needs layer >= 2")
    n = _checked_n("Rao-Blackwell estimation", batch.n, z1, z2)
    # a row depends only on its threshold's value; index maps each axis entry to its row
    zs, index = np.unique(np.concatenate((z1, z2)), return_inverse=True)
    rows = [np.empty(n) for _ in zs[1:]] + [batch.prev_norms.copy()]

    def fill(h: slice) -> None:         # a pass fills its half of every row, in sorted-norm order
        ys = rows[-1][h]                # sorted in place; the last row's survival overwrites it
        ys.sort()
        k = np.searchsorted(ys, 0.0, "right")   # the zero-norm atom: a prefix at exact 0 or 1
        for z, row in zip(zs, rows):
            row[h][:k] = z <= 0
            _norm_survival(batch.prior, z, ys[k:], row[h][k:])

    _pair(fill, slice(None, n // 2), slice(n // 2, None), n)
    cells = [_cov_with_se(rows[i], rows[j], n) for i in index[:z1.size] for j in index[z1.size:]]
    value, se = np.array([(c.value, c.std_error) for c in cells]).T.reshape(2, z1.size, z2.size)
    return DeltaGrid(z1, z2, value, se, n)


def rao_blackwell_delta(batch: SampleBatch, z1: float, z2: float) -> EstimateWithError:
    """The one cell of :func:`rao_blackwell_grid` at (z1, z2)."""
    return rao_blackwell_grid(batch, [z1], [z2]).cell(0, 0)


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
    lead, last = samples[:, :-1], samples[:, -1]
    z = np.asarray(z_values, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("positive-dependence estimation needs a non-empty list of thresholds")
    _sample_count("positive-dependence estimation", last, finite=(lead, z))
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
            p = int(np.count_nonzero(mask & event)) / m
            cells.append(EstimateWithError(p, float(np.sqrt(p * (1.0 - p) / m)), m))
        return cells

    right = tail_cells(lambda zi: last >= zi, all_up)
    left = tail_cells(lambda zi: last <= zi, all_down)
    min_right = min((c.value for c in right if c is not None), default=None)
    min_left = min((c.value for c in left if c is not None), default=None)
    return PdProfile(z, right, left, min_right, min_left)
