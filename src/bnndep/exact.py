"""Ground truth independent of the Monte Carlo path.

Exact enumeration of tiny ReLU networks with weights uniform on {-1, +1},
closed-form values for the ReLU dead-layer case, and an O(n^2) concordance
reference.  The enumerator evaluates each configuration in integers, on the
input scaled by a power of two, counts configurations as exact integers over a
power-of-two denominator and only converts to floating point at the boundary.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .estimators import LOWER, UPPER, _sample_count
from .network import _check_widths, _finite
from .sampling import _check_query

MAX_CONFIGURATIONS = 1 << 24
_CHUNK = 1 << 16
_INT64_MAX = (1 << 63) - 1
_TAU_ROWS = 256     # brute-force tau rows compared with their upper-triangle columns at once


@dataclass(frozen=True)
class DiscreteNetSpec:
    """ReLU network whose weights are i.i.d. uniform on {-1, +1}.

    These weights are not elliptical, so only estimator correctness (not
    the sign guarantees that require elliptical weights) should be asserted
    against them, except where sign-symmetry alone suffices.
    """

    widths: tuple[int, ...]
    input: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_widths(self.widths)
        if len(self.input) != self.widths[0]:
            raise ValueError("input length must equal the input width")
        if not _finite(self.input):
            raise ValueError("input must be finite")

    def weight_count(self, layer: int) -> int:
        return sum(self.widths[l - 1] * self.widths[l] for l in range(1, layer + 1))


def toy_relu_net() -> DiscreteNetSpec:
    """1 -> 1 -> 2 ReLU net with +-1 weights; 3 weights, 8 configurations."""
    return DiscreteNetSpec(widths=(1, 1, 2), input=(1.0,))


def _last_pre(widths: tuple[int, ...], x: np.ndarray, weight_values: np.ndarray) -> np.ndarray:
    """Last-layer pre-activations of (count, m) flat weight draws, in the dtype of ``x``."""
    shapes = list(zip(widths[:-1], widths[1:]))
    flat = np.split(weight_values, np.cumsum([r * c for r, c in shapes])[:-1], axis=1)
    h = x[None, :]
    for w, (r, c) in zip(flat, shapes):
        pre = np.matmul(h[:, None, :], w.reshape(-1, r, c))[:, 0, :]
        h = np.maximum(pre, 0)
    return pre


def _configurations(spec: DiscreteNetSpec, layer: int) -> tuple[int, Iterator[np.ndarray]]:
    """Layer ``layer`` pre-activations of every weight configuration, as exact integers.

    Returns k and int64 chunks of pre-activations in units of 2**-k, where
    2**k is the least power of two (k < 0 for large inputs) that makes every
    input value an integer.  Configuration ``idx`` sets weight ``i`` of the
    m weights to +1 where bit ``i`` of ``idx`` is set and to -1 elsewhere;
    each has probability 2**-m.  A net whose pre-activations could reach
    2**63 - 1 in these units is rejected, never rounded.
    """
    m = spec.weight_count(layer)
    total = 1 << m
    if total > MAX_CONFIGURATIONS:
        raise ValueError(f"{total} configurations exceed the enumeration bound")
    values = [Fraction(float(x)) for x in spec.input]
    k = max((f.denominator.bit_length() - (f.numerator & -f.numerator).bit_length()
             for f in values if f), default=0)
    x = [int(f * Fraction(2) ** k) for f in values]
    # |pre|, and every partial sum of it, is at most max|x| times the product of the fan-ins
    bound = max(map(abs, x)) * math.prod(spec.widths[:layer])
    if bound >= _INT64_MAX:
        raise ValueError(f"pre-activations could reach {bound} x 2**{-k}, which overflows int64")
    x, bits = np.array(x, dtype=np.int64), np.arange(m)

    def chunks():
        for start in range(0, total, _CHUNK):
            idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
            yield _last_pre(spec.widths[: layer + 1], x, ((idx[:, None] >> bits) & 1) * 2 - 1)

    return k, chunks()


def enumerate_exact_delta(
    spec: DiscreteNetSpec,
    layer: int,
    unit_pair: tuple[int, int],
    z1: float,
    z2: float,
    tail: str = UPPER,
) -> Fraction:
    """Exceedance difference by exhaustive enumeration; exact rational result.

    Counts the configurations of the weights feeding layers 1..layer whose
    units reach the thresholds; each configuration has probability 2**-m.
    Events are decided in integers on the exact values of the float input
    and thresholds, so no rounding can move a pre-activation across one.
    Deterministic and invariant under relabeling of the two units.
    """
    _check_query(spec.widths, layer, unit_pair, "pre")
    j1, j2 = unit_pair
    if not _finite(z1, z2):
        raise ValueError(f"thresholds must be finite, got {z1}, {z2}")
    if tail not in (UPPER, LOWER):
        raise ValueError(f"tail must be 'upper' or 'lower', got {tail!r}")

    k, chunks = _configurations(spec, layer)
    # u >= z iff u >= ceil(z), and u <= z iff u <= floor(z), for integer u; a threshold past
    # +-(2**63 - 1) is clamped there, beyond every pre-activation
    to_integer = math.ceil if tail == UPPER else math.floor
    t1, t2 = (min(max(to_integer(Fraction(float(z)) * Fraction(2) ** k), -_INT64_MAX),
                  _INT64_MAX) for z in (z1, z2))
    c11 = c1 = c2 = 0
    for pre in chunks:
        u, v = pre[:, j1], pre[:, j2]
        m1, m2 = (u >= t1, v >= t2) if tail == UPPER else (u <= t1, v <= t2)
        c11 += int(np.count_nonzero(m1 & m2))
        c1 += int(np.count_nonzero(m1))
        c2 += int(np.count_nonzero(m2))

    denom = 1 << spec.weight_count(layer)
    return Fraction(c11, denom) - Fraction(c1 * c2, denom * denom)


# ---------------------------------------------------------------------------
# Closed forms for the ReLU dead-layer case
# ---------------------------------------------------------------------------

def analytic_delta_zero(prev_width: int) -> Fraction:
    """Exact exceedance difference at the origin for depth-2 ReLU nets.

    The previous post-activation vector is exactly zero when all of its
    pre-activations are non-positive, each independently with probability
    1/2, giving dead-layer mass p = 2**-H and the value p(1 - p)/4.
    Depends only on signs, hence invariant to the weight scale.
    """
    _check_widths((prev_width,))
    p = Fraction(1, 2 ** int(prev_width))
    return p * (1 - p) / 4


# ---------------------------------------------------------------------------
# O(n^2) concordance reference
# ---------------------------------------------------------------------------

def brute_force_tau(u: np.ndarray, v: np.ndarray) -> float:
    """tau-a by direct pair enumeration; reference for the fast path.

    Every pair with u_i < u_j is compared: a concordant pair has v_i < v_j,
    a discordant one v_i > v_j, and a pair tied in u or v is counted in
    neither.  The pairs are taken from the upper triangle of the rows sorted
    by u: row i meets each column at or past the end of its run of u-ties.
    Blocks of rows are compared with those columns at once; only columns
    before the block's last run end need a per-row mask.  The numerator and
    denominator are the merge-based estimator's integers, so results agree
    bitwise.  v enters as its dense int16 ranks from numpy's ``unique``, which
    keep every order and every tie (-0.0 ties 0.0) and compare faster than
    floats; the n = 10000 cap keeps them below 2**15, so it also bounds the
    dtype.  The one dependency shared with the fast path is still numpy's
    sort: no code of ``_ranks``, ``_strict_inversions`` or the pair key.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n = _sample_count("concordance estimation", u, v)
    if n > 10_000:
        raise ValueError("brute force capped at n = 10000")
    order = np.argsort(u)
    us, vs = u[order], np.unique(v, return_inverse=True)[1].astype(np.int16)[order]
    run_end = np.searchsorted(us, us, side="right")
    numerator = 0
    for start in range(0, n, _TAU_ROWS):
        ends, vi = run_end[start : start + _TAU_ROWS, None], vs[start : start + _TAU_ROWS, None]
        lo, hi = ends[0, 0], ends[-1, 0]
        masked = np.arange(lo, hi) >= ends
        numerator += int(np.count_nonzero(masked & (vs[lo:hi] > vi)))
        numerator -= int(np.count_nonzero(masked & (vs[lo:hi] < vi)))
        numerator += int(np.count_nonzero(vs[hi:] > vi))
        numerator -= int(np.count_nonzero(vs[hi:] < vi))
    return numerator / (n * (n - 1) // 2)
