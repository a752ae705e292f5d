"""Ground truth independent of the Monte Carlo path.

Exact enumeration of tiny discrete-weight networks, closed-form values for
the ReLU dead-layer case, and an O(n^2) concordance reference.  The
enumerator keeps probability weights as exact integers over a common power
denominator and only converts to floating point at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .estimators import LOWER, UPPER
from .network import RELU, Activation, PriorSpec
from .sampling import STREAM_DISCRETE, SampleBatch, _as_seed, _forward_stacks

MAX_CONFIGURATIONS = 1 << 24
_CHUNK = 1 << 16


@dataclass(frozen=True)
class DiscreteNetSpec:
    """Network whose weights are i.i.d. over a finite symmetric support.

    Default support is the two-point +-1 distribution with equal weights.
    These supports are not elliptical, so only estimator correctness (not
    the sign guarantees that require elliptical weights) should be asserted
    against them, except where sign-symmetry alone suffices.
    """

    widths: tuple[int, ...]
    input: tuple[float, ...]
    activation: Activation = RELU
    support_values: tuple[float, ...] = (-1.0, 1.0)
    support_weights: tuple[int, ...] = (1, 1)

    def __post_init__(self) -> None:
        if len(self.input) != self.widths[0]:
            raise ValueError("input length must equal the input width")
        if len(self.support_values) != len(self.support_weights):
            raise ValueError("support values and weights must align")
        if not all(isinstance(w, (int, np.integer)) and w > 0 for w in self.support_weights):
            raise ValueError("support weights must be positive integers")
        if set(self.support_values) != {-v for v in self.support_values}:
            raise ValueError("support must be symmetric about zero")

    def weight_count(self, layer: int) -> int:
        return sum(self.widths[l - 1] * self.widths[l] for l in range(1, layer + 1))


def toy_relu_net() -> DiscreteNetSpec:
    """1 -> 1 -> 2 ReLU net with +-1 weights; 3 weights, 8 configurations."""
    return DiscreteNetSpec(widths=(1, 1, 2), input=(1.0,))


def _last_pre(spec: DiscreteNetSpec, weight_values: np.ndarray, layer: int) -> np.ndarray:
    """Layer ``layer`` pre-activations of a (count, m) matrix of flat weight draws."""
    shapes = list(zip(spec.widths[:layer], spec.widths[1 : layer + 1]))
    flat = np.split(weight_values, np.cumsum([r * c for r, c in shapes])[:-1], axis=1)
    stacks = (w.reshape(-1, r, c) for w, (r, c) in zip(flat, shapes))
    return _forward_stacks(spec.activation, np.asarray(spec.input, dtype=np.float64), stacks)[0]


def enumerate_exact_delta(
    spec: DiscreteNetSpec,
    layer: int,
    unit_pair: tuple[int, int],
    z1: float,
    z2: float,
    tail: str = UPPER,
) -> Fraction:
    """Exceedance difference by exhaustive enumeration; exact rational result.

    Iterates every configuration of the weights feeding layers 1..layer,
    weighting each by its exact probability.  Deterministic and invariant
    under relabeling of the two units.
    """
    if not 1 <= layer <= len(spec.widths) - 1:
        raise ValueError(f"layer {layer} out of range")
    j1, j2 = unit_pair
    if j1 == j2 or not (0 <= j1 < spec.widths[layer] and 0 <= j2 < spec.widths[layer]):
        raise ValueError(f"bad unit pair {unit_pair} for width {spec.widths[layer]}")
    if tail not in (UPPER, LOWER):
        raise ValueError(f"tail must be 'upper' or 'lower', got {tail!r}")
    m = spec.weight_count(layer)
    k = len(spec.support_values)
    total = k**m
    if total > MAX_CONFIGURATIONS:
        raise ValueError(f"{total} configurations exceed the enumeration bound")

    values = np.asarray(spec.support_values, dtype=np.float64)
    # in lowest terms every partial sum is at most sum(weights)**m, which must fit int64
    g = math.gcd(*spec.support_weights)
    reduced = [int(w) // g for w in spec.support_weights]
    denom = sum(reduced) ** m
    if denom >= 2**63:
        raise ValueError("support weights too large: sum(weights)**m reaches 2**63")
    wts = np.asarray(reduced, dtype=np.int64)
    radix = k ** np.arange(m, dtype=np.int64)

    c11 = c1 = c2 = 0
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = (idx[:, None] // radix) % k
        pre = _last_pre(spec, values[digits], layer)
        weight = np.prod(wts[digits], axis=1)
        u, v = pre[:, j1], pre[:, j2]
        if tail == UPPER:
            m1, m2 = u >= z1, v >= z2
        else:
            m1, m2 = u <= z1, v <= z2
        c11 += int(weight[m1 & m2].sum())
        c1 += int(weight[m1].sum())
        c2 += int(weight[m2].sum())

    return Fraction(c11, denom) - Fraction(c1 * c2, denom * denom)


def sample_discrete_net(
    spec: DiscreteNetSpec,
    layer: int,
    unit_pair: tuple[int, int],
    tap: str,
    n: int,
    seed,
) -> SampleBatch:
    """Monte Carlo draws from the discrete net, for pipeline-equivalence checks."""
    j1, j2 = unit_pair
    if j1 == j2 or not (0 <= j1 < spec.widths[layer] and 0 <= j2 < spec.widths[layer]):
        raise ValueError(f"bad unit pair {unit_pair} for width {spec.widths[layer]}")
    seed = _as_seed(seed)
    m = spec.weight_count(layer)
    values = np.asarray(spec.support_values, dtype=np.float64)
    probs = np.asarray(spec.support_weights, dtype=np.float64)
    probs = probs / probs.sum()
    u = np.empty(n)
    v = np.empty(n)
    block = 1 << 14
    for k, start in enumerate(range(0, n, block)):
        count = min(block, n - start)
        rng = seed.stream(STREAM_DISCRETE, k)
        digits = rng.choice(len(values), size=(count, m), p=probs)
        pre = _last_pre(spec, values[digits], layer)
        vals = pre if tap == "pre" else spec.activation(pre)
        u[start : start + count] = vals[:, j1]
        v[start : start + count] = vals[:, j2]
    # prior field is unused for discrete supports; record a placeholder
    return SampleBatch(u, v, layer, tap, PriorSpec())


# ---------------------------------------------------------------------------
# Closed forms for the ReLU dead-layer case
# ---------------------------------------------------------------------------

def analytic_delta_zero(prev_width: int, activation: Activation = RELU) -> Fraction:
    """Exact exceedance difference at the origin for depth-2 ReLU nets.

    The previous post-activation vector is exactly zero when all of its
    pre-activations are non-positive, each independently with probability
    1/2, giving dead-layer mass p = 2**-H and the value p(1 - p)/4.
    Depends only on signs, hence invariant to the weight scale.
    """
    if activation.kind != "relu":
        raise ValueError("closed form requires the relu activation")
    if prev_width < 1:
        raise ValueError("previous width must be >= 1")
    p = Fraction(1, 2**prev_width)
    return p * (1 - p) / 4


def analytic_delta_zero_z(
    prev_width: int,
    z: float,
    mc_expectation: float,
    activation: Activation = RELU,
) -> float:
    """Exceedance difference at (0, z) given the off-atom exceedance mean.

    ``mc_expectation`` is E[P(w'X >= z | X != 0)], supplied by the caller
    (typically a Monte Carlo average of conditional exceedances).
    """
    if activation.kind != "relu":
        raise ValueError("closed form requires the relu activation")
    p = Fraction(1, 2**prev_width)
    half_pq = float(p * (1 - p) / 2)
    if z > 0:
        return -half_pq * mc_expectation
    if z < 0:
        return half_pq * (1.0 - mc_expectation)
    return float(p * (1 - p) / 4)


# ---------------------------------------------------------------------------
# O(n^2) concordance reference
# ---------------------------------------------------------------------------

def brute_force_tau(u: np.ndarray, v: np.ndarray) -> float:
    """tau-a by direct pair enumeration; reference for the fast path.

    Computes the same integer numerator and denominator as the merge-based
    estimator, so results agree bitwise.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n = u.shape[0]
    if n < 2:
        raise ValueError("concordance estimation needs n >= 2")
    if n > 10_000:
        raise ValueError("brute force capped at n = 10000")
    total = 0
    chunk = max(1, (1 << 22) // n)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        su = np.sign(u[start:stop, None] - u[None, :]).astype(np.int64)
        sv = np.sign(v[start:stop, None] - v[None, :]).astype(np.int64)
        total += int((su * sv).sum())
    # every unordered pair appears twice in the full sign-product sum
    numerator = total // 2
    n0 = n * (n - 1) // 2
    return numerator / n0
