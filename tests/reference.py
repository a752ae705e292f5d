"""Test references that the library does not run.

The explicit-weight forward pass and weight sampler are the references for
the projection sampler, the bootstrap SE is the reference for the closed-form
standard errors, the rational enumerator is the reference for
``bnndep.exact.enumerate_exact_delta``, the argsort of every value is the
reference for ``bnndep.estimators._ranks``, and the masked survival over each
half's sorted norms is the reference for a Rao-Blackwell survival row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr, stdtr

from bnndep.estimators import _run_starts, _sample_count
from bnndep.network import (
    GAUSSIAN_EQUICORRELATED,
    STUDENT_T,
    ConfigError,
    NetworkConfig,
    PriorSpec,
)


@dataclass
class LayerValues:
    """Per-layer pre- and post-activation vectors from one forward pass."""

    input: np.ndarray
    pre: list[np.ndarray]   # pre[l-1] is layer l's pre-activation vector
    post: list[np.ndarray]  # post[l-1] = activation(pre[l-1])


def forward(
    config: NetworkConfig,
    weights: Sequence[np.ndarray],
    input: np.ndarray,
) -> LayerValues:
    """Propagate ``input`` through the network with the given weights.

    Deterministic: identical (config, weights, input) produce bit-identical
    results.  No bias terms.
    """
    x = np.asarray(input, dtype=np.float64)
    if len(weights) != config.depth:
        raise ConfigError(f"expected {config.depth} weight matrices, got {len(weights)}")
    if x.shape != (config.widths[0],):
        raise ConfigError(f"input shape {x.shape} != ({config.widths[0]},)")
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = []
    h = x
    for layer, w in enumerate(weights, start=1):
        w = np.asarray(w, dtype=np.float64)
        expected = (config.widths[layer - 1], config.widths[layer])
        if w.shape != expected:
            raise ConfigError(f"layer {layer} weights shape {w.shape} != {expected}")
        g = w.T @ h
        h = config.activation(g)
        pre.append(g)
        post.append(h)
    return LayerValues(input=x, pre=pre, post=post)


def sample_weight_matrix(
    spec: PriorSpec, rows: int, cols: int, rng: np.random.Generator
) -> np.ndarray:
    """One (rows, cols) weight matrix drawn from ``spec``; the sampler's test reference.

    Columns are mutually independent; the equicorrelated family mixes in
    the column mean, the student_t family divides each Gaussian column by an
    independent chi-square mixing variable.
    """
    spec.validate(rows)
    w = rng.standard_normal((rows, cols))
    if spec.family == GAUSSIAN_EQUICORRELATED and rows > 1 and spec.rho != 0.0:
        a = np.sqrt(1.0 - spec.rho)
        shift = np.sqrt(1.0 + (rows - 1) * spec.rho) - a
        w = a * w + shift * w.mean(axis=0, keepdims=True)
    w *= spec.column_std(rows)
    if spec.family == STUDENT_T:
        w *= np.sqrt(spec.nu / rng.chisquare(spec.nu, (1, cols)))
    return w


def bootstrap_std_error(
    statistic: Callable[[np.ndarray, np.ndarray], float],
    u: np.ndarray,
    v: np.ndarray,
    resamples: int = 200,
    seed: int = 0,
) -> float:
    """Seeded nonparametric bootstrap SE, for validating the closed forms."""
    rng = np.random.default_rng(seed)
    n = _sample_count("bootstrap", u, v)
    vals = np.empty(resamples)
    for b in range(resamples):
        idx = rng.integers(0, n, n)
        vals[b] = statistic(u[idx], v[idx])
    return float(vals.std(ddof=1))


def argsort_ranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense 0-based ranks and run edges of x from one argsort of all its values, zeros included.

    The form ``_ranks`` had before it sorted a large zero run as one value.
    """
    order = np.argsort(x)
    starts = _run_starts(x[order])
    work = np.cumsum(starts[:-1], dtype=np.int64)
    work -= 1
    ranks = np.empty_like(work)
    ranks[order] = work
    return ranks, np.flatnonzero(starts)


def sorted_halves(y: np.ndarray) -> np.ndarray:
    """y with each half, [0, n // 2) and [n // 2, n), sorted: a Rao-Blackwell row's order.

    Zero norms (-0.0 too) lead each half.
    """
    h = y.shape[0] // 2
    return np.concatenate((np.sort(y[:h]), np.sort(y[h:])))


def masked_exceedance(prior: PriorSpec, z: float, y: np.ndarray) -> np.ndarray:
    """P(u >= z | norm) per norm, in y's order: the family's survival at z / y where y > 0,
    the atom's indicator (1 for z <= 0, 0 above) where y is 0 or -0.0."""
    def survival(q):
        return stdtr(prior.nu, -q) if prior.family == STUDENT_T else ndtr(-q)

    positive = y > 0
    quotient = np.where(positive, z / np.where(positive, y, 1.0), 0.0)
    return np.where(positive, survival(quotient), 1.0 if z <= 0 else 0.0)


def rb_survival_row(prior: PriorSpec, z: float, y: np.ndarray) -> np.ndarray:
    """The survival row ``rao_blackwell_grid`` sums for threshold z: :func:`masked_exceedance`
    over :func:`sorted_halves` of the norms, so each half's zero-norm prefix holds exact 0s or
    1s."""
    return masked_exceedance(prior, z, sorted_halves(y))


def rational_pre_pairs(widths, input, layer, unit_pair) -> list[tuple[Fraction, Fraction]]:
    """Exact pre-activations of two units of a ReLU net with weights uniform on {-1, +1}.

    One (u, v) pair per weight configuration of layers 1..layer, each of
    probability 2**-m, computed in ``Fraction`` arithmetic from the exact
    values of the float input.  Pure Python: no numpy, no ``bnndep.exact``.
    """
    shapes = list(zip(widths[:layer], widths[1 : layer + 1]))
    m = sum(r * c for r, c in shapes)
    j1, j2 = unit_pair
    pairs = []
    for signs in itertools.product((-1, 1), repeat=m):
        weights = iter(signs)
        h = [Fraction(x) for x in input]
        for r, c in shapes:
            w = [[next(weights) for _ in range(c)] for _ in range(r)]
            pre = [sum(h[i] * w[i][j] for i in range(r)) for j in range(c)]
            h = [max(p, Fraction(0)) for p in pre]
        pairs.append((pre[j1], pre[j2]))
    return pairs


def rational_delta(pairs, z1: float, z2: float, tail: str = "upper") -> Fraction:
    """Exceedance difference of equally likely (u, v) pairs, decided on exact rationals."""
    z1, z2 = Fraction(z1), Fraction(z2)
    if tail == "upper":
        events = [(u >= z1, v >= z2) for u, v in pairs]
    else:
        events = [(u <= z1, v <= z2) for u, v in pairs]
    n = len(events)
    c11 = sum(a and b for a, b in events)
    c1 = sum(a for a, _ in events)
    c2 = sum(b for _, b in events)
    return Fraction(c11, n) - Fraction(c1 * c2, n * n)
