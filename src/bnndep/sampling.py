"""Deterministic Monte Carlo sampling of network priors.

Draws are organized in fixed-size blocks of samples.  Each block owns a
private counter-based random stream keyed by (master seed, stream label,
replica, block index), so any number of worker threads can fill disjoint
blocks and the result is a pure function of (config, input, seed, n) --
independent of thread count and scheduling.  The block size itself is a
deterministic function of the weight volume per sample, never a tuning
knob.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .network import (
    GAUSSIAN_EQUICORRELATED,
    STUDENT_T,
    Activation,
    NetworkConfig,
    PriorSpec,
    validate_config,
)

# Stream labels: distinct labels give statistically independent streams.
STREAM_INPUT = 0
STREAM_WEIGHTS = 1
STREAM_DISCRETE = 2

# Doubles of weight storage targeted per block; keeps peak memory bounded
# while amortizing per-block RNG setup.
_BLOCK_BUDGET = 1 << 22
_BLOCK_CAP = 4096


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus derived per-purpose random streams.

    ``child`` extends the stream namespace, giving statistically independent
    randomness to sub-experiments that share one master seed.
    """

    master_seed: int
    namespace: tuple[int, ...] = ()

    def child(self, *label: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, self.namespace + tuple(label))

    def stream(self, *label: int) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.namespace + tuple(label))
        return np.random.Generator(np.random.Philox(seq))

    def input_stream(self) -> np.random.Generator:
        return self.stream(STREAM_INPUT)

    def weight_stream(self, replica: int, block: int) -> np.random.Generator:
        return self.stream(STREAM_WEIGHTS, replica, block)


def _as_seed(seed) -> SeedSpec:
    return seed if isinstance(seed, SeedSpec) else SeedSpec(int(seed))


@dataclass
class SampleBatch:
    """Paired draws of two designated units of one layer.

    ``prev_norms`` (present when requested) holds the scatter-weighted norm
    of the previous layer's post-activation vector for each draw, the scalar
    that the conditional exceedance probability of a unit depends on.
    """

    u: np.ndarray
    v: np.ndarray
    layer: int
    tap: str                      # "pre" | "post"
    prior: PriorSpec
    prev_norms: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.u.shape[0]


@dataclass
class ReplicaBatch:
    """Values of the same two units from two fully independent network draws."""

    u1: np.ndarray
    v1: np.ndarray
    u2: np.ndarray
    v2: np.ndarray
    layer: int
    tap: str
    prior: PriorSpec

    @property
    def n(self) -> int:
        return self.u1.shape[0]


# ---------------------------------------------------------------------------
# Input and weight generation
# ---------------------------------------------------------------------------

def generate_input(dim: int, seed) -> np.ndarray:
    """Standard Gaussian input vector, a pure function of (dim, seed).

    The same vector is reused for every Monte Carlo sample of a run.
    """
    if dim < 1:
        raise ValueError(f"input dimension must be >= 1, got {dim}")
    return _as_seed(seed).input_stream().standard_normal(dim)


def _weight_stack(
    spec: PriorSpec, rows: int, cols: int, rng: np.random.Generator, count: int
) -> np.ndarray:
    """``count`` independent draws of a (rows, cols) weight matrix.

    Columns are mutually independent within each draw; the equicorrelated
    family mixes in the column mean, the student_t family divides each
    Gaussian column by an independent chi-square mixing variable.
    """
    z = rng.standard_normal((count, rows, cols))
    if spec.family == GAUSSIAN_EQUICORRELATED and rows > 1 and spec.rho != 0.0:
        a = np.sqrt(1.0 - spec.rho)
        shift = np.sqrt(1.0 + (rows - 1) * spec.rho) - a
        z = a * z + shift * z.mean(axis=1, keepdims=True)
    z *= spec.column_std(rows)
    if spec.family == STUDENT_T:
        mix = rng.chisquare(spec.nu, (count, 1, cols))
        z *= np.sqrt(spec.nu / mix)
    return z


def sample_weight_matrix(
    spec: PriorSpec, rows: int, cols: int, rng: np.random.Generator
) -> np.ndarray:
    """One (rows, cols) weight matrix drawn from ``spec``."""
    spec.validate(rows)
    return _weight_stack(spec, rows, cols, rng, 1)[0]


# ---------------------------------------------------------------------------
# Block engine
# ---------------------------------------------------------------------------

def _block_size(config: NetworkConfig, layer: int) -> int:
    weights_per_sample = sum(
        config.widths[l - 1] * config.widths[l] for l in range(1, layer + 1)
    )
    return int(min(_BLOCK_CAP, max(1, _BLOCK_BUDGET // weights_per_sample)))


def _forward_stacks(
    activation: Activation, x: np.ndarray, stacks: Iterable[np.ndarray]
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Batched forward pass over one (count, rows, cols) weight stack per layer.

    ``stacks`` is read lazily, so a generator that draws one layer at a time
    keeps its random stream in layer order.  Returns the last layer's
    pre-activations and the previous layer's post-activations (None for one
    layer).  ``network.forward`` is the single-sample reference.
    """
    pre = h = None
    for w in stacks:
        if pre is None:
            pre = np.tensordot(w, x, axes=([1], [0]))
        else:
            h = activation(pre)
            pre = np.matmul(h[:, None, :], w)[:, 0, :]
    return pre, h


def _run_blocks(
    n: int,
    block: int,
    job: Callable[[int, int, int], None],
    workers: int,
) -> None:
    """Invoke ``job(block_index, start, count)`` for every block of [0, n)."""
    tasks = [(k, k * block, min(block, n - k * block)) for k in range((n + block - 1) // block)]
    if workers <= 1 or len(tasks) <= 1:
        for t in tasks:
            job(*t)
        return
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as ex:
        # blocks write to disjoint output slices, so completion order is irrelevant
        list(ex.map(lambda t: job(*t), tasks))


def _sample(
    config: NetworkConfig, input: np.ndarray, layer: int, unit_pair, tap: str, n: int,
    seed, replica: int, workers: int, want_norms: bool = False,
) -> list[np.ndarray]:
    """Checked block loop behind :func:`sample_layer` and :func:`sample_units`.

    With no ``unit_pair`` it returns the (n, H_layer) matrix; with one, an
    (n,) vector per unit, and the full matrix is never stored.  The
    previous-layer norms follow as a last (n,) vector when ``want_norms``.
    """
    validate_config(config)
    seed = _as_seed(seed)
    if not 1 <= layer <= config.depth:
        raise ValueError(f"layer {layer} out of range 1..{config.depth}")
    widths = config.widths
    width = widths[layer]
    if unit_pair is not None:
        j1, j2 = unit_pair
        if j1 == j2:
            raise ValueError("unit pair must name two distinct units")
        if not (0 <= j1 < width and 0 <= j2 < width):
            raise ValueError(f"unit indices {unit_pair} out of range for width {width}")
    if tap not in ("pre", "post"):
        raise ValueError(f"tap must be 'pre' or 'post', got {tap!r}")
    if want_norms and layer < 2:
        raise ValueError("previous-layer norms require layer >= 2")
    if n < 0:
        raise ValueError("n must be non-negative")
    x = np.asarray(input, dtype=np.float64)
    if x.shape != (widths[0],):
        raise ValueError(f"input shape {x.shape} != ({widths[0]},)")
    picks = [slice(None)] if unit_pair is None else [j1, j2]
    outs = [np.empty((n, width) if unit_pair is None else n) for _ in picks]
    if want_norms:
        outs.append(np.empty(n))

    def job(k: int, start: int, count: int) -> None:
        rng = seed.weight_stream(replica, k)
        stacks = (_weight_stack(config.priors[l - 1], widths[l - 1], widths[l], rng, count)
                  for l in range(1, layer + 1))
        pre, h = _forward_stacks(config.activation, x, stacks)
        vals = pre if tap == "pre" else config.activation(pre)
        for out, pick in zip(outs, picks):
            out[start : start + count] = vals[:, pick]
        if want_norms:
            q = config.priors[layer - 1].scatter_quadratic(h, widths[layer - 1])
            outs[-1][start : start + count] = np.sqrt(q)

    _run_blocks(n, _block_size(config, layer), job, workers)
    return outs


def sample_layer(
    config: NetworkConfig,
    input: np.ndarray,
    layer: int,
    n: int,
    seed,
    tap: str = "pre",
    replica: int = 0,
    workers: int = 1,
) -> np.ndarray:
    """(n, H_layer) matrix of one layer's tapped values over n prior draws."""
    return _sample(config, input, layer, None, tap, n, seed, replica, workers)[0]


def sample_units(
    config: NetworkConfig,
    input: np.ndarray,
    layer: int,
    unit_pair: tuple[int, int],
    tap: str = "pre",
    n: int = 0,
    seed=0,
    want_norms: bool = False,
    replica: int = 0,
    workers: int = 1,
) -> SampleBatch:
    """n independent prior draws of two distinct units of one layer."""
    u, v, *norms = _sample(config, input, layer, unit_pair, tap, n, seed, replica, workers,
                           want_norms)
    return SampleBatch(u, v, layer, tap, config.priors[layer - 1], *norms)


def sample_replicas(
    config: NetworkConfig,
    input: np.ndarray,
    layer: int,
    unit_pair: tuple[int, int],
    tap: str = "pre",
    n: int = 0,
    seed=0,
    workers: int = 1,
) -> ReplicaBatch:
    """Row-wise pairs of two fully independent network draws.

    Within a row, replica 1 and replica 2 resample the weights of every
    layer independently; the marginal law of each replica equals that of
    ``sample_units``.
    """
    first = sample_units(config, input, layer, unit_pair, tap, n, seed,
                         replica=0, workers=workers)
    second = sample_units(config, input, layer, unit_pair, tap, n, seed,
                          replica=1, workers=workers)
    return ReplicaBatch(first.u, first.v, second.u, second.v, layer, tap, first.prior)
