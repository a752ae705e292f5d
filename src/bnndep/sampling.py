"""Deterministic Monte Carlo sampling of network priors.

Each layer is sampled by its elliptical projection rather than through its
weights: given the previous layer's output h, the pre-activations of the
layer's units are i.i.d. ``sqrt(h' Sigma h) * xi``, with xi standard normal
for the Gaussian families and Student-t for ``student_t`` (Cambanis, Huang
& Simons 1981).  Draws are organized in fixed-size blocks of samples.  Each
block owns private SFC64 streams keyed by (master seed, namespace, stream
label, block index), so any number of worker threads can fill disjoint
blocks and the result is a pure function of (config, input, seed, n) --
independent of thread count and scheduling.  Draws on two child seeds of
one master seed are independent copies of the networks;
``combine_copies`` adds or subtracts two of them row by row.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .network import STUDENT_T, NetworkConfig, PriorSpec, _finite, _integer

# Stream labels, the first key of SeedSpec.stream; distinct labels give independent streams.
STREAM_INPUT = 0
STREAM_WEIGHTS = 1

# Row-wise combinations of two independent copies (combine_copies).
SUM_OF_COPIES = "sum"
DIFF_OF_COPIES = "diff"

# The values a batch can tap: pre-activations or the activation's outputs.
TAPS = ("pre", "post")

# Samples per block.  Fixed, so a depth-l draw is the exact prefix of a
# depth-L draw from the same seed.
_BLOCK = 4096


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus derived per-purpose random streams.

    ``child`` extends the stream namespace, giving statistically independent
    randomness to sub-experiments that share one master seed.
    """

    master_seed: int
    namespace: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        keys = (self.master_seed, *self.namespace)
        if not all(_integer(k) and k >= 0 for k in keys):
            raise ValueError(f"seeds and stream labels must be integers >= 0, got {keys!r}")

    def child(self, *label: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, self.namespace + tuple(label))

    def stream(self, *label: int) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.namespace + tuple(label))
        return np.random.Generator(np.random.SFC64(seq))


def _as_seed(seed) -> SeedSpec:
    return seed if isinstance(seed, SeedSpec) else SeedSpec(seed)


def _check_tap(tap: str) -> None:
    if tap not in TAPS:
        raise ValueError(f"tap must be 'pre' or 'post', got {tap!r}")


@dataclass(frozen=True)
class SampleBatch:
    """Paired draws of two designated units of one layer.

    ``u`` and ``v`` hold pre-activations, or at tap ``"post"`` their activation, which the
    sampler applies once to its finished rows.  ``prev_norms`` (present when requested) holds the
    scatter-weighted norm of the previous layer's post-activation vector for each draw, the
    scalar that the conditional exceedance probability of a unit depends on.

    Built once checked (1-D, equal lengths, finite, norms >= 0), it holds read-only float64
    views of the arrays (of a float64 copy for other dtypes), so an estimator that writes into
    one raises.  The check covers the arrays as passed: the caller's own references stay
    writable, and writes through them go unchecked.
    """

    u: np.ndarray
    v: np.ndarray
    layer: int
    tap: str                      # "pre" | "post"
    prior: PriorSpec
    prev_norms: Optional[np.ndarray] = None

    def __post_init__(self):
        shapes = {np.shape(a) for a in (self.u, self.v, self.prev_norms) if a is not None}
        if len(shapes) != 1 or len(shapes.pop()) != 1:
            raise ValueError("a sample batch needs 1-D samples of equal length")
        _check_tap(self.tap)
        for name in ("u", "v") + (() if self.prev_norms is None else ("prev_norms",)):
            view = np.asarray(getattr(self, name), dtype=np.float64).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
            if not _finite(view):
                raise ValueError("a sample batch needs finite values")
        if self.prev_norms is not None and np.any(self.prev_norms < 0):
            raise ValueError("the conditioning norm must be non-negative")

    @property
    def n(self) -> int:
        return self.u.shape[0]


def combine_copies(first: SampleBatch, second: SampleBatch, mode: str) -> SampleBatch:
    """Row-wise sums or differences of two copies of the same units, as one batch without norms."""
    if (first.n, first.layer, first.tap, first.prior) != (
            second.n, second.layer, second.tap, second.prior):
        raise ValueError("copies must share n, layer, tap and prior")
    if mode == SUM_OF_COPIES:
        u, v = first.u + second.u, first.v + second.v
    elif mode == DIFF_OF_COPIES:
        u, v = first.u - second.u, first.v - second.v
    else:
        raise ValueError(f"mode must be 'sum' or 'diff', got {mode!r}")
    return SampleBatch(u, v, first.layer, first.tap, first.prior)


# ---------------------------------------------------------------------------
# Input and weight generation
# ---------------------------------------------------------------------------

def generate_input(dim: int, seed) -> np.ndarray:
    """Standard Gaussian input vector, a pure function of (dim, seed).

    The same vector is reused for every Monte Carlo sample of a run.
    """
    if not _integer(dim):
        raise ValueError(f"input dimension must be an integer, got {dim!r}")
    if dim < 1:
        raise ValueError(f"input dimension must be >= 1, got {dim}")
    return _as_seed(seed).stream(STREAM_INPUT).standard_normal(dim)


# ---------------------------------------------------------------------------
# Block engine
# ---------------------------------------------------------------------------

def _check_query(widths, layer: int, unit_pair) -> None:
    """Reject a layer or unit pair (None: the whole layer) that a net of ``widths`` can't serve."""
    if not (_integer(layer) and 1 <= layer <= len(widths) - 1):
        raise ValueError(f"layer {layer!r} is not an integer in 1..{len(widths) - 1}")
    if unit_pair is not None:
        if np.shape(unit_pair) != (2,):
            raise ValueError(f"unit pair must name exactly two units, got {unit_pair}")
        if not all(_integer(j) for j in unit_pair):
            raise ValueError(f"unit indices must be integers, got {unit_pair}")
        j1, j2 = unit_pair
        if j1 == j2:
            raise ValueError("unit pair must name two distinct units")
        if not (0 <= j1 < widths[layer] and 0 <= j2 < widths[layer]):
            raise ValueError(f"unit indices {unit_pair} out of range for width {widths[layer]}")


def _sample(
    config: NetworkConfig, input: np.ndarray, layers: tuple[int, ...], unit_pair, tap: str,
    n: int, seed, workers: int, want_norms: bool = False,
) -> list[tuple[np.ndarray, Optional[np.ndarray]]]:
    """Checked block loop behind :func:`sample_layer` and :func:`sample_taps`.

    One (rows, norms) pair per strictly increasing layer: the (units, n) values of all H_layer
    units or of ``unit_pair``'s two, and the previous-layer norms or None.  The blocks keep
    pre-activations, drawn as rows, the deepest layer's only up to the higher unit of the pair;
    a post tap is the activation applied once to the finished rows.
    """
    # block k reads stream (STREAM_WEIGHTS, 0, k) and student_t's mixing its sibling (..., k, 1)
    streams = _as_seed(seed).child(STREAM_WEIGHTS, 0)
    widths = config.widths
    if not layers or any(a >= b for a, b in zip(layers, layers[1:])):
        raise ValueError(f"layers must be a non-empty, strictly increasing tuple, got {layers!r}")
    for layer in layers:
        _check_query(widths, layer, unit_pair)
    _check_tap(tap)
    if not (_integer(n) and _integer(workers) and n >= 0 and workers >= 1):
        raise ValueError(f"n must be an integer >= 0 and workers an integer >= 1, "
                         f"got n={n!r}, workers={workers!r}")
    if want_norms and layers[0] < 2:
        raise ValueError("previous-layer norms require layer >= 2")
    x = np.asarray(input, dtype=np.float64)
    if x.shape != (widths[0],):
        raise ValueError(f"input shape {x.shape} != ({widths[0]},)")
    rows = slice(None) if unit_pair is None else list(unit_pair)
    outs = {layer: np.empty((widths[layer] if unit_pair is None else 2, n)) for layer in layers}
    norms = {layer: np.empty(n) for layer in layers} if want_norms else {}
    last_rows = widths[layers[-1]] if unit_pair is None else max(unit_pair) + 1

    def job(k: int, start: int, count: int) -> None:
        rng, mix = streams.stream(k), None
        for layer, prior in enumerate(config.priors[: layers[-1]], 1):
            h = x[:, None] if layer == 1 else config.activation(pre)
            norm = np.sqrt(prior.scatter_quadratic(h.T, widths[layer - 1]))
            pre = rng.standard_normal((last_rows if layer == layers[-1] else widths[layer], count))
            if prior.family == STUDENT_T:
                mix = mix or streams.stream(k, 1)
                pre *= np.sqrt(prior.nu / mix.chisquare(prior.nu, pre.shape))
            pre *= norm
            if layer in outs:
                outs[layer][:, start : start + count] = pre[rows]
            if layer in norms:
                norms[layer][start : start + count] = norm

    tasks = [(k, start, min(_BLOCK, n - start)) for k, start in enumerate(range(0, n, _BLOCK))]
    if workers <= 1 or len(tasks) <= 1:
        for t in tasks:
            job(*t)
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as ex:
            # blocks write to disjoint output slices, so completion order is irrelevant
            list(ex.map(lambda t: job(*t), tasks))
    if tap == "post":
        outs = {layer: config.activation(rows) for layer, rows in outs.items()}
    return [(outs[layer], norms.get(layer)) for layer in layers]


def sample_layer(
    config: NetworkConfig, input: np.ndarray, layer: int, n: int, seed, tap: str = "pre",
    workers: int = 1,
) -> np.ndarray:
    """(n, H_layer) matrix of one layer's tapped values over n prior draws, a transposed view."""
    return _sample(config, input, (layer,), None, tap, n, seed, workers)[0][0].T


def sample_units(
    config: NetworkConfig, input: np.ndarray, layer: int, unit_pair: tuple[int, int],
    tap: str = "pre", n: int = 0, seed=0, *, want_norms: bool = False, workers: int = 1,
) -> SampleBatch:
    """n independent prior draws of two distinct units of one layer.

    A second, independent copy of the networks is a draw on a child seed,
    e.g. ``SeedSpec(seed).child(1)``.
    """
    return sample_taps(config, input, (layer,), unit_pair, tap, n, seed,
                       want_norms=want_norms, workers=workers)[0]


def sample_taps(
    config: NetworkConfig, input: np.ndarray, layers: tuple[int, ...], unit_pair: tuple[int, int],
    tap: str = "pre", n: int = 0, seed=0, *, want_norms: bool = False, workers: int = 1,
) -> list[SampleBatch]:
    """One :func:`sample_units` batch per strictly increasing layer, all from one draw of the net.

    Layer l never sees later layers, so its batch equals, bit for bit,
    ``sample_units`` on the net cut after layer l with the same seed.
    """
    if unit_pair is None:
        raise ValueError("unit pair must name two units, got None; sample_layer draws a layer")
    return [SampleBatch(*rows, layer, tap, config.priors[layer - 1], norms)
            for layer, (rows, norms) in zip(layers, _sample(
                config, input, layers, unit_pair, tap, n, seed, workers, want_norms))]
