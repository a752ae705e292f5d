"""Network configuration, activation functions and weight priors.

A network is a stack of bias-free linear layers: each layer computes the
matrix-vector product of its weight matrix (transposed) with the previous
layer's output, then applies the activation elementwise.  All arithmetic is
64-bit floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np


class ConfigError(ValueError):
    """Raised when a network or prior configuration violates its invariants."""


def _finite(*values) -> bool:
    """Whether every entry of every value is a finite number; the one finite check."""
    return all(np.all(np.isfinite(v)) for v in values)


def _integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer and not a bool; the one integer check."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_widths(widths) -> None:
    if not all(_integer(w) and w >= 1 for w in widths):
        raise ConfigError(f"widths must be positive integers, got {widths}")


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Activation:
    """Elementwise nonlinearity applied to pre-activations.

    ``relu`` is the only kind with positive probability mass at exactly zero
    for continuous inputs; several estimators downstream depend on that.
    """

    kind: str
    alpha: float = 1.0  # elu only

    KINDS: ClassVar[tuple[str, ...]] = ("relu", "identity", "tanh", "sigmoid", "elu")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ConfigError(f"unknown activation kind {self.kind!r}")
        if self.kind == "elu" and not self.alpha > 0:
            raise ConfigError(f"elu alpha must be positive, got {self.alpha}")

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "relu":
            return np.maximum(x, 0.0)
        if self.kind == "identity":
            return x
        if self.kind == "tanh":
            return np.tanh(x)
        if self.kind == "sigmoid":
            from scipy.special import expit
            return expit(x)
        # elu: x for x >= 0, alpha * (exp(x) - 1) otherwise
        return np.where(x >= 0.0, x, self.alpha * np.expm1(x))


RELU = Activation("relu")
IDENTITY = Activation("identity")
TANH = Activation("tanh")
SIGMOID = Activation("sigmoid")


def elu(alpha: float = 1.0) -> Activation:
    return Activation("elu", alpha)


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------

GAUSSIAN_IID = "gaussian"
GAUSSIAN_EQUICORRELATED = "equicorrelated"
STUDENT_T = "student_t"

FAN_IN = "fan_in"
FIXED = "fixed"

_NAN = float("nan")  # the unset student_t nu
_FAMILIES = (GAUSSIAN_IID, GAUSSIAN_EQUICORRELATED, STUDENT_T)
_SCALE_MODES = (FAN_IN, FIXED)


@dataclass(frozen=True)
class PriorSpec:
    """Zero-centered elliptical prior for one layer's weight matrix.

    Weight vectors of distinct units (columns) are mutually independent.
    Within a column, entries may be dependent: ``equicorrelated`` puts
    correlation ``rho`` between every pair of entries, ``student_t`` couples
    entries through a single chi-square mixing variable per column.

    ``sigma0`` is the base scale; with ``fan_in`` scaling the per-entry
    standard deviation is ``sigma0 / sqrt(fan_in)``, with ``fixed`` it is
    ``sigma0`` regardless of width.
    """

    family: str = GAUSSIAN_IID
    scale_mode: str = FAN_IN
    sigma0: float = 1.0
    rho: float = 0.0              # equicorrelated only
    nu: float = _NAN              # student_t only

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown prior family {self.family!r}")
        if self.scale_mode not in _SCALE_MODES:
            raise ConfigError(f"unknown scale mode {self.scale_mode!r}")
        if not (self.sigma0 > 0 and _finite(self.sigma0)):
            raise ConfigError(f"sigma0 must be positive and finite, got {self.sigma0}")
        if self.family == STUDENT_T and not (self.nu > 2 and _finite(self.nu)):
            raise ConfigError(f"student_t nu must be finite and exceed 2, got {self.nu}")
        # every NaN nu becomes the one _NAN object, so equal priors compare and hash equal
        if self.nu != self.nu:
            object.__setattr__(self, "nu", _NAN)

    def validate(self, fan_in: int) -> None:
        """Check what depends on the fan-in: the equicorrelated rho range."""
        if self.family == GAUSSIAN_EQUICORRELATED:
            lo = -1.0 / (fan_in - 1) if fan_in > 1 else -np.inf
            if not (lo < self.rho < 1.0):
                raise ConfigError(
                    f"equicorrelated rho={self.rho} outside positive-definite "
                    f"range ({lo}, 1) for fan-in {fan_in}"
                )

    def column_std(self, fan_in: int) -> float:
        if self.scale_mode == FAN_IN:
            return self.sigma0 / np.sqrt(fan_in)
        return self.sigma0

    def scatter_quadratic(self, x: np.ndarray, fan_in: int) -> np.ndarray:
        """Quadratic form x' Sigma x of the column scatter matrix.

        For the Gaussian families Sigma is the column covariance; for
        student_t it is the scatter matrix of the Gaussian core (the
        chi-square mixing is not part of Sigma).  ``x`` may be a single
        vector or a batch with vectors along the last axis.
        """
        s2 = self.column_std(fan_in) ** 2
        sq = np.sum(np.square(x), axis=-1)
        if self.family == GAUSSIAN_EQUICORRELATED and self.rho != 0.0:
            tot = np.sum(x, axis=-1)
            return s2 * ((1.0 - self.rho) * sq + self.rho * tot * tot)
        return s2 * sq


# ---------------------------------------------------------------------------
# Network configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetworkConfig:
    """Widths H_0..H_L, one activation, and one prior per hidden layer.

    ``widths[0]`` is the input dimension; the weight matrix feeding layer
    ``l`` has shape (widths[l-1], widths[l]).  Construction checks every
    invariant and raises :class:`ConfigError` on the first that fails.
    """

    widths: tuple[int, ...]
    activation: Activation = RELU
    priors: tuple[PriorSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ConfigError(f"need at least one hidden layer, got depth {self.depth}")
        _check_widths(self.widths)
        if len(self.priors) != self.depth:
            raise ConfigError(
                f"expected {self.depth} priors (one per hidden layer), got {len(self.priors)}")
        if not isinstance(self.activation, Activation):
            raise ConfigError("activation must be an Activation instance")
        for layer, prior in enumerate(self.priors, start=1):
            prior.validate(self.widths[layer - 1])

    @property
    def depth(self) -> int:
        return len(self.widths) - 1


def uniform_config(
    input_dim: int,
    hidden_width: int,
    depth: int,
    activation: Activation = RELU,
    prior: PriorSpec = PriorSpec(),
) -> NetworkConfig:
    """Network with ``depth`` hidden layers all of width ``hidden_width``."""
    if not _integer(depth):
        raise ConfigError(f"depth must be an integer, got {depth!r}")
    widths = (input_dim,) + (hidden_width,) * depth
    return NetworkConfig(widths, activation, (prior,) * depth)
