"""Similarity metrics between normalized power spectra.

Spectra are compared as probability distributions: the Jensen-Shannon
divergence of a weighted ensemble measures how far the members sit from
their mixture, the Kullback-Leibler distance measures how far one member
sits from another (asymmetric), and the mean of the full KL matrix
(diagonal included) gives a single dispersion number per window.  All
values are in nats.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFitError,
    DimensionError,
    UndefinedCorrelationError,
)
from .spectra import NormalizedSpectrum, entropies

# Default clamp applied to both arguments of a KL distance before
# renormalizing.  Keeps distances finite on spectra with empty bins while
# leaving typical tapered-periodogram spectra (strictly positive bins)
# untouched.  Pass floor=0 for the literal definition, which may be +inf.
DEFAULT_KL_FLOOR = 1e-12


@dataclass(frozen=True)
class WeightVector:
    """Strictly positive mixture weights summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a non-empty 1-D array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be finite and strictly positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {float(w.sum())!r}")
        frozen = w.copy()
        frozen.setflags(write=False)
        object.__setattr__(self, "weights", frozen)

    @classmethod
    def uniform(cls, m: int) -> "WeightVector":
        if m < 1:
            raise ValueError("need at least one weight")
        return cls(np.full(m, 1.0 / m))

    @property
    def size(self) -> int:
        return self.weights.size

    def entropy(self) -> float:
        """Shannon entropy of the weights; an upper bound for the JS divergence."""
        return float(entropies(self.weights))


def _check_same_grid(p: NormalizedSpectrum, q: NormalizedSpectrum) -> None:
    if p.probs.size != q.probs.size or p.dt != q.dt:
        raise DimensionError(
            f"spectra on different grids: ({p.probs.size} bins, dt={p.dt}) vs "
            f"({q.probs.size} bins, dt={q.dt})"
        )


def _stack(spectra: Sequence[NormalizedSpectrum]) -> np.ndarray:
    """Member distributions of an ensemble as an (M, N-1) array."""
    spectra = tuple(spectra)
    if len(spectra) < 2:
        raise DimensionError("an ensemble needs at least two spectra")
    for s in spectra[1:]:
        _check_same_grid(spectra[0], s)
    return np.vstack([s.probs for s in spectra])


def floored(probs: np.ndarray, floor: float) -> np.ndarray:
    """Distributions clamped below by `floor` and renormalized (unchanged at 0)."""
    if not (math.isfinite(floor) and floor >= 0):
        raise ValueError(f"floor must be finite and nonnegative, got {floor}")
    if floor == 0:
        return probs
    clipped = np.maximum(probs, floor)
    return clipped / clipped.sum(axis=-1, keepdims=True)


def js_divergences(probs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """JS divergence of each (M, B) ensemble in a (..., M, B) stack.

    H(sum_j pi_j p_j) - sum_j pi_j H(p_j), clamped at zero against
    rounding.
    """
    mixture = np.matmul(weights, probs)
    return np.maximum(entropies(mixture) - entropies(probs) @ weights, 0.0)


def kl_matrices(probs: np.ndarray) -> np.ndarray:
    """Pairwise KL distances of each (M, B) ensemble in a (..., M, B) stack.

    Entry (l, m) is KL(p_l, p_m) = sum p_l*log(p_l) - sum p_l*log(p_m).
    Bins where p_l = 0 contribute nothing, and a bin with p_l > 0 but
    p_m = 0 makes the entry +inf; callers that want a finite result pass
    `floored` distributions.
    The diagonal is exactly zero and every entry is nonnegative.
    """
    live = probs > 0
    log_p = np.log(np.where(live, probs, 1.0))
    # Both terms go through einsum: identical members then cancel exactly.
    self_term = np.einsum("...mb,...mb->...m", probs, log_p)
    kl = self_term[..., None] - np.einsum("...mb,...nb->...mn", probs, log_p)
    kl = np.maximum(kl, 0.0)
    if not live.all():
        kl[np.matmul(live, ~live.swapaxes(-1, -2))] = np.inf
    diagonal = np.arange(kl.shape[-1])
    kl[..., diagonal, diagonal] = 0.0
    return kl


def mean_kls(kl: np.ndarray) -> np.ndarray:
    """Mean of all M*M entries of each KL matrix, zero diagonal included."""
    m = kl.shape[-1]
    return kl.sum(axis=(-2, -1)) / (m * m)


def kl_spectral_distance(
    p: NormalizedSpectrum, q: NormalizedSpectrum, floor: float = DEFAULT_KL_FLOOR
) -> float:
    """Relative entropy sum p*log(p/q) between two spectra, in nats.

    With floor > 0 both distributions are clamped below by `floor` and
    renormalized first, which keeps the result finite.  With floor = 0 the
    definition is applied literally: bins where p = 0 contribute nothing,
    and a bin with p > 0 but q = 0 makes the distance +inf.
    """
    return float(kl_matrices(floored(_stack((p, q)), floor))[0, 1])


def js_spectral_divergence(
    spectra: Sequence[NormalizedSpectrum], weights: WeightVector | None = None
) -> float:
    """Jensen-Shannon divergence of two or more spectra, in nats.

    H(sum_j pi_j p_j) - sum_j pi_j H(p_j) with the entropy of the
    weighted mixture taken first.  Nonnegative, zero exactly when all
    members coincide, and bounded above by the entropy of the weights.
    Weights default to uniform.
    """
    probs = _stack(spectra)
    w = weights if weights is not None else WeightVector.uniform(len(probs))
    if w.size != len(probs):
        raise DimensionError(f"{len(probs)} spectra but {w.size} weights")
    return float(js_divergences(probs, w.weights))


def kl_matrix(
    spectra: Sequence[NormalizedSpectrum], floor: float = DEFAULT_KL_FLOOR
) -> np.ndarray:
    """All pairwise KL distances; entry (l, m) is KL(p_l, p_m).

    The diagonal is exactly zero.  The matrix is generally asymmetric.
    """
    return kl_matrices(floored(_stack(spectra), floor))


def mean_kl(matrix: np.ndarray) -> float:
    """Mean of all M*M entries of a KL matrix, zero diagonal included."""
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return float(mean_kls(a))


def _check_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Two metric series as float arrays: 1-D, equal length >= 2, finite."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
        raise DimensionError(f"series must be 1-D and the same length, got {x.shape} vs {y.shape}")
    if x.size < 2:
        raise DimensionError("need at least two samples")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("metric series entries must be finite")
    return x, y


def cross_correlation(a, b) -> float:
    """Pearson coefficient (<ab> - <a><b>)/(sigma_a*sigma_b), population moments."""
    x, y = _check_pair(a, b)
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise UndefinedCorrelationError("correlation undefined for a constant series")
    mx, my = float(x.mean()), float(y.mean())
    cov = float((x * y).mean()) - mx * my
    var_x = max(0.0, float((x * x).mean()) - mx * mx)
    var_y = max(0.0, float((y * y).mean()) - my * my)
    if var_x == 0.0 or var_y == 0.0:
        raise UndefinedCorrelationError("correlation undefined for a zero-variance series")
    c = cov / math.sqrt(var_x * var_y)
    return min(1.0, max(-1.0, c))


def fit_proportionality(x, y) -> float:
    """Least-squares slope of y = slope * x constrained through the origin."""
    xv, yv = _check_pair(x, y)
    sxx = float((xv * xv).sum())
    if sxx == 0.0:
        raise DegenerateFitError("cannot fit a slope against an all-zero series")
    return float((xv * yv).sum()) / sxx


def fit_affine(x, y) -> tuple[float, float]:
    """Unconstrained least-squares line y = slope * x + intercept (diagnostic)."""
    xv, yv = _check_pair(x, y)
    mx, my = float(xv.mean()), float(yv.mean())
    sxx = float(((xv - mx) ** 2).sum())
    if sxx == 0.0:
        raise DegenerateFitError("cannot fit a line against a constant series")
    slope = float(((xv - mx) * (yv - my)).sum()) / sxx
    return slope, my - slope * mx
