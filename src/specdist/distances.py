"""Similarity metrics between normalized power spectra.

Spectra are compared as probability distributions: the Jensen-Shannon
divergence of a weighted ensemble measures how far the members sit from
their mixture, the Kullback-Leibler distance measures how far one member
sits from another (asymmetric), and the mean of the full KL matrix
(diagonal included) gives a single dispersion number per window.  All
values are in nats.

Each metric is one array kernel over a (..., M, B) stack of M member
distributions on B bins, frequency on the last axis: `js_divergences`,
`kl_matrices` and `mean_kls`, with `floored` for the KL floor.  Each bin's
term of JS and KL is linear in the distributions at a fixed ratio of
them, so a bin holding c equal bins scores as those c bins: the kernels
score a one-sided (folded) spectrum as they score the full one, and
only the floor needs the bins' multiplicity.  The kernels take rows as
`spectra.normalize_power` makes them (nonnegative, summing to one) and
weights as `AnalysisConfig` checks them; they do not re-check either.
The fits below guard their own inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateFitError, DimensionError, UndefinedCorrelationError

# Default clamp applied to both arguments of a KL distance before
# renormalizing.  Keeps distances finite on spectra with empty bins while
# leaving typical tapered-periodogram spectra (strictly positive bins)
# untouched.  Pass floor=0 for the literal definition, which may be +inf.
DEFAULT_KL_FLOOR = 1e-12


def floored(probs: np.ndarray, floor: float, multiplicity=1.0) -> np.ndarray:
    """Distributions clamped below and renormalized (unchanged at floor 0).

    Bin b stands for c = multiplicity[b] equal bins (`spectra.bin_multiplicities`
    for one-sided spectra; default 1), so it is clamped at c*floor: the
    result is the folded form of the full distribution clamped at `floor`.
    """
    if not (math.isfinite(floor) and floor >= 0):
        raise ValueError(f"floor must be finite and nonnegative, got {floor}")
    if floor == 0:
        return probs
    clipped = np.maximum(probs, floor * multiplicity)
    return clipped / clipped.sum(axis=-1, keepdims=True)


def _log_ratios(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """log(p / q) for positive p and q, through log1p where p is close to q.

    There p - q is exact, so the log keeps its relative precision instead
    of taking the absolute error of rounding p / q.
    """
    x = (p - q) / q
    with np.errstate(divide="ignore"):  # x = -1 where p / q underflows; not picked
        near = np.log1p(x)
    return np.where(np.abs(x) < 0.5, near, np.log(p / q))


def js_divergences(probs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """JS divergence of each (M, B) ensemble in a (..., M, B) stack.

    H(mbar) - sum_j pi_j H(p_j) with mbar = sum_j pi_j p_j, summed bin by
    bin as sum_j pi_j (p_j log(p_j / mbar) - p_j + mbar): the added terms
    total zero, and each bin's term is nonnegative and small for close
    members.  So the rounding error shrinks with the divergence instead of
    staying at the size of the entropies, and a rounding of the weights'
    or the rows' sums moves the result only at second order.  Clamped at
    zero against rounding: zero when all members coincide, and at most the
    entropy of the weights.
    """
    mixture = np.matmul(weights, probs)[..., None, :]
    # With positive weights, p_j > 0 makes mbar > 0 unless it underflows.
    live = (probs > 0) & (mixture > 0)
    log_ratio = _log_ratios(np.where(live, probs, 1.0), np.where(live, mixture, 1.0))
    terms = probs * log_ratio - (probs - mixture)
    return np.maximum(terms.sum(axis=-1) @ weights, 0.0)


def kl_matrices(probs: np.ndarray) -> np.ndarray:
    """Pairwise KL distances of each (M, B) ensemble in a (..., M, B) stack.

    Entry (l, m) is KL(p_l, p_m) = sum p_l*log(p_l) - sum p_l*log(p_m).
    Bins where p_l = 0 contribute nothing, and a bin with p_l > 0 but
    p_m = 0 makes the entry +inf; callers that want a finite result pass
    `floored` distributions.
    The diagonal is exactly zero and every entry is nonnegative.
    """
    live = probs > 0
    # Logs relative to the largest member in each bin: the reference cancels
    # from every entry, and for close members the terms are small, so the
    # two sums below do not cancel digits of the order of an entropy.
    top = probs.max(axis=-2, keepdims=True)
    log_p = _log_ratios(np.where(live, probs, 1.0), np.where(live, top, 1.0))
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
