"""Closed-form spiked-model quantities and eigenvalue rescaling.

Under the spiked covariance model (all population eigenvalues 1 except
a few large "spikes"), sample eigenvalues, eigenvectors and PC scores
have known asymptotic distortions governed by the aspect ratio
gamma = p / n. This module provides:

* the almost-sure limit of a spiked sample eigenvalue and its inverse
  (the debiasing map),
* the limiting |cosine| between sample and population eigenvectors and
  between sample and population PC scores,
* the limiting shrinkage factor of out-of-sample score predictions and
  its reciprocal (the bias adjustment),
* the iterative rescaling that normalizes sample eigenvalues when the
  noise variance is unknown.

Everything below the detection threshold 1 + sqrt(gamma) is
asymptotically invisible: angles drop to 0 and no adjustment exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMatrix, DimensionError, DomainError, NotIdentifiable


def _check_gamma(gamma: float) -> None:
    if not gamma >= 0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    if gamma == math.inf:
        raise DomainError(f"gamma must be finite, got {gamma}")


def _check_spike(spike: float) -> None:
    if not spike > 1:
        raise DomainError(f"spike eigenvalue must exceed 1, got {spike}")


def detection_threshold(gamma: float) -> float:
    """Population eigenvalues at or below 1 + sqrt(gamma) are undetectable."""
    _check_gamma(gamma)
    return 1 + math.sqrt(gamma)


def sample_eigenvalue_limit(spike: float, gamma: float) -> float:
    """Almost-sure limit x (1 + gamma / (x - 1)) of a spiked sample eigenvalue."""
    _check_gamma(gamma)
    _check_spike(spike)
    return spike * (1 + gamma / (spike - 1))


def debias_eigenvalue(d: float, gamma: float) -> float:
    """Invert the sample-eigenvalue limit: the consistent population estimate.

    Defined for d at or above the upper noise edge (1 + sqrt(gamma))^2;
    below it the caller should classify the component as noise instead.
    """
    _check_gamma(gamma)
    b = (1 + math.sqrt(gamma)) ** 2
    if not d >= b:
        raise DomainError(
            f"d={d} is below the noise edge {b}; no spike estimate exists"
        )
    disc = (d + 1 - gamma) ** 2 - 4 * d
    return (d + 1 - gamma + math.sqrt(max(disc, 0.0))) / 2


def _debias_many(d: np.ndarray, gamma: float) -> np.ndarray:
    """Vectorized debias_eigenvalue for values already known to be >= edge."""
    disc = np.maximum((d + 1 - gamma) ** 2 - 4 * d, 0.0)
    return (d + 1 - gamma + np.sqrt(disc)) / 2


def eigenvector_angle(spike: float, gamma: float) -> float:
    """Limiting |cos| between the sample and population spike eigenvectors.

    sqrt((1 - gamma/(x-1)^2) / (1 + gamma/(x-1))) above the detection
    threshold, 0 at or below it.
    """
    _check_gamma(gamma)
    _check_spike(spike)
    if spike <= detection_threshold(gamma):
        return 0.0
    x1 = spike - 1
    return math.sqrt((1 - gamma / x1**2) / (1 + gamma / x1))


def score_angle(spike: float, gamma: float) -> float:
    """Limiting |cos| between normalized sample and population PC scores.

    sqrt(1 - gamma/(x-1)^2) above the detection threshold, 0 at or
    below it. Always at least as large as the eigenvector angle.
    """
    _check_gamma(gamma)
    _check_spike(spike)
    if spike <= detection_threshold(gamma):
        return 0.0
    return math.sqrt(1 - gamma / (spike - 1) ** 2)


def shrinkage_factor(spike: float, gamma: float) -> float:
    """Limiting RMS ratio (x-1)/(x+gamma-1) of predicted to in-sample scores.

    Only defined above the detection threshold; increasing in the spike
    size, decreasing in gamma.
    """
    if not spike > detection_threshold(gamma):
        raise DomainError(
            f"shrinkage factor needs a spike above {detection_threshold(gamma)}, "
            f"got {spike}"
        )
    return _shrinkage(spike, gamma)


def _shrinkage(spike: float, gamma: float) -> float:
    return (spike - 1) / (spike + gamma - 1)


def adjustment_factor(d_hat: float, gamma: float) -> float:
    """Multiplier that removes the prediction shrinkage, from a rescaled d.

    1 / shrinkage at the debiased eigenvalue, as FittedPcModel.adjustment
    takes it. Raises NotIdentifiable when d_hat does not exceed the
    noise edge.
    """
    _check_gamma(gamma)
    b = (1 + math.sqrt(gamma)) ** 2
    if d_hat <= b:
        raise NotIdentifiable(
            f"d_hat={d_hat} does not exceed the noise edge {b}; "
            "component is not adjustable"
        )
    return 1.0 / _shrinkage(debias_eigenvalue(d_hat, gamma), gamma)


# ---------------------------------------------------------------------------
# eigenvalue rescaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RescaledSpectrum:
    """Result of the eigenvalue rescaling iteration.

    ``d_hat`` = tau * r keeps the ordering and ratios of the input;
    ``lambda_hat`` holds the debiased population estimates (1 for
    components at or below the noise edge); ``k`` counts the spikes
    (lambda_hat > 1); ``tau`` is the converged total-eigenvalue
    normalizer.
    """

    d_hat: np.ndarray
    lambda_hat: np.ndarray
    k: int
    tau: float
    gamma: float
    iterations: int
    converged: bool


def rescale_eigenvalues(
    d_star,
    p: int,
    n: int,
    tol: float = 1e-10,
    max_iter: int = 500,
    gamma: float | None = None,
    total: float | None = None,
) -> RescaledSpectrum:
    """Normalize sample eigenvalues so the debiasing map applies.

    ``d_star`` must be all min(p, n) sample eigenvalues, non-negative
    and non-increasing. Starting from d_hat = p * r (r the trace
    shares), the iteration alternates debiasing the values above the
    noise edge with re-estimating the total eigenvalue mass
    T = sum(lambda_hat) + p - k, until successive totals differ by at
    most tol * p or a step reverses the previous one, which only
    rounding at the fixed point can do.

    ``total`` is the sum of all min(p, n) eigenvalues when ``d_star``
    holds only the leading ones; the result then describes those. It
    equals the full rescaling as long as every omitted eigenvalue e
    stays at or below the noise edge, tau * e / total <= (1 +
    sqrt(gamma))^2: T only grows, so such an e is below the edge at
    every iterate. ``gamma`` overrides p / n for spectra whose aspect
    ratio is not that of the supplied matrix. If max_iter is exhausted
    the last iterate is returned with converged=False.
    """
    if p < 1 or n < 1:
        raise DimensionError(f"p and n must be >= 1, got p={p}, n={n}")
    # p / n is taken in doubles, which hold every integer up to 2**53
    for name, count in (("p", p), ("n", n)):
        if count > 2**53:
            raise DimensionError(f"{name} must be <= 2**53, got {count}")
    d = np.asarray(d_star, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise DomainError("d_star must be a non-empty 1-D array")
    if not np.isfinite(d).all():
        raise DomainError("d_star contains non-finite values")
    if (d < 0).any():
        raise DomainError("d_star contains negative eigenvalues")
    if (np.diff(d) > 0).any():
        raise DomainError("d_star must be sorted in non-increasing order")
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
    if tol == math.inf:
        raise DomainError(f"tol must be finite, got {tol}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    if total is None:
        total = d.sum()
    elif not (math.isfinite(total) and total >= 0):
        raise DomainError(f"total must be finite and >= 0, got {total}")
    if total == 0:
        raise DegenerateMatrix("all sample eigenvalues are zero")
    if gamma is None:
        gamma = p / n
    _check_gamma(gamma)

    b = (1 + math.sqrt(gamma)) ** 2
    r = d / total
    T = float(p)
    converged = False
    iterations = 0
    previous = 0.0
    for it in range(1, max_iter + 1):
        iterations = it
        d_hat = T * r
        mask = d_hat > b
        k_l = int(mask.sum())
        T_new = float(_debias_many(d_hat[mask], gamma).sum() + p - k_l)
        delta = T_new - T
        T = T_new
        # T -> sum(lambda_hat) + p - k never decreases: each lambda_hat has
        # slope > 1/2 in d above the edge, and a component crossing the
        # edge swaps a 1 for 1 + sqrt(gamma). So the iterates move one way,
        # and a step against the previous one is rounding at the fixed point.
        if abs(delta) <= tol * p or delta * previous < 0:
            converged = True
            break
        previous = delta

    tau = T
    d_hat = tau * r
    mask = d_hat > b
    lambda_hat = np.ones_like(d_hat)
    lambda_hat[mask] = _debias_many(d_hat[mask], gamma)
    return RescaledSpectrum(
        d_hat=d_hat,
        lambda_hat=lambda_hat,
        k=int(mask.sum()),
        tau=tau,
        gamma=gamma,
        iterations=iterations,
        converged=converged,
    )
