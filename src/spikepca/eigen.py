"""Deterministic eigendecomposition of the sample covariance X X^T / n.

For p > n the decomposition goes through the n x n Gram matrix
X^T X / n, whose nonzero eigenvalues equal those of the covariance;
covariance eigenvectors are recovered as X h / sqrt(n d). Eigenvector
signs are fixed (largest-magnitude entry positive, ties to the lowest
index) so results are reproducible byte for byte.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMatrix, DimensionError
from .matrix_io import DataMatrix

# Eigenvalues below RANK_TOL * d_1 are treated as numerical zeros: they are
# clamped and their eigenvectors are not materialized.
RANK_TOL = 1e-12


@dataclass(frozen=True)
class SampleEigen:
    """Spectrum of X X^T / n.

    ``d`` holds all min(p, n) eigenvalues in non-increasing order; ``U``
    holds only the retained leading eigenvectors (p x k, k possibly
    smaller than requested if the matrix is rank deficient). ``gamma``
    is the aspect ratio p / n of the source matrix.
    """

    d: np.ndarray
    U: np.ndarray
    gamma: float

    @property
    def k(self) -> int:
        return self.U.shape[1]

    @property
    def p(self) -> int:
        return self.U.shape[0]


def _fix_signs(U: np.ndarray) -> np.ndarray:
    """Make the largest-|entry| of each column positive (first on ties)."""
    idx = np.argmax(np.abs(U), axis=0)
    flip = U[idx, np.arange(U.shape[1])] < 0
    U[:, flip] *= -1.0
    return U


def descending_eigh(M: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Eigenpairs of a symmetric matrix under the package's rank rule.

    Returns (d, V, k_eff): eigenvalues in non-increasing order (stable
    for ties) with those below RANK_TOL * d_1 clamped to zero, the
    eigenvectors as columns in the same order, and k_eff = min(k,
    numerical rank). Raises DegenerateMatrix when the rank is zero.
    """
    w, V = np.linalg.eigh(M)
    order = np.argsort(w, kind="stable")[::-1]
    d = w[order]
    d = np.where(d < RANK_TOL * max(d[0], 0.0), 0.0, d)
    k_eff = min(k, int(np.count_nonzero(d > 0)))
    if k_eff == 0:
        raise DegenerateMatrix("matrix has no positive eigenvalues")
    return d, V[:, order], k_eff


def sample_eigen(X: DataMatrix, k: int | Callable[[np.ndarray], int]) -> SampleEigen:
    """Leading eigenpairs of the sample covariance of X.

    Returns all min(p, n) eigenvalues and the first ``k`` eigenvectors
    (fewer if the numerical rank is smaller). ``k`` is an int or a
    function of the non-increasing eigenvalues returning that int; the
    function runs after the decomposition and before any eigenvector
    is built, so callers can choose k from the spectrum. Raises
    DimensionError for k outside [1, min(p, n)] and DegenerateMatrix
    for an all-zero X.
    """
    p, n = X.p, X.n
    m = min(p, n)
    if not callable(k):
        _check_k(k, m)
    A = X.values
    if not A.any():
        raise DegenerateMatrix("cannot decompose an all-zero matrix")

    d, V, rank = descending_eigh(A @ A.T / n if p <= n else A.T @ A / n, m)
    if callable(k):
        k = k(d)
        _check_k(k, m)
    k_eff = min(k, rank)
    if p <= n:
        U = np.array(V[:, :k_eff])
    else:
        U = A @ (V[:, :k_eff] / np.sqrt(n * d[:k_eff]))
    U = _fix_signs(np.ascontiguousarray(U))
    return SampleEigen(d=d, U=U, gamma=p / n)


def _check_k(k: int, m: int) -> None:
    if not 1 <= k <= m:
        raise DimensionError(f"k must be in [1, {m}], got {k}")


def pc_scores(X: DataMatrix, eig: SampleEigen) -> np.ndarray:
    """Project the training matrix onto the retained eigenvectors.

    Returns the k x n sample scores; row v is u_v^T X.
    """
    if eig.p != X.p:
        raise DimensionError(
            f"eigenvectors are for p={eig.p} variables, matrix has p={X.p}"
        )
    return eig.U.T @ X.values
