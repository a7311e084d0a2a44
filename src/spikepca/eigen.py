"""Deterministic eigendecomposition of the sample covariance X X^T / n.

For p > n the decomposition goes through the n x n Gram matrix
X^T X / n, whose nonzero eigenvalues equal those of the covariance;
covariance eigenvectors are recovered as X h / sqrt(n d). Eigenvector
signs are fixed (largest-magnitude entry positive, ties to the lowest
index) so results are reproducible byte for byte. downdate_leading
gives the leading eigenvalues of diagonal-minus-rank-one matrices, the
jackknife's leave-one-out replicates, by the secular equation.
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


def descending_eigh(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Eigenpairs of a symmetric matrix under the package's rank rule.

    Returns (d, V, rank): eigenvalues in non-increasing order (stable
    for ties) with those below RANK_TOL * d_1 clamped to zero, the
    eigenvectors as columns in the same order, and the numerical rank,
    the count of eigenvalues left positive. Raises DegenerateMatrix
    when the rank is zero.
    """
    w, V = np.linalg.eigh(M)
    order = np.argsort(w, kind="stable")[::-1]
    d = w[order]
    d = np.where(d < RANK_TOL * max(d[0], 0.0), 0.0, d)
    rank = int(np.count_nonzero(d > 0))
    if rank == 0:
        raise DegenerateMatrix("matrix has no positive eigenvalues")
    return d, V[:, order], rank


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

    d, V, rank = descending_eigh(A @ A.T / n if p <= n else A.T @ A / n)
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


def project(U: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Scores U^T X, summed in an order that no BLAS thread count changes.

    OpenBLAS splits the sum over p between threads for some shapes of a
    k x p by p x m product, and for some shapes of a vector-matrix
    product too, so U.T @ X can round differently at 1 and 2 threads.
    einsum sums in numpy's own single-threaded loop, which depends only
    on the memory layout, fixed here as C order.
    """
    return np.einsum("ik,ij->kj", np.ascontiguousarray(U), np.ascontiguousarray(X))


def pc_scores(X: DataMatrix, eig: SampleEigen) -> np.ndarray:
    """Project the training matrix onto the retained eigenvectors.

    Returns the k x n sample scores; row v is u_v^T X.
    """
    if eig.p != X.p:
        raise DimensionError(
            f"eigenvectors are for p={eig.p} variables, matrix has p={X.p}"
        )
    return project(eig.U, X.values)


EPS = np.finfo(np.float64).eps
# Poles closer than DEFLATE_TOL * lam_1 are merged, and a weight whose
# coupling rho |w_i| |w| is at most DEFLATE_TOL * max(lam_1, rho |w|^2) is
# dropped: either changes the matrix by a few ulps of its norm (LAPACK's
# dlaed2 rule).
DEFLATE_TOL = 8 * EPS
# Elements of one rows x roots x poles temporary of the secular solve.
SECULAR_BLOCK = 1 << 18
SECULAR_MAX_ITER = 100


def downdate_leading(
    lam: np.ndarray, W: np.ndarray, rho: float, k: int, v: int
) -> tuple[np.ndarray, np.ndarray]:
    """Leading eigenvalues of diag(lam) - rho w w' for each row w of W.

    ``lam`` is non-increasing and non-negative, ``rho`` positive, and
    k <= lam.size. Returns (mu, score): mu[r] holds the k largest
    eigenvalues of row r's matrix in non-increasing order, and score[r]
    is rho q'w >= 0 for the unit eigenvector q of mu[r, v].

    The eigenvalues that are not a pole lam_i are the roots of the
    secular equation 1 = rho sum_i w_i^2 / (lam_i - mu), one between each
    pair of neighbouring poles and the last one above lam_r - rho |w|^2
    (Golub 1973; Bunch, Nielsen & Sorensen 1978). Tied poles are merged,
    leaving the other copies as eigenvalues, and a pole whose weight
    is negligible is an eigenvalue itself with q'w taken as 0. Each
    root is found as an offset t from its nearer pole, so the distances
    lam_i - mu near it keep full relative accuracy, and
    q = (diag(lam) - mu)^-1 w / norm gives rho q'w = 1 / sqrt(sum_i
    w_i^2 / (lam_i - mu)^2) by the secular equation. Per row this costs
    O(k n) per iteration instead of an O(n^3) eigendecomposition.
    """
    split = np.flatnonzero(-np.diff(lam) > DEFLATE_TOL * lam[0]) + 1
    starts = np.concatenate(([0], split))
    poles = lam[starts]
    tied = np.delete(lam, starts)
    kk = min(k, poles.size)
    rows = max(1, SECULAR_BLOCK // (kk * poles.size))
    mu = np.empty((W.shape[0], k))
    score = np.empty(W.shape[0])
    for lo in range(0, W.shape[0], rows):
        block = slice(lo, lo + rows)
        weights = np.add.reduceat(W[block] ** 2, starts, axis=1)
        mu[block], score[block] = _secular_block(poles, tied, weights, rho, k, v)
    return mu, score


def _secular_block(poles, tied, weights, rho, k, v):
    """downdate_leading for a few rows of weights w_i^2 summed over tied poles."""
    R, r = weights.shape
    kk = min(k, r)
    norm2 = weights.sum(axis=1)
    live = rho * np.sqrt(weights * norm2[:, None]) > (
        DEFLATE_TOL * np.maximum(poles[0], rho * norm2)[:, None]
    )
    # live poles first, each in decreasing order: root i lies below live pole i
    order = np.argsort(~live, axis=1, kind="stable")
    P = poles[order]
    live = np.take_along_axis(live, order, axis=1)
    om = np.where(live, np.take_along_axis(weights, order, axis=1), 0.0)
    count = live.sum(axis=1)[:, None]
    # dropped poles leave every sum through an infinite distance
    inert = np.where(live, 0.0, np.inf)[:, None, :]

    i = np.arange(kk)
    solved = i < count
    last = i == count - 1
    upper = P[:, :kk]
    below_next = np.concatenate([P[:, 1:], P[:, -1:]], axis=1)[:, :kk]
    lower = np.where(last, upper - rho * norm2[:, None], below_next)
    # f(mid) > 0 puts the root in the upper half of its bracket; an
    # unsolved slot evaluates above every pole, where nothing divides by 0
    mid = np.where(solved, 0.5 * (upper + lower), 2.0 * poles[0] + 1.0)
    f_mid = 1.0 - rho * _sums(om, P[:, None, :] - mid[:, :, None] + inert)[0]
    from_upper = last | (f_mid > 0) | ~solved
    o = np.where(from_upper, i, i + 1)
    origin = np.take_along_axis(P, o, axis=1)
    om_o = np.where(solved, np.take_along_axis(om, o, axis=1), 0.0)
    D = P[:, None, :] - origin[:, :, None] + inert
    np.put_along_axis(D, o[:, :, None], np.inf, axis=2)
    # mu = origin + t with t in (lo, hi), the half bracket next to the origin
    lo = np.where(from_upper, np.where(last, lower, mid) - upper, 0.0)
    hi = np.where(from_upper, 0.0, mid - lower)
    t = np.where(solved, 0.5 * (lo + hi), 0.0)
    done = ~solved
    for _ in range(SECULAR_MAX_ITER):
        # Newton on F(t) = (lam_o - mu) f(mu), which has no pole at t = 0,
        # bisecting when a step leaves the bracket
        S1, S2 = _sums(om, D - t[:, :, None])
        g = 1.0 - rho * S1
        F = -t * g - rho * om_o
        dF = t * rho * S2 - g
        below = (F > 0) == from_upper
        lo = np.where(below & ~done, t, lo)
        hi = np.where(below | done, hi, t)
        step = np.divide(F, dF, out=np.zeros_like(t), where=dF != 0)
        tol = 2 * EPS * np.abs(t)
        done |= (F == 0) | ((np.abs(step) <= tol) & (dF != 0)) | (hi - lo <= tol)
        t_new = t - step
        t_new = np.where((t_new > lo) & (t_new < hi), t_new, 0.5 * (lo + hi))
        t = np.where(done, t, t_new)
        if done.all():
            break
    S2 = _sums(om, D - t[:, :, None])[1] + np.divide(
        om_o, t * t, out=np.zeros_like(t), where=solved
    )
    roots = np.where(solved, origin + t, -np.inf)
    root_score = np.divide(1.0, np.sqrt(S2), out=np.zeros_like(t), where=solved)

    candidates = np.concatenate(
        [roots, np.where(live, -np.inf, P), np.broadcast_to(tied, (R, tied.size))],
        axis=1,
    )
    rank = np.argsort(-candidates, axis=1, kind="stable")[:, :k]
    mu = np.take_along_axis(candidates, rank, axis=1)
    slot = rank[:, v : v + 1]
    score = np.where(
        slot < kk, np.take_along_axis(root_score, np.minimum(slot, kk - 1), axis=1), 0.0
    )
    return mu, score[:, 0]


def _sums(om, delta):
    """sum_i om_i / delta_i and sum_i om_i / delta_i^2 over the last axis."""
    q = om[:, None, :] / delta
    return q.sum(axis=2), (q / delta).sum(axis=2)
