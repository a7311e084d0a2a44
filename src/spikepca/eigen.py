"""Deterministic eigendecomposition of the sample covariance X X^T / n.

For p > n the decomposition goes through the n x n Gram matrix
X^T X / n, whose nonzero eigenvalues equal those of the covariance;
covariance eigenvectors are recovered as X h / sqrt(n d). That choice
is made in this module alone: sample_eigen and the jackknife share
_covariance_eigh, and the jackknife's downdate reads its basis through
_scatter_coordinates. The product, the Gram-side eigenvectors, the
scatter coordinates and project read Z = prep.apply(X) from
matrix_io._standardized, the one stream of data into standardized
coordinates, in blocks of at most matrix_io.BLOCK_CELLS cells, so no
standardized copy of X is made (under mode none the one block is X
itself).
Every decomposition runs through descending_eigh's one LAPACK chain:
it tridiagonalizes once, keeps every eigenvalue and back-transforms the
eigenvectors its caller keeps, k of them for sample_eigen (its count)
and all of them for the jackknife, whose downdate needs the whole
basis. Eigenvector signs are fixed
(largest-magnitude entry positive, ties to the lowest index) so results
are reproducible byte for byte.
downdate_leading gives the leading eigenvalues of
diagonal-minus-rank-one matrices, the jackknife's leave-one-out
replicates, by the secular equation.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import _workers
from .errors import DegenerateMatrix, DimensionError, DomainError
from .matrix_io import DataMatrix, Preprocessing, _standardized

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


def descending_eigh(
    M: np.ndarray, count: int | Callable[[np.ndarray], int] | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Eigenpairs of a symmetric matrix under the package's rank rule.

    Returns (d, V, rank): eigenvalues in non-increasing order (stable
    for ties) with those below RANK_TOL * d_1 clamped to zero, the
    eigenvectors as columns in the same order, and the numerical rank,
    the count of eigenvalues left positive. Raises DegenerateMatrix
    when the rank is zero.

    Without ``count`` V holds every eigenvector. With it, V holds the
    first min(count, rank) only; ``count`` is an int or a function of d
    returning one, called once before any eigenvector is built. The
    decomposition is LAPACK's dsytrd, dstedc and a dormtr over the kept
    columns alone, the steps of the dsyevd that np.linalg.eigh runs, so
    d keeps eigh's bits (_tridiagonal_eigh). np.linalg.eigh itself runs
    only where numpy's OpenBLAS lacks those routines, or for entries
    that dsyevd would scale first.
    """
    routines = None
    if _SAFE_MIN <= max(M.max(), -M.min()) <= _SAFE_MAX:
        routines = _lapack_routines()
    if routines is None:
        w, V = np.linalg.eigh(M)
    else:
        w, V, back_transform = _tridiagonal_eigh(M, routines)
    order = np.argsort(w, kind="stable")[::-1]
    d = _rank_clamped(w[order])
    rank = int(np.count_nonzero(d > 0))
    if rank == 0:
        raise DegenerateMatrix("matrix has no positive eigenvalues")
    if count is not None:
        order = order[: min(count(d) if callable(count) else count, rank)]
    V = V[:, order]
    return d, V if routines is None else back_transform(V), rank


def _rank_clamped(d: np.ndarray) -> np.ndarray:
    """Non-increasing eigenvalues d with those below RANK_TOL * d_1 set
    to zero: the package's one rank rule."""
    return np.where(d < RANK_TOL * max(d[0], 0.0), 0.0, d)


# dsyevd scales a matrix whose largest |entry| lies outside [_SAFE_MIN,
# _SAFE_MAX] before it tridiagonalizes; descending_eigh leaves those to eigh
_SMLNUM = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
_SAFE_MIN, _SAFE_MAX = float(np.sqrt(_SMLNUM)), float(np.sqrt(1 / _SMLNUM))
# Fortran arguments, all by reference: c a character, i a 64-bit integer
# (info last), a an array; each character's length follows, by value
_LAPACK = {
    "scipy_dsytrd_64_": "ciaiaaaaii",
    "scipy_dstedc_64_": "ciaaaiaiaii",
    "scipy_dormtr_64_": "ccciiaiaaiaii",
}
_CTYPES = {
    "c": ctypes.c_char_p,
    "i": ctypes.POINTER(ctypes.c_int64),
    "a": ctypes.c_void_p,
}


@functools.cache
def _lapack_routines():
    """dsytrd, dstedc and dormtr of numpy's bundled OpenBLAS with their
    argument types declared, once, or None where it does not export them."""
    routines = _workers.openblas(*_LAPACK)
    for routine, signature in zip(routines or (), _LAPACK.values()):
        lengths = [ctypes.c_size_t] * signature.count("c")
        routine.argtypes = [_CTYPES[c] for c in signature] + lengths
        routine.restype = None
    return routines


def _tridiagonal_eigh(M, routines):
    """(w, Z, back_transform): the ascending eigenvalues of M, the
    eigenvectors Z of its tridiagonal form T = Q'MQ, and the map of
    columns of Z to eigenvectors QZ of M. These are the steps of
    LAPACK's dsyevd on the lower triangle of a Fortran-order copy, as
    np.linalg.eigh runs it, with the back-transformation (dormtr) done
    for the caller's columns instead of all n."""
    n = M.shape[0]
    dsytrd, dstedc, dormtr = routines
    A = np.array(M, dtype=np.float64, order="F")
    w, e, tau = np.empty(n), np.empty(max(n - 1, 1)), np.empty(max(n - 1, 1))
    work = _workspace(dsytrd, "L", n, A, n, w, e, tau)
    _lapack(dsytrd, "L", n, A, n, w, e, tau, work, work.size)
    Z = np.empty((n, n), order="F")
    query = (np.empty(1), -1, np.empty(1, dtype=np.int64), -1)
    _lapack(dstedc, "I", n, w, e, Z, n, *query)
    work = np.empty(int(query[0][0]))
    iwork = np.empty(int(query[2][0]), dtype=np.int64)
    _lapack(dstedc, "I", n, w, e, Z, n, work, work.size, iwork, iwork.size)

    def back_transform(columns):
        C = np.array(columns, order="F")
        k = C.shape[1]
        work = _workspace(dormtr, "L", "L", "N", n, k, A, n, tau, C, n)
        _lapack(dormtr, "L", "L", "N", n, k, A, n, tau, C, n, work, work.size)
        return C

    return w, Z, back_transform


def _workspace(routine, *args) -> np.ndarray:
    """The optimal work array of a LAPACK routine, from its lwork = -1 query."""
    size = np.empty(1)
    _lapack(routine, *args, size, -1)
    return np.empty(max(int(size[0]), 1))


def _lapack(routine, *args) -> None:
    """Call a Fortran LAPACK routine of the ILP64 OpenBLAS: each str as
    a character with its hidden length appended after info, each int as
    a 64-bit integer and each array as a pointer, all by reference.
    Raises np.linalg.LinAlgError when info is not 0."""
    info = ctypes.c_int64(0)
    refs, lengths = [], []
    for a in args:
        if isinstance(a, str):
            refs.append(ctypes.c_char_p(a.encode()))
            lengths.append(ctypes.c_size_t(1))
        elif isinstance(a, np.ndarray):
            refs.append(ctypes.c_void_p(a.ctypes.data))
        else:
            refs.append(ctypes.byref(ctypes.c_int64(a)))
    routine(*refs, ctypes.byref(info), *lengths)
    if info.value:
        name = routine.__name__.removeprefix("scipy_").removesuffix("_64_")
        raise np.linalg.LinAlgError(f"{name} failed with info={info.value}")


def sample_eigen(
    X: DataMatrix,
    k: int | Callable[[np.ndarray], int],
    prep: Preprocessing | None = None,
) -> SampleEigen:
    """Leading eigenpairs of the sample covariance of X.

    Returns all min(p, n) eigenvalues and the first ``k`` eigenvectors
    (fewer if the numerical rank is smaller). ``k`` is an int or a
    function of the non-increasing eigenvalues returning that int; the
    function runs after the eigenvalues are found and before any
    eigenvector is built, so callers can choose k from the spectrum,
    and only those k are built (descending_eigh's count). With
    ``prep``, the covariance is that of prep.apply(X.values), taken one
    standardized block at a time. Raises DimensionError for k outside
    [1, min(p, n)] or a prep for another p, DegenerateMatrix for a
    matrix that is all zero (after prep), and DomainError for a
    covariance that overflows a double.
    """
    m = min(X.p, X.n)
    if not callable(k):
        _check_k(k, m)
    if prep is not None and prep.p != X.p:
        raise DimensionError(
            f"preprocessing is for p={prep.p} variables, matrix has p={X.p}"
        )

    def count(d):
        kept = k(d) if callable(k) else k
        _check_k(kept, m)
        return kept

    A = X.values
    d, V, _ = _covariance_eigh(A, prep, count)
    return SampleEigen(d=d, U=_eigenvectors(A, d, V, prep), gamma=X.p / X.n)


def _covariance_eigh(
    A: np.ndarray, prep: Preprocessing | None = None, count=None
) -> tuple[np.ndarray, np.ndarray, int]:
    """descending_eigh(M, count) of the sample covariance M = Z Z' / n
    of the p x n matrix Z = prep.apply(A) (A itself without prep).

    It takes the p x p covariance when p <= n, else the n x n Gram
    matrix Z'Z / n, whose nonzero eigenvalues are the covariance's;
    _eigenvectors and _scatter_coordinates read V by the same rule. The
    product is summed over the _standardized column blocks (covariance)
    or row blocks (Gram) of Z. Raises DegenerateMatrix for an all-zero
    Z, and DomainError for a product that overflows a double, before
    any decomposition.
    """
    p, n = A.shape
    with np.errstate(over="ignore", invalid="ignore"):
        M = _blocked_product(A, prep, gram=p > n)
        M /= n
    if not np.isfinite(M).all():
        raise DomainError("the sample covariance overflows a double")
    return descending_eigh(M, count)


def _blocked_product(A: np.ndarray, prep, gram: bool) -> np.ndarray:
    """Z'Z (gram) or Z Z' of Z = prep.apply(A), summed over its
    standardized row (gram) or column blocks. The blocks' buffer is
    freed on return, before the caller decomposes the product."""
    M = partial = None
    nonzero = False
    for _, Z in _standardized(A, prep, rows=gram):
        nonzero = nonzero or bool(Z.any())
        left, right = (Z.T, Z) if gram else (Z, Z.T)
        if M is None:
            M = left @ right
        else:
            if partial is None:
                partial = np.empty_like(M)
            M += np.matmul(left, right, out=partial)
    if not nonzero:
        raise DegenerateMatrix("cannot decompose an all-zero matrix")
    return M


def _eigenvectors(
    A: np.ndarray, d: np.ndarray, V: np.ndarray, prep: Preprocessing | None = None
) -> np.ndarray:
    """The covariance eigenvectors of _covariance_eigh(A, prep)'s d and
    V, one per column of V (at most the rank), signs fixed: V itself on
    the covariance side, Z h / sqrt(n d) on the Gram side, built over
    the row blocks of Z = prep.apply(A)."""
    p, n = A.shape
    if p <= n:
        return _fix_signs(np.array(V, order="C"))
    H = V / np.sqrt(n * d[: V.shape[1]])
    U = np.empty((p, V.shape[1]))
    for b, Z in _standardized(A, prep, rows=True):
        np.matmul(Z, H, out=U[b])
    return _fix_signs(U)


def _scatter_coordinates(
    A: np.ndarray, d: np.ndarray, V: np.ndarray, prep: Preprocessing | None = None
) -> np.ndarray:
    """W'Z for Z = prep.apply(A) and the eigenbasis W of Z Z' = W
    diag(n d) W', from _covariance_eigh(A, prep)'s d and V: V'Z over
    the column blocks of Z on the covariance side, and sqrt(n d) V' on
    the Gram side, where Z'Z = V diag(n d) V'."""
    p, n = A.shape
    if p > n:
        return np.sqrt(n * d)[:, None] * V.T
    W = np.empty((V.shape[1], n))
    for b, Z in _standardized(A, prep, rows=False):
        np.matmul(V.T, Z, out=W[:, b])
    return W


def _check_k(k: int, m: int) -> None:
    if not 1 <= k <= m:
        raise DimensionError(f"k must be in [1, {m}], got {k}")


def project(
    U: np.ndarray, X: np.ndarray, prep: Preprocessing | None = None
) -> np.ndarray:
    """Scores U^T Z of Z = prep.apply(X) (X itself without prep), summed
    in an order that no BLAS thread count changes.

    OpenBLAS splits the sum over p between threads for some shapes of a
    k x p by p x m product, and for some shapes of a vector-matrix
    product too, so U.T @ X can round differently at 1 and 2 threads.
    einsum sums in numpy's own single-threaded loop, which depends only
    on the memory layout, fixed here as C order. Each column block of
    Z gets one einsum over all of p, so a score has the same bits at
    any block size; a block of one column, whose einsum would be a dot
    summed in another order, is cut only from a one-column X.
    """
    U = np.ascontiguousarray(U)
    scores = np.empty((U.shape[1], X.shape[1]))
    for b, Z in _standardized(X, prep, rows=False):
        scores[:, b] = np.einsum("ik,ij->kj", U, Z)
    return scores


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
