"""Seeded inputs for the benchmark, made with plain numpy.

The benchmark never calls ``spikepca.gen_*``: a change to the package's
simulation code must not change what ``fit``, ``predict`` or
``jackknife`` receive. The design is the paper's two-spike model: noise
standard deviation 2 and two planted spikes 4(1 + sqrt(gamma)) and
2(1 + sqrt(gamma)) on the first two variables, in units of the noise
variance (which the package's rescaling absorbs).
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path

import numpy as np

NOISE_SD = 2.0
# Cached CSVs beyond this many files are deleted, oldest first.
CACHE_FILES = 8


def spikes(p: int, n: int) -> tuple[float, float]:
    """The two planted spike eigenvalues for a p x n matrix."""
    root = math.sqrt(p / n)
    return 4.0 * (1.0 + root), 2.0 * (1.0 + root)


def _stream(seed: int, role: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, role]))


def two_spike(seed: int, role: int, p: int, n: int) -> np.ndarray:
    """A p x n two-spike matrix (rows are variables) from stream (seed, role).

    Each variable gets a fixed mean in [-1, 1), so that centering has
    work to do; the means depend on (seed, p) only, so a train and a
    test matrix of one seed share them.
    """
    rng = _stream(seed, role)
    X = NOISE_SD * rng.standard_normal((p, n))
    s1, s2 = spikes(p, n)
    X[0] *= math.sqrt(s1)
    X[1] *= math.sqrt(s2)
    X += _stream(seed, 0).uniform(-1.0, 1.0, size=p)[:, None]
    return X


def write_csv(X: np.ndarray, path: Path) -> None:
    """Headerless CSV, 17 significant digits, so values round-trip exactly."""
    tmp = path.with_suffix(".tmp")
    np.savetxt(tmp, X, fmt="%.17g", delimiter=",")
    os.replace(tmp, path)


def cached_csv(cache: Path, name: str, seed: int, role: int, p: int, n: int):
    """Return (path, matrix, seconds spent generating) for one cached input.

    The file is keyed by (name, seed, shape); a hit re-derives the matrix
    in memory (cheap) instead of parsing the file.
    """
    cache.mkdir(parents=True, exist_ok=True)
    path = cache / f"{name}_s{seed}_{p}x{n}.csv"
    t0 = time.perf_counter()
    X = two_spike(seed, role, p, n)
    if not path.exists():
        write_csv(X, path)
        _prune(cache)
    return path, X, time.perf_counter() - t0


def _prune(cache: Path) -> None:
    files = sorted(cache.glob("*.csv"), key=lambda f: f.stat().st_mtime)
    for old in files[:-CACHE_FILES]:
        old.unlink()
