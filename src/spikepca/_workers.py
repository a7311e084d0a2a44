"""Forked row blocks and the one-BLAS-thread scope.

The CSV parse and the simulation replicates both split independent rows
into contiguous blocks and hand all but the first to children made with
os.fork, each writing its rows into one shared buffer. Their work holds
the GIL, so threads would not overlap it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import mmap
import os
from pathlib import Path

import numpy as np


def block_count(limit: int) -> int:
    """Row blocks to split work into: at most one per usable core and at
    most ``limit``; one where os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(cores, limit)


def shared_rows(rows: int, width: int) -> np.ndarray:
    """A rows x width float64 array on an anonymous shared mapping, so
    what a forked child writes into it the parent reads."""
    buffer = mmap.mmap(-1, rows * width * 8)
    return np.frombuffer(buffer, dtype=np.float64).reshape(rows, width)


def fork_blocks(bounds: list, work) -> list | None:
    """Run ``work(lo, hi) -> bool`` over the blocks [bounds[i], bounds[i + 1]).

    Every block but the first goes to a forked child, the last block
    first, so the rows left to the parent when a fork fails are always
    one leading run, which the parent then works itself. A child leaves
    through os._exit, with status 0 only if its work returned True.
    Returns the (lo, hi) runs whose work failed, in row order, or None
    when no child could be forked and the parent has run nothing. Every
    child is reaped before this returns or raises.
    """
    children, own = [], bounds[-1]
    try:
        for lo, hi in reversed(list(zip(bounds[1:-1], bounds[2:]))):
            try:
                pid = os.fork()
            except OSError:
                break
            if pid == 0:
                status = 1
                try:
                    status = 0 if work(lo, hi) else 1
                finally:
                    os._exit(status)
            children.append((pid, lo, hi))
            own = lo
        if not children:
            return None
        failed = [] if work(bounds[0], own) else [(bounds[0], own)]
    finally:
        statuses = [(os.waitpid(pid, 0)[1], lo, hi) for pid, lo, hi in children]
    return failed + [(lo, hi) for status, lo, hi in reversed(statuses) if status]


@functools.cache
def _openblas_threads():
    """The bundled OpenBLAS's thread-count getter and setter, or None
    when numpy carries no library that exports them."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body, and the children it forks, with BLAS at one thread.

    A multithreaded product or eigh rounds differently from a
    one-thread one and contends with forked workers for the cores. The
    previous thread count is restored on exit. Without the hook the body
    runs at the process's BLAS setting.
    """
    hook = _openblas_threads()
    if hook is None:
        yield
        return
    get, set_ = hook
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)
