"""Forked row blocks at one BLAS thread: the package's one fan-out.

The CSV parse and the simulation replicates both fill the rows of one
float64 array independently of each other. fill_rows splits the rows
into contiguous blocks and hands all but the first to children made with
os.fork, each writing its rows into one shared buffer. Their work holds
the GIL, so threads would not overlap it. openblas loads the OpenBLAS
bundled with numpy once, for the thread-count hook here and for the
LAPACK routines eigen calls directly.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import mmap
import os
from pathlib import Path

import numpy as np


def fill_rows(rows: int, width: int, limit: int, work) -> np.ndarray | None:
    """A rows x width float64 array whose row blocks ``work(out, lo, hi)`` fill.

    The rows split into max(min(limit, rows, usable cores), 1) contiguous
    blocks, or one where os.fork is missing. Every block but the first
    goes to a forked child, the last block first, so the rows left to the
    parent when a fork fails are always one leading run, which the parent
    then works itself. The array is built on an anonymous shared mapping,
    so what a child writes the parent reads. A child leaves through
    os._exit, with status 0 only if its work returned True; once every
    child is reaped, the parent works each failed child's block again, in
    row order, so an exception surfaces as it does in one block. Returns
    None if the parent's own block or a block worked again returns False.

    Everything runs with BLAS at one thread (one_blas_thread): forked
    blocks do not contend with a multithreaded BLAS, and the result does
    not depend on the block count.
    """
    out = np.frombuffer(mmap.mmap(-1, rows * width * 8), dtype=np.float64)
    out = out.reshape(rows, width)
    blocks = 1
    if hasattr(os, "fork"):
        if hasattr(os, "sched_getaffinity"):
            cores = len(os.sched_getaffinity(0))
        else:
            cores = os.cpu_count() or 1
        blocks = max(min(limit, rows, cores), 1)
    bounds = [rows * b // blocks for b in range(blocks + 1)]
    children, own = [], rows
    with one_blas_thread():
        try:
            for lo, hi in reversed(list(zip(bounds[1:-1], bounds[2:]))):
                try:
                    pid = os.fork()
                except OSError:
                    break
                if pid == 0:
                    status = 1
                    try:
                        status = 0 if work(out, lo, hi) else 1
                    finally:
                        os._exit(status)
                children.append((pid, lo, hi))
                own = lo
            done = work(out, 0, own)
        finally:
            statuses = [(os.waitpid(pid, 0)[1], lo, hi) for pid, lo, hi in children]
        failed = [(lo, hi) for status, lo, hi in reversed(statuses) if status]
        if done and all(work(out, lo, hi) for lo, hi in failed):
            return out
    return None


@functools.cache
def openblas(*names):
    """The named functions of the OpenBLAS bundled with numpy, as ctypes
    functions in the order given, or None when numpy carries no library
    that exports them all."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            return tuple(getattr(lib, name) for name in names)
        except (OSError, AttributeError):
            continue
    return None


def _openblas_threads():
    """The bundled OpenBLAS's thread-count getter and setter, or None."""
    return openblas(
        "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"
    )


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
