"""The closed-loop stop rule shared by the harness and its child driver."""

from __future__ import annotations

import statistics
import time


def closed_loop(step, seconds: float) -> int:
    """Call ``step()`` until another call would end after ``seconds``.

    Each call starts when the previous one ends. The stop rule uses the
    median wall time of the calls so far; at least one call is made.
    Returns the number of calls.
    """
    start = time.perf_counter()
    walls: list = []
    while True:
        began = time.perf_counter()
        step()
        now = time.perf_counter()
        walls.append(now - began)
        if now - start + statistics.median(walls) > seconds:
            return len(walls)
