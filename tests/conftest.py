"""Checks every test of the suite is held to."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    if not hasattr(os, "waitid"):
        return
    try:
        # WNOWAIT leaves a finished child for its owner to reap
        state = os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return
    left = "a running child" if state is None else f"unreaped child {state.si_pid}"
    pytest.fail(f"test left {left}")
