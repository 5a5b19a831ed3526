import os
import signal

import numpy as np
import pytest

from schloegl import (
    CrankNicolsonAB2,
    SchloeglParams,
    build_actuator_grid,
    build_fem,
    discretize_actuators,
)


@pytest.fixture(scope="session")
def fe16():
    return build_fem(16, 16, 0.1)


@pytest.fixture(scope="session")
def params():
    return SchloeglParams(nu=0.1, roots=(-1.0, 0.0, 2.0))


@pytest.fixture(scope="session")
def coupling16(fe16):
    grid = build_actuator_grid(3, 0.5)
    return discretize_actuators(grid, fe16.mesh)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def stepper_calls(monkeypatch):
    """A list that grows by one on every startup or AB2 step of any stepper."""
    calls = []
    for name in ("startup_step", "ab2_step"):
        original = getattr(CrankNicolsonAB2, name)
        monkeypatch.setattr(CrankNicolsonAB2, name,
                            lambda self, *a, _f=original: calls.append(1) or _f(self, *a))
    return calls


@pytest.fixture(autouse=True)
def no_child_left():
    """After each test, this process has no child left, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # reaps a finished child, so one test's leftover fails that test only
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind ({f'pid {pid}, ended' if pid else 'still running'})")


class ForkLog(list):
    """The pids of the children forked in this process while the ``forks`` fixture is active."""

    def assert_reaped(self):
        for pid in self:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """A :class:`ForkLog` that grows by the pid of every child ``os.fork`` makes from now on."""
    pids, fork = ForkLog(), os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


@pytest.fixture
def fork_time_limit():
    """A hand-over where parent and child each wait on the other fails the test instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError("a test with a forked child ran past 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
