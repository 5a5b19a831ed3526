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
