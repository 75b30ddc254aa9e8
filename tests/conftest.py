import pytest

from fkpeaks import groundstate as gs
from fkpeaks import spectral as sp


@pytest.fixture(scope="session")
def classical_q_p3():
    grid = sp.GridSpec(1, 20.0, 1024)
    return gs.solve_Q(grid, 1.0, 3.0, tol=1e-11)


@pytest.fixture(scope="session")
def classical_q_p2():
    grid = sp.GridSpec(1, 20.0, 1024)
    return gs.solve_Q(grid, 1.0, 2.0, tol=1e-11)


@pytest.fixture(scope="session")
def frac_q():
    """Fractional base profile at the (N=1, s=0.4) validation point."""
    grid = sp.GridSpec(1, 30.0, 2048)
    return gs.solve_Q(grid, 0.4, 2.0, tol=1e-11)


@pytest.fixture(scope="session")
def frac_params():
    return sp.ProblemParams(1, 0.4, 2.0, 1.0, 1.0)
