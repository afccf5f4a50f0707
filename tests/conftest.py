import pytest

import pbopt


@pytest.fixture(scope="session")
def example1():
    return pbopt.get_problem("example1")


@pytest.fixture(scope="session")
def example2():
    return pbopt.get_problem("example2")


@pytest.fixture(scope="session")
def synthetic():
    return pbopt.get_problem("synthetic2d")


@pytest.fixture(scope="session")
def light_cfg():
    # Enough starts to hit the global inner max on the benchmark problems
    # while keeping the suite fast.
    return pbopt.InnerConfig(starts=10, sweeps=3, local_maxiter=80)


@pytest.fixture(scope="session")
def tiny_cfg():
    # Tight feasibility: used where checks compare values at the EPS_LVL_DEFAULT slack.
    return pbopt.InnerConfig(starts=6, sweeps=3, local_maxiter=60, feas_tol=1e-10)
