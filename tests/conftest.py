import pytest

import pbopt
from pbopt import maxmin, stationarity


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


@pytest.fixture
def empty_memo(monkeypatch):
    """Installs an empty inner-solve memo and returns it; calling the returned
    function installs another.  The process's own memo is back after the test."""

    def install():
        monkeypatch.setattr(maxmin, "_memo", maxmin._Memo())
        return maxmin._memo

    return install


@pytest.fixture(autouse=True)
def _each_test_starts_from_an_empty_memo(empty_memo, monkeypatch):
    """No test sees inner solves kept by another, or the certifier's record of
    another test's point, whatever the test order."""
    empty_memo()
    monkeypatch.setattr(stationarity, "_last_point", None)
