"""Property tests of the set metrics and of the brute-force relaxed value.

- ``excess`` and ``hausdorff`` on random point clouds (empty ones included):
  nonnegativity, identity, symmetry of ``hausdorff``, the triangle
  inequality and the empty-set conventions;
- ``brute_force_psi_t`` on one shared grid is monotone in t and
  psi_t >= psi_0, exactly, on example1 and example2: the grid's feasible
  set can only grow with t.
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pbopt
from pbopt import GridSpec, brute_force_psi_t
from pbopt.setvalued import excess, hausdorff

PROPERTY_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
PSI_GRID = GridSpec(((0.0, 1.0, 21), (0.0, 2.2, 23), (0.0, 2.2, 23)))
# Slack for sums of square roots in the triangle inequality.
ROUNDING = 1e-12


@st.composite
def clouds(draw):
    """Three clouds A, B, C in a common dimension; any of them may be empty.

    A cloud is either on a coarse lattice, so that shared and repeated
    points occur, or drawn from a normal distribution.
    """
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(3):
        size = (draw(st.integers(0, 6)), dim)
        out.append(rng.integers(-4, 5, size=size) * 0.5 if draw(st.booleans()) else rng.normal(scale=3.0, size=size))
    return tuple(out)


@PROPERTY_SETTINGS
@given(clouds())
def test_excess_and_hausdorff_are_metric(abc):
    A, B, C = abc
    for P, Q in ((A, B), (B, C), (A, C)):
        assert excess(P, Q) >= 0.0 and hausdorff(P, Q) >= 0.0
        assert hausdorff(P, Q) == hausdorff(Q, P)
    for P in (A, B, C):
        assert excess(P, P) == 0.0 and hausdorff(P, P) == 0.0
        # the same set listed in another order and with repeats
        assert hausdorff(P, np.concatenate([P[::-1], P])) == 0.0
        # a subset has zero excess over the whole
        assert excess(P[: len(P) // 2], P) == 0.0
    for metric in (excess, hausdorff):
        lhs, rhs = metric(A, C), metric(A, B) + metric(B, C)
        assert lhs <= rhs + ROUNDING * max(1.0, rhs)


@PROPERTY_SETTINGS
@given(clouds())
def test_empty_set_conventions(abc):
    A = abc[0]
    empty = np.zeros((0, A.shape[1]))
    assert excess(empty, A) == 0.0
    assert excess(empty, empty) == 0.0 and hausdorff(empty, empty) == 0.0
    if len(A):
        assert excess(A, empty) == math.inf
        assert hausdorff(A, empty) == hausdorff(empty, A) == math.inf


@pytest.mark.parametrize("name", ["example1", "example2"])
@PROPERTY_SETTINGS
@given(u=st.floats(0.0, 1.0), levels=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4))
def test_brute_force_psi_is_monotone_in_t(name, u, levels):
    problem, _ = pbopt.get_problem(name)
    lo, hi = problem.x_box[0]
    x = [lo + u * (hi - lo)]
    ts = [0.0] + sorted(levels)
    values = [brute_force_psi_t(problem, x, t, PSI_GRID).value for t in ts]
    assert all(a <= b for a, b in zip(values, values[1:])), (ts, values)
    assert all(v >= values[0] for v in values)
