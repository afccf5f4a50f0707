"""Property tests of the certifier on generated biactive families.

Each example is a linear-constraint follower (see ``toys.make_linear_follower``)
with k <= 3 constraints biactive at x = 0, optionally with duplicated rows,
or a level-t point of such a follower.  The leader data are drawn so that
S-multipliers exist, so that C-multipliers exist and S-multipliers do not
(``toys.biactive_family_data``'s ``c_only``), or freely, so both verdicts
of every check occur.  Checked properties:

- S => M => C, and multipliers recovered for a kind pass the checks of
  every weaker kind;
- where S's multipliers pass the M or the C check, that kind's recovery
  returns them bit for bit: the three recoveries give one answer;
- the S/M/C feasibility, the a1/a2 qualification verdicts and the relaxed
  recovery and CQ1 verdicts do not change when the follower constraints
  are scaled by positive factors or permuted.
"""
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pbopt import TriplePoint
from pbopt.stationarity import (
    check_cq1,
    check_qualification_Am,
    check_stationarity,
    recover_c_multipliers,
    recover_relaxed_multipliers,
)

from toys import biactive_family_data, make_linear_follower

PROPERTY_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
WEAKER = {"S": ("S", "M", "C"), "M": ("M", "C"), "C": ("C",)}


@st.composite
def families(draw):
    """(B, c, d, Jgy, Jgx) of a biactive family; duplicates only for k <= 2, C-only data only for k >= 1."""
    k = draw(st.integers(0, 3))
    duplicate = k in (1, 2) and draw(st.booleans())
    c_only = k >= 1 and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B, c, d, Jgy, Jgx = biactive_family_data(k, rng, duplicate, c_only=c_only)
    if draw(st.booleans()):  # free leader data: S (and often M, C) may fail
        c, d = rng.normal(size=c.shape), rng.normal(size=d.shape)
    return B, c, d, Jgy, Jgx


def transforms():
    """Positive row scales and a permutation for q follower constraints."""
    return st.integers(0, 2**32 - 1).map(np.random.default_rng)


def _zero_point(problem):
    d = problem.dims
    return TriplePoint(np.zeros(d.n), np.zeros(d.m), np.zeros(d.q))


def _scaled(Jgy, Jgx, rng):
    """Jacobians of P diag(scale) g for random positive scales and a permutation P."""
    scale = rng.uniform(0.25, 4.0, size=Jgy.shape[0])
    perm = rng.permutation(Jgy.shape[0])
    return (scale[:, None] * Jgy)[perm], (scale[:, None] * Jgx)[perm], scale, perm


@PROPERTY_SETTINGS
@given(families())
def test_s_implies_m_implies_c(data):
    problem = make_linear_follower(*data)
    pt = _zero_point(problem)
    feasible = {}
    for kind in ("S", "M", "C"):
        mults = recover_c_multipliers(problem, pt, kind=kind)
        feasible[kind] = mults is not None
        if mults is None:
            continue
        for weaker in WEAKER[kind]:
            rep = check_stationarity(problem, pt, mults, kind=weaker, tol=1e-8, graph_check=False)
            assert rep.verdict, (kind, weaker, rep.rows)
    assert not feasible["S"] or feasible["M"]
    assert not feasible["M"] or feasible["C"]


@PROPERTY_SETTINGS
@given(families())
def test_m_and_c_return_the_s_multipliers_wherever_those_pass_their_checks(data):
    problem = make_linear_follower(*data)
    pt = _zero_point(problem)
    s = recover_c_multipliers(problem, pt, kind="S")
    for kind in ("M", "C"):
        if s is None or not check_stationarity(problem, pt, s, kind=kind, graph_check=False).verdict:
            continue
        got = recover_c_multipliers(problem, pt, kind=kind)
        for name in ("alpha", "beta", "gamma"):
            np.testing.assert_array_equal(getattr(got, name), getattr(s, name), err_msg=f"{kind}.{name}")


@PROPERTY_SETTINGS
@given(families(), transforms())
def test_exact_verdicts_invariant_under_g_scaling_and_permutation(data, rng):
    B, c, d, Jgy, Jgx = data
    base = make_linear_follower(*data)
    scaled = make_linear_follower(B, c, d, *_scaled(Jgy, Jgx, rng)[:2])
    # u = 0 at the biactive point, so it is the same point for both problems
    pt = _zero_point(base)
    for kind in ("S", "M", "C"):
        a = recover_c_multipliers(base, pt, kind=kind)
        b = recover_c_multipliers(scaled, pt, kind=kind)
        assert (a is None) == (b is None), kind
    qa = check_qualification_Am(base, pt)
    qb = check_qualification_Am(scaled, pt)
    assert (qa.a1, qa.a2) == (qb.a1, qb.a2)
    # the enumeration visits every pattern unless both conditions fail, and
    # then stops at a pattern whose place depends on the order of g
    if qa.a1 or qa.a2:
        assert qa.patterns_checked == qb.patterns_checked


@st.composite
def relaxed_cases(draw):
    """(follower data, t, point) with the point in the level-t KKT set.

    "free" and "stationary" take a family with k >= 1 at y = u = sqrt(t),
    where every constraint has u_i g_i = -t; "stationary" picks the leader
    data so that relaxed multipliers exist.  "degenerate" is a concave
    follower with two copies of g = y <= 0 at y = -sqrt(2t), where the
    homogeneous relaxed system has a ray and CQ1 fails.
    """
    t = draw(st.sampled_from([0.1, 0.01]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = draw(st.sampled_from(["free", "stationary", "degenerate"]))
    if mode == "degenerate":
        a = np.sqrt(2.0 * t)
        u = np.full(2, t / a)
        x = 0.5
        B = [[(a + u.sum()) / x]]  # follower stationarity: -y - B x + u_1 + u_2 = 0
        c, d = rng.normal(size=1), rng.normal(size=1)
        data = (B, c, d, np.ones((2, 1)), np.zeros((2, 1)), -np.eye(1))
        return data, t, TriplePoint([x], [-a], u)
    k = draw(st.integers(1, 3))
    B, c, d, Jgy, Jgx = biactive_family_data(k, rng)
    s = np.sqrt(t)
    if mode == "stationary":
        delta = np.abs(rng.normal(size=k))
        beta = delta * s  # u-rows: beta_i = -delta_i g_i
        c, d = beta + delta * s, -B.T @ beta
    return (B, c, d, Jgy, Jgx, None), t, TriplePoint([0.0], np.full(k, s), np.full(k, s))


@PROPERTY_SETTINGS
@given(relaxed_cases(), transforms())
def test_relaxed_verdicts_invariant_under_g_scaling_and_permutation(case, rng):
    data, t, pt = case
    B, c, d, Jgy, Jgx, H = data
    base = make_linear_follower(*data)
    Jgy_s, Jgx_s, scale, perm = _scaled(Jgy, Jgx, rng)
    scaled = make_linear_follower(B, c, d, Jgy_s, Jgx_s, H)
    # multipliers rescale inversely so that u_i g_i, and the point's membership, are kept
    pt_scaled = TriplePoint(pt.x, pt.y, (pt.u / scale)[perm])
    ra = recover_relaxed_multipliers(base, t, pt)
    rb = recover_relaxed_multipliers(scaled, t, pt_scaled)
    assert (ra is None) == (rb is None)
    assert check_cq1(base, t, pt) == check_cq1(scaled, t, pt_scaled)
