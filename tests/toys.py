"""Small hand-built problems exercising corner cases of the checkers, and the
helpers that name a test problem or copy one without its second derivatives or
batch hooks.  The linear-quadratic toys and the linear follower are
``lq_problem`` data, with its batch hooks; the others are written out."""
import dataclasses
import math

import numpy as np

import pbopt
from pbopt import BilevelProblem, ProblemDims
from pbopt.problem_model import HESS_FIELDS, lq_problem

BATCH_HOOKS = ("batch_F", "batch_g", "batch_lagrangian", "batch_grad_F", "batch_lagrangian_jac")
DIP = (0.375, 0.01)  # centre and width of the dip toy's narrow well


def fd_copy(problem: BilevelProblem) -> BilevelProblem:
    """The same problem without second derivatives: Hessians by finite differences."""
    return dataclasses.replace(problem, **{h: None for h in HESS_FIELDS})


def named_problem(name: str) -> BilevelProblem:
    """A toy of this module (``<kind>_toy``) or a benchlib problem; a ``_fd``
    suffix gives its finite-difference copy, a ``_bare`` suffix its copy
    without batch hooks."""
    if name.endswith("_toy"):
        return globals()[f"make_{name}"]()
    if name.endswith("_fd"):
        return fd_copy(named_problem(name.removesuffix("_fd")))
    if name.endswith("_bare"):
        return dataclasses.replace(named_problem(name.removesuffix("_bare")), **{h: None for h in BATCH_HOOKS})
    return pbopt.get_problem(name)[0]


def make_dip_toy() -> BilevelProblem:
    """Hook-free toy whose psi_t(x) is a narrow well at DIP[0] on a flat floor.

    The follower tracks the leader (y = x, no constraints), and F is
    phi(x) = -exp(-((x - c) / w)^2).  From x = 0.5 the first poll round
    (x = 0.25, 0.75) sees no decrease, and the second finds the well at
    0.375, so the rest of the halving ladder goes unread.
    """
    c, w = DIP
    phi = lambda x: -math.exp(-(((x[0] - c) / w) ** 2))
    dphi = lambda x: 2.0 * (x[0] - c) / w**2 * -phi(x)
    return BilevelProblem(
        dims=ProblemDims(n=1, m=1, p=2, q=0),
        eval_F=lambda x, y: float(phi(x)),
        eval_f=lambda x, y: float(0.5 * (y[0] - x[0]) ** 2),
        eval_G=lambda x: np.array([-x[0], x[0] - 1.0]),
        eval_g=lambda x, y: np.zeros(0),
        grad_F=lambda x, y: (np.array([dphi(x)]), np.zeros(1)),
        grad_f=lambda x, y: (np.array([x[0] - y[0]]), np.array([y[0] - x[0]])),
        jac_G=lambda x: np.array([[-1.0], [1.0]]),
        jac_g=lambda x, y: (np.zeros((0, 1)), np.zeros((0, 1))),
        hess_f_yx=lambda x, y: np.array([[-1.0]]),
        hess_f_yy=lambda x, y: np.array([[1.0]]),
        hess_g_yx=lambda x, y: [],
        hess_g_yy=lambda x, y: [],
        x_box=np.array([[0.0, 1.0]]),
        y_box=np.array([[-1.0, 2.0]]),
        name="dip_toy",
    )


def make_biactive_toy() -> BilevelProblem:
    """At x = 0 the follower constraint is biactive with zero multiplier.

    F = y, f = y^2/2 - x*y, g = -y.  The point (0, 0, 0) satisfies the C- and
    M-systems but not the S-system (the recovered gamma is forced positive).
    """
    return lq_problem(
        H=[[1.0]], B=[[-1.0]], b=[0.0], c=[1.0], d=[0.0],
        J_gy=[[-1.0]], J_gx=[[0.0]], h=[0.0], A_G=np.zeros((0, 1)), h_G=np.zeros(0),
        x_box=[[-1.0, 1.0]], y_box=[[-0.5, 1.5]], name="biactive_toy",
    )


def make_q0_toy() -> BilevelProblem:
    """Unconstrained follower: f = (y - x)^2 / 2 pins y = x; X = [-1, 1]."""
    return BilevelProblem(
        dims=ProblemDims(n=1, m=1, p=2, q=0),
        eval_F=lambda x, y: float(y[0]),
        eval_f=lambda x, y: float(0.5 * (y[0] - x[0]) ** 2),
        eval_G=lambda x: np.array([-x[0] - 1.0, x[0] - 1.0]),
        eval_g=lambda x, y: np.zeros(0),
        grad_F=lambda x, y: (np.zeros(1), np.ones(1)),
        grad_f=lambda x, y: (np.array([x[0] - y[0]]), np.array([y[0] - x[0]])),
        jac_G=lambda x: np.array([[-1.0], [1.0]]),
        jac_g=lambda x, y: (np.zeros((0, 1)), np.zeros((0, 1))),
        hess_f_yx=lambda x, y: np.array([[-1.0]]),
        hess_f_yy=lambda x, y: np.array([[1.0]]),
        hess_g_yx=lambda x, y: [],
        hess_g_yy=lambda x, y: [],
        x_box=np.array([[-1.0, 1.0]]),
        y_box=np.array([[-2.0, 2.0]]),
        name="q0_toy",
    )


def make_empty_lower_toy() -> BilevelProblem:
    """g = y^2 + 1 <= 0 is impossible: every follower KKT set is empty."""
    return BilevelProblem(
        dims=ProblemDims(n=1, m=1, p=2, q=1),
        eval_F=lambda x, y: float(y[0]),
        eval_f=lambda x, y: float(y[0] ** 2),
        eval_G=lambda x: np.array([-x[0], x[0] - 1.0]),
        eval_g=lambda x, y: np.array([y[0] ** 2 + 1.0]),
        grad_F=lambda x, y: (np.zeros(1), np.ones(1)),
        grad_f=lambda x, y: (np.zeros(1), np.array([2.0 * y[0]])),
        jac_G=lambda x: np.array([[-1.0], [1.0]]),
        jac_g=lambda x, y: (np.zeros((1, 1)), np.array([[2.0 * y[0]]])),
        hess_f_yx=lambda x, y: np.zeros((1, 1)),
        hess_f_yy=lambda x, y: np.array([[2.0]]),
        hess_g_yx=lambda x, y: [np.zeros((1, 1))],
        hess_g_yy=lambda x, y: [np.array([[2.0]])],
        x_box=np.array([[0.0, 1.0]]),
        y_box=np.array([[-2.0, 2.0]]),
        name="empty_lower_toy",
    )


def make_no_slater_toy() -> BilevelProblem:
    """g = (y, -y) forces y = 0 with no strictly feasible follower point."""
    return lq_problem(
        H=[[2.0]], B=[[0.0]], b=[0.0], c=[1.0], d=[0.0],
        J_gy=[[1.0], [-1.0]], J_gx=np.zeros((2, 1)), h=np.zeros(2), A_G=[[-1.0], [1.0]], h_G=[0.0, -1.0],
        x_box=[[0.0, 1.0]], y_box=[[-2.0, 2.0]], name="no_slater_toy",
    )


def make_opposing_leader_toy() -> BilevelProblem:
    """Leader constraints x <= 1 and -x <= -1: both active at x = 1."""
    return lq_problem(
        H=[[1.0]], B=[[0.0]], b=[0.0], c=[1.0], d=[0.0],
        J_gy=[[-1.0]], J_gx=[[0.0]], h=[0.0], A_G=[[1.0], [-1.0]], h_G=[-1.0, 1.0],
        name="opposing_leader_toy",
    )


def make_duplicated_g_toy() -> BilevelProblem:
    """Duplicated follower constraint rows (g1 = g2 = y - 1).

    With f = x*y - y^2/2 the point (x, y, u) = (-1, 0, (0.5, 0.5)) lies in the
    level-0.5 set and the homogeneous relaxed multiplier system admits a
    nonzero ray supported on the duplicated pair.
    """
    return lq_problem(
        H=[[-1.0]], B=[[1.0]], b=[0.0], c=[1.0], d=[0.0],
        J_gy=[[1.0], [1.0]], J_gx=np.zeros((2, 1)), h=[-1.0, -1.0], A_G=[[1.0]], h_G=[-10.0],
        x_box=[[-2.0, 2.0]], y_box=[[-1.0, 2.0]], name="duplicated_g_toy",
    )


def make_interior_toy() -> BilevelProblem:
    """Constant leader objective and inactive constraints everywhere near 0."""
    return BilevelProblem(
        dims=ProblemDims(n=1, m=1, p=1, q=1),
        eval_F=lambda x, y: 1.0,
        eval_f=lambda x, y: float(0.5 * y[0] ** 2),
        eval_G=lambda x: np.array([x[0] - 10.0]),
        eval_g=lambda x, y: np.array([-y[0] - 1.0]),
        grad_F=lambda x, y: (np.zeros(1), np.zeros(1)),
        grad_f=lambda x, y: (np.zeros(1), np.array([y[0]])),
        jac_G=lambda x: np.array([[1.0]]),
        jac_g=lambda x, y: (np.zeros((1, 1)), np.array([[-1.0]])),
        hess_f_yx=lambda x, y: np.zeros((1, 1)),
        hess_f_yy=lambda x, y: np.array([[1.0]]),
        hess_g_yx=lambda x, y: [np.zeros((1, 1))],
        hess_g_yy=lambda x, y: [np.zeros((1, 1))],
        x_box=np.array([[-1.0, 1.0]]),
        y_box=np.array([[-1.0, 1.0]]),
        name="interior_toy",
    )


def make_mirror_toy() -> BilevelProblem:
    """Leader objective x1^2 - x2^2 on [-1, 1]^2, whatever the follower does.

    psi_t(x) = F(x) exactly, mirror-exact in x2 around 0: the polls
    (x1, -h) and (x1, h) tie bit for bit, and improve on (x1, 0).
    """
    return BilevelProblem(
        dims=ProblemDims(n=2, m=1, p=0, q=1),
        eval_F=lambda x, y: float(x[0] ** 2 - x[1] ** 2),
        eval_f=lambda x, y: float(0.5 * y[0] ** 2),
        eval_G=lambda x: np.zeros(0),
        eval_g=lambda x, y: np.array([-y[0] - 1.0]),
        grad_F=lambda x, y: (np.array([2.0 * x[0], -2.0 * x[1]]), np.zeros(1)),
        grad_f=lambda x, y: (np.zeros(2), np.array([y[0]])),
        jac_G=lambda x: np.zeros((0, 2)),
        jac_g=lambda x, y: (np.zeros((1, 2)), np.array([[-1.0]])),
        hess_f_yx=lambda x, y: np.zeros((1, 2)),
        hess_f_yy=lambda x, y: np.array([[1.0]]),
        hess_g_yx=lambda x, y: [np.zeros((1, 2))],
        hess_g_yy=lambda x, y: [np.zeros((1, 1))],
        x_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        y_box=np.array([[-2.0, 2.0]]),
        name="mirror_toy",
    )


def make_quartic_toy() -> BilevelProblem:
    """Follower data nonlinear in y, with two coupled follower variables.

    F = y1 + y2, f = (y1^4 + y2^4)/4 + y1*y2/2 - x*y1,
    g = (y1^2 + y2^2 - 1, y2^2 - y1 - 1).  The Hessians are analytic, so
    the finite-difference path can be compared with them.
    """
    return BilevelProblem(
        dims=ProblemDims(n=1, m=2, p=0, q=2),
        eval_F=lambda x, y: float(y[0] + y[1]),
        eval_f=lambda x, y: float((y[0] ** 4 + y[1] ** 4) / 4 + y[0] * y[1] / 2 - x[0] * y[0]),
        eval_G=lambda x: np.zeros(0),
        eval_g=lambda x, y: np.array([y[0] ** 2 + y[1] ** 2 - 1.0, y[1] ** 2 - y[0] - 1.0]),
        grad_F=lambda x, y: (np.zeros(1), np.ones(2)),
        grad_f=lambda x, y: (np.array([-y[0]]), np.array([y[0] ** 3 + y[1] / 2 - x[0], y[1] ** 3 + y[0] / 2])),
        jac_G=lambda x: np.zeros((0, 1)),
        jac_g=lambda x, y: (np.zeros((2, 1)), np.array([[2.0 * y[0], 2.0 * y[1]], [-1.0, 2.0 * y[1]]])),
        hess_f_yx=lambda x, y: np.array([[-1.0], [0.0]]),
        hess_f_yy=lambda x, y: np.array([[3.0 * y[0] ** 2, 0.5], [0.5, 3.0 * y[1] ** 2]]),
        hess_g_yx=lambda x, y: [np.zeros((2, 1)), np.zeros((2, 1))],
        hess_g_yy=lambda x, y: [2.0 * np.eye(2), np.diag([0.0, 2.0])],
        x_box=np.array([[-1.0, 1.0]]),
        y_box=np.array([[-1.5, 1.5], [-1.5, 1.5]]),
        name="quartic_toy",
    )


def make_nan_region_toy() -> BilevelProblem:
    """example2 with F = NaN where y > 0.95.

    At x < 0 the level-t follower set is y in [1 + t/x, 1], so at
    (x, t) = (-0.5, 0.05) the finite part of F tops out at x + 0.95 = 0.45,
    and at (-0.9, 0.01) every point of the set has F = NaN.
    """
    F = lambda X, Y: np.where(Y[:, 0] > 0.95, np.nan, X[:, 0] + Y[:, 0])
    return dataclasses.replace(
        pbopt.get_problem("example2")[0],
        eval_F=lambda x, y: float(F(np.atleast_2d(x), np.atleast_2d(y))[0]),
        batch_F=F,
        name="nan_region_toy",
    )


def make_nan_g_toy() -> BilevelProblem:
    """example1 with g = NaN where y > 0.9, a part of its y_box [0, 1].

    At (x, y, u) = (0.5, 0.95, (0.5, 0)) the stationarity row is 0 and g is
    NaN, so the point is in no relaxed follower KKT set.
    """
    base = pbopt.get_problem("example1")[0]
    g = lambda X, Y: np.where(Y[:, :1] > 0.9, np.nan, base.batch_g(X, Y))
    return dataclasses.replace(base, eval_g=lambda x, y: g(x[None], y[None])[0], batch_g=g, name="nan_g_toy")


def make_linear_follower(B, c, d, Jgy, Jgx, H=None, name: str = "linear_follower") -> BilevelProblem:
    """Quadratic follower with linear constraints on the leader box [-1, 1]^n.

    Follower: min 0.5 y.H y - (B x).y  s.t.  Jgy y + Jgx x <= 0, with H = I
    unless given.  Leader: F = c.y + d.x.  The leader box is inactive at x = 0;
    its rows are all -x - 1 <= 0, then all x - 1 <= 0.
    """
    B = np.asarray(B, dtype=float)
    (m, n), q = B.shape, len(Jgy)
    return lq_problem(
        H=np.eye(m) if H is None else H, B=-B, b=np.zeros(m), c=c, d=d,
        J_gy=Jgy, J_gx=Jgx, h=np.zeros(q), A_G=np.vstack([-np.eye(n), np.eye(n)]), h_G=np.full(2 * n, -1.0),
        x_box=np.tile([-1.0, 1.0], (n, 1)), y_box=np.tile([-2.0, 2.0], (m, 1)), name=name,
    )


def biactive_family_data(k: int, rng, duplicate: bool = False, n: int = 1, c_only: bool = False):
    """(B, c, d, Jgy, Jgx) of a follower with k biactive constraints at x = 0.

    The constraints are -y_i <= 0 (i < k) with y in R^max(k, 1), so y = 0,
    u = 0 is exactly complementary with every constraint biactive.  c and d
    are drawn so that S-multipliers exist (gamma = beta* + c <= 0 and
    d_i = -beta*_i <= 0 for a beta* >= 0).  ``c_only`` negates c and d, so
    c > 0 and beta* lies in (-c, 0): gamma = beta* + c > 0 and d_i > 0 on
    every biactive index.  Then, for k >= 1, S recovers nothing, and only
    the last of C's 2^k patterns, gamma_i >= 0 and d_i >= 0 everywhere, is
    feasible; M, whose branches pin each beta_i, recovers nothing either
    (for almost every draw: the leader rows add equations).
    ``duplicate`` appends two copies of the last constraint row, the second
    with a leader term, which break both multiplier-set qualification
    conditions; the copies share d_{k-1}, so with ``c_only`` an earlier C
    pattern, and an M pattern, can be feasible at beta_{k-1} = 0.  The
    draws are the same whatever ``c_only``.
    """
    m = max(k, 1)
    q = k + (2 if duplicate else 0)
    B = rng.normal(size=(m, n))
    beta = np.abs(rng.normal(size=m))
    c = -beta - np.abs(rng.normal(size=m))
    if c_only:
        beta, c = -beta, -c
    d = B.T @ beta
    e = rng.normal(size=n)
    Jgy = np.zeros((q, m))
    Jgx = np.zeros((q, n))
    for i in range(k):
        Jgy[i, i] = -1.0
    if duplicate:
        Jgy[k:, k - 1] = -1.0
        Jgx[k + 1] = e
    return B, c, d, Jgy, Jgx


def make_biactive_family(k: int, rng, duplicate: bool = False, c_only: bool = False) -> BilevelProblem:
    name = f"biactive{k}{'_c' if c_only else ''}{'_dup' if duplicate else ''}"
    return make_linear_follower(*biactive_family_data(k, rng, duplicate, c_only=c_only), name=name)
