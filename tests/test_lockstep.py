"""Differential tests of the batched inner solver.

The lockstep driver must follow scipy's public L-BFGS-B exactly, the batched
penalty must match a per-point formula, a start must not notice the other
starts of its batch, and the vectorised problem hooks must only be a faster
way to compute what the per-point evaluators compute.
"""
import numpy as np
import pytest
from scipy.optimize import minimize

import pbopt
from pbopt import InnerConfig, TriplePoint, evaluate_psi_t, lagrangian_grad, lagrangian_jacobians
from pbopt.maxmin import _lockstep_lbfgsb, _penalty_batch, follower_box, polish_onto_relaxed_set
from pbopt.problem_model import FD_STEP

from toys import fd_copy, make_biactive_toy, make_empty_lower_toy, make_q0_toy, make_quartic_toy, named_problem

LBFGSB_OPTIONS = {"ftol": 1e-14, "gtol": 1e-12}


def benchlib_problems():
    return [pbopt.get_problem(name)[0] for name in ("example1", "example2", "synthetic2d")]


def penalty_problems():
    base = benchlib_problems() + [make_quartic_toy()]
    return base + [fd_copy(p) for p in base] + [make_q0_toy(), make_biactive_toy(), make_empty_lower_toy()]


def leader_point(problem, rng):
    box = problem.x_box if problem.x_box is not None else np.tile([-1.0, 1.0], (problem.dims.n, 1))
    return rng.uniform(box[:, 0], box[:, 1])


def per_point(fun_batch):
    """A per-point objective for scipy from a batched one."""

    def fun(z):
        val, grad = fun_batch(z[None, :])
        return val[0], grad[0]

    return fun


def assert_matches_scipy(fun_batch, Z0, lo, hi, maxiter):
    X, nfev, nit = _lockstep_lbfgsb(lambda Z, rows: fun_batch(Z), Z0, lo, hi, maxiter)
    for i, z0 in enumerate(Z0):
        res = minimize(
            per_point(fun_batch), z0, jac=True, method="L-BFGS-B",
            bounds=list(zip(lo, hi)), options={"maxiter": maxiter, **LBFGSB_OPTIONS},
        )
        np.testing.assert_array_equal(X[i], res.x)
        assert nfev[i] == res.nfev
        assert nit[i] == res.nit


def rosenbrock_rows(Z):
    a, b = Z[:, 0], Z[:, 1]
    r = np.stack([a - 1.0, 10.0 * (b - a * a)], axis=1)
    grad = np.stack([2.0 * r[:, 0] - 40.0 * a * r[:, 1], 20.0 * r[:, 1]], axis=1)
    return (r * r).sum(axis=1), grad


@pytest.mark.parametrize("maxiter", [3, 200])
def test_lockstep_matches_scipy_on_bounded_rosenbrock(maxiter):
    lo, hi = np.array([-2.0, -0.5]), np.array([2.0, 0.8])
    rng = np.random.default_rng(0)
    # Two starts lie outside the box and must be clipped like scipy clips them.
    Z0 = np.vstack([rng.uniform(lo, hi, size=(6, 2)), [[3.0, -4.0], [-1.2, 1.0]]])
    assert_matches_scipy(rosenbrock_rows, Z0, lo, hi, maxiter)


@pytest.mark.parametrize("name", ["example1", "example2", "synthetic2d"])
def test_lockstep_matches_scipy_on_the_penalty(name):
    problem, _ = pbopt.get_problem(name)
    cfg = InnerConfig(starts=6)
    lo, hi = follower_box(problem, cfg)
    rng = np.random.default_rng(7)
    for t, rho in ((0.1, 100.0), (0.01, 1e4)):
        x = leader_point(problem, rng)
        Z0 = rng.uniform(lo, hi, size=(6, lo.size))
        assert_matches_scipy(lambda Z: _penalty_batch(problem, x[None], Z, t, rho), Z0, lo, hi, 80)


def fd_lagrangian_jac(problem, pt):
    """[L_y | L_u] at one point by the finite-difference definition of the batch path.

    Central differences of step FD_STEP in y and unit differences in u, both
    of ``lagrangian_grad``.
    """
    m, q = problem.dims.m, problem.dims.q
    L = lambda y, u: lagrangian_grad(problem, TriplePoint(pt.x, y, u))
    Ly = np.array([(L(pt.y + e, pt.u) - L(pt.y - e, pt.u)) / (2 * FD_STEP) for e in FD_STEP * np.eye(m)]).T
    Lu = np.array([L(pt.y, pt.u + e) - L(pt.y, pt.u) for e in np.eye(q)]).T.reshape(m, q)
    return Ly, Lu


def reference_penalty(problem, x, z, t, rho):
    """The penalty and its gradient at one point, from the per-point derivatives.

    With finite-difference Hessians the stationarity Jacobian follows the
    batch path's definition, so the two agree to rounding.
    """
    m, q = problem.dims.m, problem.dims.q
    y, u = z[:m], z[m:]
    pt = TriplePoint(x, y, u)
    L = lagrangian_grad(problem, pt)
    g = np.asarray(problem.eval_g(x, y), dtype=float).reshape(q)
    w = -u * g - t
    gp, un, wp = np.maximum(0.0, g), np.maximum(0.0, -u), np.maximum(0.0, w)
    val = -problem.eval_F(x, y) + rho * (L @ L + gp @ gp + un @ un + wp @ wp)
    Ly, Lu = fd_lagrangian_jac(problem, pt) if problem.hess_is_fd else lagrangian_jacobians(problem, pt)[1:]
    Jgy = np.asarray(problem.jac_g(x, y)[1], dtype=float).reshape(q, m)
    grad_y = -problem.grad_F(x, y)[1] + 2.0 * rho * (L @ Ly + gp @ Jgy + (wp * -u) @ Jgy)
    grad_u = 2.0 * rho * (L @ Lu - un - wp * g)
    return val, np.concatenate([grad_y, grad_u])


@pytest.mark.parametrize("problem", penalty_problems(), ids=lambda p: p.name + ("_fd" if p.hess_is_fd else ""))
def test_penalty_batch_matches_per_point_reference(problem):
    rng = np.random.default_rng(11)
    lo, hi = follower_box(problem, InnerConfig())
    k = lo.size
    for t, rho in ((0.2, 100.0), (1e-3, 1e4)):
        x = leader_point(problem, rng)
        # Widen the box so that negative multipliers and violated constraints occur.
        Z = rng.uniform(lo - 0.5, np.minimum(hi, 3.0) + 0.5, size=(25, k))
        val, grad = _penalty_batch(problem, x[None], Z, t, rho)
        for i, z in enumerate(Z):
            rv, rg = reference_penalty(problem, x, z, t, rho)
            scale = max(1.0, abs(rv), np.max(np.abs(rg)))
            assert abs(val[i] - rv) <= 1e-12 * scale
            np.testing.assert_allclose(grad[i], rg, rtol=0, atol=1e-12 * scale)


def test_penalty_batch_flags_nonfinite_rows(example1):
    problem, _ = example1
    Z = np.array([[0.5, 0.2, 0.1], [np.nan, 0.2, 0.1]])
    val, grad = _penalty_batch(problem, np.array([[0.5]]), Z, 0.1, 100.0)
    assert np.isfinite(val[0]) and val[1] == 1e30
    np.testing.assert_array_equal(grad[1], 0.0)


@pytest.mark.parametrize("name", ["example1", "example2", "synthetic2d", "example2_fd", "synthetic2d_fd"])
def test_start_path_does_not_depend_on_its_batch(name):
    problem = named_problem(name)
    cfg = InnerConfig(starts=8)
    lo, hi = follower_box(problem, cfg)
    rng = np.random.default_rng(3)
    x = leader_point(problem, rng)
    t = 0.05
    Z0 = rng.uniform(lo, hi, size=(8, lo.size))
    fun = lambda Z, rows: _penalty_batch(problem, x[None], Z, t, 1e3)
    X, nfev, nit = _lockstep_lbfgsb(fun, Z0, lo, hi, 80)
    P, viol, iters = polish_onto_relaxed_set(problem, x, X, t, lo, hi, cfg.feas_tol)
    for i in range(len(Z0)):
        Xi, nfev_i, nit_i = _lockstep_lbfgsb(fun, Z0[i : i + 1], lo, hi, 80)
        np.testing.assert_array_equal(Xi[0], X[i])
        assert (nfev_i[0], nit_i[0]) == (nfev[i], nit[i])
        Pi, viol_i, iters_i = polish_onto_relaxed_set(problem, x, X[i : i + 1], t, lo, hi, cfg.feas_tol)
        np.testing.assert_array_equal(Pi[0], P[i])
        assert (viol_i[0], iters_i[0]) == (viol[i], iters[i])


# Leader points away from the x -> 0 corner of example1/example2, where the
# multistart ascent is known to miss the maximiser.
HOOK_CASES = {
    "example1": ([0.3], [0.55], [0.9]),
    "example2": ([-0.7], [0.2], [0.8]),
    "synthetic2d": ([0.1, -0.4], [-0.6, 0.5], [0.7, 0.7]),
}


@pytest.mark.parametrize("name", sorted(HOOK_CASES))
def test_batch_hooks_only_change_speed(name):
    problem, bare = named_problem(name), named_problem(name + "_bare")
    cfg = InnerConfig(starts=10, sweeps=3, local_maxiter=80)
    for x in HOOK_CASES[name]:
        for t in (0.02, 0.1, 0.4):
            fast = evaluate_psi_t(problem, x, t, cfg)
            slow = evaluate_psi_t(bare, x, t, cfg)
            assert fast.status == slow.status == "solved"
            assert abs(fast.value - slow.value) <= 1e-12


def test_fd_problem_ignores_the_batch_jacobian_hook(example2):
    problem, _ = example2
    fd = fd_copy(problem)
    assert fd.hess_is_fd and fd.batch_lagrangian_jac is not None

    def refuse(x, Y, U):
        raise AssertionError("batch_lagrangian_jac called on a finite-difference problem")

    fd.batch_lagrangian_jac = refuse
    Y, U = np.array([[0.3], [0.6]]), np.array([[0.2, 0.1], [0.0, 0.4]])
    J = fd.lagrangian_jac_rows(np.array([[0.2]]), Y, U)
    np.testing.assert_allclose(J, problem.lagrangian_jac_rows(np.array([[0.2]]), Y, U), atol=1e-8)


@pytest.mark.parametrize("problem", benchlib_problems() + [make_quartic_toy()], ids=lambda p: p.name)
def test_fd_jacobian_rows_match_analytic(problem):
    fd = fd_copy(problem)
    lo, hi = follower_box(problem, InnerConfig())
    rng = np.random.default_rng(5)
    m = problem.dims.m
    for _ in range(3):
        x = leader_point(problem, rng)
        Z = rng.uniform(lo, np.minimum(hi, 3.0), size=(20, lo.size))
        Y, U = Z[:, :m], Z[:, m:]
        np.testing.assert_allclose(fd.lagrangian_jac_rows(x[None], Y, U), problem.lagrangian_jac_rows(x[None], Y, U), rtol=0, atol=1e-7)
