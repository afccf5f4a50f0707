"""Differential tests of the batched inner solver.

The ascent's rows and Jacobian must match central differences of the
residual, a start must not notice the other starts of its batch, and the
vectorised problem hooks must only be a faster way to compute what the
per-point evaluators compute.
"""
import numpy as np
import pytest

import pbopt
from pbopt import InnerConfig, evaluate_psi_t
from pbopt.maxmin import _ascend, _signed_rows, follower_box, polish_onto_relaxed_set

from toys import fd_copy, make_biactive_toy, make_empty_lower_toy, make_q0_toy, make_quartic_toy, named_problem


def benchlib_problems():
    return [pbopt.get_problem(name)[0] for name in ("example1", "example2", "synthetic2d")]


def penalty_problems():
    base = benchlib_problems() + [make_quartic_toy()]
    return base + [fd_copy(p) for p in base] + [make_q0_toy(), make_biactive_toy(), make_empty_lower_toy()]


def leader_point(problem, rng):
    box = problem.x_box if problem.x_box is not None else np.tile([-1.0, 1.0], (problem.dims.n, 1))
    return rng.uniform(box[:, 0], box[:, 1])


@pytest.mark.parametrize("problem", penalty_problems(), ids=lambda p: p.name + ("_fd" if p.hess_is_fd else ""))
def test_ascent_jacobian_matches_central_differences(problem):
    rng = np.random.default_rng(11)
    lo, hi = follower_box(problem, InnerConfig())
    k, h = lo.size, 1e-5
    for t in (0.2, 1e-3):
        x = leader_point(problem, rng)[None]
        # Widen the box so that negative multipliers and violated constraints occur.
        Z = rng.uniform(lo - 0.5, np.minimum(hi, 3.0) + 0.5, size=(25, k))
        r, A = _signed_rows(problem, x, Z, t, lo, hi, jac=True)
        np.testing.assert_array_equal(r, _signed_rows(problem, x, Z, t, lo, hi))
        assert A.shape == r.shape + (k,)
        for j, e in enumerate(h * np.eye(k)):
            fd = (_signed_rows(problem, x, Z + e, t, lo, hi) - _signed_rows(problem, x, Z - e, t, lo, hi)) / (2 * h)
            scale = np.maximum(1.0, np.abs(A[:, :, j]))
            assert (np.abs(fd - A[:, :, j]) <= 1e-6 * scale).all(), (j, np.abs(fd - A[:, :, j]).max())


def test_signed_rows_flag_nonfinite_rows(example1):
    problem, _ = example1
    lo, hi = follower_box(problem, InnerConfig())
    Z = np.array([[0.5, 0.2, 0.1], [np.nan, 0.2, 0.1]])
    r = _signed_rows(problem, np.array([[0.5]]), Z, 0.1, lo, hi)
    assert np.isfinite(r[0]).all()
    assert (r[1, : problem.dims.m + 3 * problem.dims.q] == np.inf).all()


@pytest.mark.parametrize("name", ["example1", "example2", "synthetic2d", "example2_fd", "synthetic2d_fd"])
def test_start_path_does_not_depend_on_its_batch(name):
    problem = named_problem(name)
    cfg = InnerConfig(starts=8, local_maxiter=40)
    lo, hi = follower_box(problem, cfg)
    rng = np.random.default_rng(3)
    x = leader_point(problem, rng)
    t = 0.05
    Z0 = rng.uniform(lo, hi, size=(8, lo.size))
    P, viol, iters = polish_onto_relaxed_set(problem, x, Z0, t, lo, hi, cfg.feas_tol)
    assert (viol <= cfg.feas_tol).sum() >= 2  # the ascent runs on several starts at once
    Q, qviol, fval, evals, settled = _ascend(problem, x[None], P, viol, t, lo, hi, cfg)
    for i in range(len(Z0)):
        Pi, viol_i, iters_i = polish_onto_relaxed_set(problem, x, Z0[i : i + 1], t, lo, hi, cfg.feas_tol)
        np.testing.assert_array_equal(Pi[0], P[i])
        assert (viol_i[0], iters_i[0]) == (viol[i], iters[i])
        Qi, qviol_i, fval_i, evals_i, settled_i = _ascend(problem, x[None], Pi, viol_i, t, lo, hi, cfg)
        np.testing.assert_array_equal(Qi[0], Q[i])
        assert (qviol_i[0], fval_i[0], evals_i[0], settled_i[0]) == (qviol[i], fval[i], evals[i], settled[i])


# Leader points of each problem; example1's x = 0.01 lies in the x -> 0 corner,
# where t < x leaves D_t a thin sliver along the follower's optimal face.
HOOK_CASES = {
    "example1": ([0.01], [0.3], [0.55], [0.9]),
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
