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
from pbopt import maxmin
from pbopt.maxmin import (
    RANK_TOL,
    _ascend,
    _multipliers,
    _project,
    _residual_jacobian,
    _residuals,
    _violations,
    follower_box,
    polish_onto_relaxed_set,
)

from toys import (
    fd_copy,
    make_biactive_toy,
    make_duplicated_g_toy,
    make_empty_lower_toy,
    make_q0_toy,
    make_quartic_toy,
    named_problem,
)


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
        U, g, r = _residuals(problem, x, Z, t)
        A = _residual_jacobian(problem, x, Z, U, g)
        assert A.shape == r.shape + (k,) == (len(Z), problem.dims.m + 2 * problem.dims.q, k)
        for j, e in enumerate(h * np.eye(k)):
            fd = (_residuals(problem, x, Z + e, t)[2] - _residuals(problem, x, Z - e, t)[2]) / (2 * h)
            scale = np.maximum(1.0, np.abs(A[:, :, j]))
            assert (np.abs(fd - A[:, :, j]) <= 1e-6 * scale).all(), (j, np.abs(fd - A[:, :, j]).max())


def test_residuals_flag_nonfinite_rows(example1):
    problem, _ = example1
    Z = np.array([[0.5, 0.2, 0.1], [np.nan, 0.2, 0.1]])
    r = _residuals(problem, np.array([[0.5]]), Z, 0.1)[2]
    assert r.shape == (2, problem.dims.m + 2 * problem.dims.q)
    assert np.isfinite(r[0]).all()
    assert (r[1] == np.inf).all()


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


def ascent_log(monkeypatch, problem, log, feas_tol, polishes):
    """Record, in call order, the ascent's events at a lone row.

    "D" is a new direction, "E" a trial evaluation of the violations that
    finds the trial on D_t and "X" one that finds it off, ("P", iterations)
    a restoration polish (its own evaluations are not logged) and "F" the F
    evaluation that ends every trial (the first "F" is the starting value).
    Each polish's arguments and output go to ``polishes``.
    """
    directions, violations, polish, F_rows = maxmin._directions, maxmin._violations, maxmin._polish, problem.F_rows

    def logged_directions(*args):
        log.append("D")
        return directions(*args)

    def logged_violations(*args):
        out = violations(*args)
        log.append("E" if out[2][0] <= feas_tol else "X")
        return out

    def logged_polish(*args):
        start = len(log)
        given = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
        out = polish(*args)
        # every new iterate was evaluated by the polish's line search
        assert out[2][0] <= len(log) - start
        del log[start:]
        log.append(("P", int(out[2][0])))
        polishes.append((given, [a.copy() for a in out]))
        return out

    def logged_F(*args):
        log.append("F")
        return F_rows(*args)

    monkeypatch.setattr(maxmin, "_directions", logged_directions)
    monkeypatch.setattr(maxmin, "_violations", logged_violations)
    monkeypatch.setattr(maxmin, "_polish", logged_polish)
    monkeypatch.setattr(problem, "F_rows", logged_F)


@pytest.mark.parametrize("problem", penalty_problems(), ids=lambda p: p.name + ("_fd" if p.hess_is_fd else ""))
def test_restoration_stops_at_the_first_feasible_evaluation(monkeypatch, problem):
    """A trial is evaluated once, and polished only when that evaluation finds it off D_t.

    The returned violations are those of the returned points, every row
    that moved is feasible, and evals counts one per direction, one per
    trial and the iterations of each restoration polish after the trial's
    own evaluation: the polish starts from that evaluation, and returns
    what ``polish_onto_relaxed_set`` returns at the trial, with one
    iteration fewer.
    """
    cfg = InnerConfig(local_maxiter=40)
    lo, hi = follower_box(problem, cfg)
    rng = np.random.default_rng(29)
    trials = restored = 0
    for t in (0.2, 1e-3):
        x = leader_point(problem, rng)[None]
        P, viol, _ = polish_onto_relaxed_set(problem, x, rng.uniform(lo, np.minimum(hi, 3.0), size=(8, lo.size)), t, lo, hi, cfg.feas_tol)
        Q, qviol, fval, evals, _ = _ascend(problem, x, P, viol, t, lo, hi, cfg)
        np.testing.assert_array_equal(qviol, _violations(problem, x, Q, t)[2])
        moved = (Q != P).any(axis=1)
        assert (qviol[moved] <= cfg.feas_tol).all()
        with monkeypatch.context() as patch:
            for i in range(len(P)):
                log, polishes = [], []
                ascent_log(patch, problem, log, cfg.feas_tol, polishes)
                assert _ascend(problem, x, P[i : i + 1], viol[i : i + 1], t, lo, hi, cfg)[3][0] == evals[i]
                patch.undo()
                restored += len(polishes)
                for (_, X, Z, *given, _, _, _, _), out in polishes:
                    for got, want in zip(given, _violations(problem, X, Z, t)):
                        np.testing.assert_array_equal(got, want)
                    Zp, vp, iters = polish_onto_relaxed_set(problem, X, Z, t, lo, hi, cfg.feas_tol)
                    for got, want in zip(out, (Zp, vp, iters - 1)):
                        np.testing.assert_array_equal(got, want)
                assert log[0] == "F"
                *done, tail = "".join(e if isinstance(e, str) else "P" for e in log[1:]).split("F")
                assert tail in ("", "D")  # a last direction that found a KKT point
                for trial in done:
                    assert trial in ("E", "XP", "DE", "DXP"), trial
                trials += len(done)
                polish_iters = sum(e[1] for e in log if isinstance(e, tuple))
                assert evals[i] == log.count("D") + len(done) + polish_iters
    # q0_toy's D_t is the point y = x, at which the first direction vanishes; empty_lower_toy's is empty
    assert (trials > 0) != (problem.name in ("q0_toy", "empty_lower_toy"))
    assert (restored > 0) == (trials > 0)


@pytest.mark.parametrize("problem", benchlib_problems() + [make_quartic_toy()], ids=lambda p: p.name)
def test_a_moved_row_takes_its_residuals_from_its_trial(monkeypatch, problem):
    """Only the first direction evaluates residuals: every accepted trial hands its
    g and L rows, from its own evaluation or from its restoration polish, to its
    next direction, and the ascent is bit for bit the one whose directions
    evaluate them again."""
    cfg = InnerConfig(local_maxiter=40)
    lo, hi = follower_box(problem, cfg)
    directions, residuals = maxmin._directions, maxmin._residuals
    rng = np.random.default_rng(41)
    later = 0  # directions after an accepted trial
    for t in (0.2, 1e-3):
        x = leader_point(problem, rng)[None]
        P, viol, _ = polish_onto_relaxed_set(problem, x, rng.uniform(lo, np.minimum(hi, 3.0), size=(8, lo.size)), t, lo, hi, cfg.feas_tol)
        with monkeypatch.context() as patch:
            patch.setattr(maxmin, "_directions", lambda *args: directions(*args[:6]))
            want = _ascend(problem, x, P, viol, t, lo, hi, cfg)
        evaluated, per_direction = [0], []

        def counted_residuals(*args):
            evaluated[0] += 1
            return residuals(*args)

        def counted_directions(*args):
            before = evaluated[0]
            out = directions(*args)
            per_direction.append(evaluated[0] - before)
            return out

        with monkeypatch.context() as patch:
            patch.setattr(maxmin, "_residuals", counted_residuals)
            patch.setattr(maxmin, "_directions", counted_directions)
            got = _ascend(problem, x, P, viol, t, lo, hi, cfg)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert per_direction == [1] + [0] * (len(per_direction) - 1)
        later += len(per_direction) - 1
    assert later > 0


BOX_FACE_PROBLEMS = ["example1", "example1_fd", "synthetic2d", "synthetic2d_fd", "duplicated_g_toy"]


def box_face_starts(lo, hi, rng, count=24):
    """Starts with each coordinate, at random, at its lower bound (y at the bottom
    of y_box, u = 0), at its upper bound (the top of y_box, u = u_max) or inside."""
    Z = rng.uniform(lo, hi, size=(count, lo.size))
    face = rng.integers(0, 3, size=Z.shape)
    return np.where(face == 0, lo, np.where(face == 1, hi, Z))


@pytest.mark.parametrize("name", BOX_FACE_PROBLEMS)
def test_polish_from_box_faces_equals_its_lone_rows(name):
    """From starts on the box faces, every polished row equals its lone polish bit
    for bit, and the returned violations are those of the returned points."""
    problem = named_problem(name)
    cfg = InnerConfig()
    lo, hi = follower_box(problem, cfg)
    rng = np.random.default_rng(43)
    for t in (0.1, 1e-3, 0.0):
        x = leader_point(problem, rng)
        Z0 = box_face_starts(lo, hi, rng)
        P, viol, iters = polish_onto_relaxed_set(problem, x, Z0, t, lo, hi, cfg.feas_tol)
        np.testing.assert_array_equal(viol, _violations(problem, x[None], P, t)[2])
        for i in range(len(Z0)):
            Pi, viol_i, iters_i = polish_onto_relaxed_set(problem, x, Z0[i : i + 1], t, lo, hi, cfg.feas_tol)
            np.testing.assert_array_equal(Pi[0], P[i])
            assert (viol_i[0], iters_i[0]) == (viol[i], iters[i])


@pytest.mark.parametrize("name", BOX_FACE_PROBLEMS)
def test_polish_solves_each_step_once_with_the_binding_set_fixed(monkeypatch, name):
    """One regularised solve per Gauss-Newton iteration, and no step moves a coordinate
    of the binding set: a coordinate at a bound whose steepest descent of
    |v|^2 / 2, -J^T v over the violated rows, points out of the box."""
    problem = named_problem(name)
    m = problem.dims.m
    cfg = InnerConfig()
    lo, hi = follower_box(problem, cfg)
    jacobian, solve = maxmin._residual_jacobian, maxmin._regularised_solve
    rng = np.random.default_rng(47)
    binding = 0
    for t in (0.1, 1e-3, 0.0):
        x = leader_point(problem, rng)
        steps = []  # per iteration: the rows' leader points, points and step

        def logged_jacobian(problem, X, Z, *rest):
            steps.append([X, Z.copy()])
            return jacobian(problem, X, Z, *rest)

        def logged_solve(M, rhs, refine=False):
            dz = solve(M, rhs, refine)
            steps[-1].append(dz)
            return dz

        with monkeypatch.context() as patch:
            patch.setattr(maxmin, "_residual_jacobian", logged_jacobian)
            patch.setattr(maxmin, "_regularised_solve", logged_solve)
            polish_onto_relaxed_set(problem, x, box_face_starts(lo, hi, rng), t, lo, hi, cfg.feas_tol)
        assert steps
        for X, Z, *solved in steps:
            assert len(solved) == 1
            g, v, _ = _violations(problem, X, Z, t)
            J = _residual_jacobian(problem, X, Z, Z[:, m:], g)
            J[:, m:] *= (v[:, m:] > 0.0)[:, :, None]
            descent = -(J * v[:, :, None]).sum(axis=1)
            bind = ((Z <= lo + 1e-12) & (descent < 0.0)) | ((Z >= hi - 1e-12) & (descent > 0.0))
            assert (solved[0][bind] == 0.0).all()
            binding += bind.sum()
    assert binding > 0


def reference_project(A, on, grad):
    """The projection with the bounds as rows: [A; I; -I] masked by ``on``, one stacked SVD.

    Returns d and the least-norm multipliers of all the stacked rows.
    """
    k = A.shape[2]
    eye = np.broadcast_to(np.eye(k), (len(A), k, k))
    W, s, Vt = np.linalg.svd(np.concatenate([A, eye, -eye], axis=1) * on[:, :, None], full_matrices=False)
    keep = s > RANK_TOL * s[:, :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    d = grad - np.einsum("nji,nj->ni", Vt, np.einsum("nij,nj->ni", Vt, grad) * keep)
    return d, np.where(on, np.einsum("nij,nj,njl,nl->ni", W, inv, Vt, grad), 0.0)


def project_stacks(rng):
    """Random row stacks with masks [active rows | upper bounds | lower bounds], no
    coordinate at both bounds: Gaussian ones, example1's rows [L | g | w],
    whose active g and w rows at a multiplier 0 are parallel (rank-deficient),
    and duplicated_g_toy's, whose g rows and, at equal multipliers, w rows
    repeat exactly."""
    A = rng.normal(size=(30, 5, 3))
    up = rng.uniform(size=(30, 3)) < 0.3
    yield A, np.concatenate([rng.uniform(size=(30, 5)) < 0.4, up, ~up & (rng.uniform(size=(30, 3)) < 0.3)], axis=1), rng.normal(size=(30, 3))
    problem = pbopt.get_problem("example1")[0]
    m, q = problem.dims.m, problem.dims.q
    lo, hi = follower_box(problem, InnerConfig())
    Z = rng.uniform(lo, np.minimum(hi, 3.0), size=(30, lo.size))
    Z[:, m:] *= rng.uniform(size=(30, q)) < 0.5  # multipliers at their lower bound 0
    X = rng.uniform(-1.0, 1.0, size=(30, 1))
    U, g, _ = _residuals(problem, X, Z, 0.1)
    A = _residual_jacobian(problem, X, Z, U, g)
    act = rng.uniform(size=A.shape[:2]) < 0.5
    act[:, :m] = True
    up = rng.uniform(size=(30, m + q)) < 0.2
    yield A, np.concatenate([act, up, ~up & (Z <= lo)], axis=1), rng.normal(size=(30, m + q))
    toy = make_duplicated_g_toy()
    m, q = toy.dims.m, toy.dims.q
    lo, hi = follower_box(toy, InnerConfig())
    Z = rng.uniform(lo, np.minimum(hi, 3.0), size=(30, lo.size))
    Z[:, m:] = Z[:, m : m + 1] * (rng.uniform(size=(30, 1)) < 0.7)  # u1 = u2, some at their lower bound 0
    X = rng.uniform(toy.x_box[:, 0], toy.x_box[:, 1], size=(30, 1))
    U, g, _ = _residuals(toy, X, Z, 0.5)
    A = _residual_jacobian(toy, X, Z, U, g)
    act = rng.uniform(size=A.shape[:2]) < 0.7
    act[:, :m] = True
    up = rng.uniform(size=(30, m + q)) < 0.2
    yield A, np.concatenate([act, up, ~up & (Z <= lo)], axis=1), rng.normal(size=(30, m + q))


def test_project_matches_the_svd_reference():
    """_project with fixed coordinates gives the d of the projection with the bounds
    stacked as rows, its multipliers reproduce grad - d, and on full-rank stacks
    they are the stacked projection's multipliers."""
    rng = np.random.default_rng(31)
    deficient = full = 0
    for A, on, grad in project_stacks(rng):
        rows, k = A.shape[1:]
        d, lam = _project(A, on, grad)
        mult = _multipliers(A, on, lam, grad)
        d_ref, mult_ref = reference_project(A, on, grad)
        assert (np.abs(d - d_ref) <= 1e-12 * np.maximum(np.abs(d_ref).max(axis=1, keepdims=True), 1.0)).all()
        fixed = on[:, rows : rows + k] | on[:, rows + k :]
        assert (d[fixed] == 0.0).all()
        Aa = A * on[:, :rows, None]
        tol = 1e-12 * (1.0 + np.abs(Aa).max()) * (1.0 + np.abs(lam).max()) * np.abs(grad).max()
        assert np.abs(Aa @ d[:, :, None]).max() <= tol  # d is tangent to the active rows
        # A_act^T lam + sum_j side_j mu_j e_j = grad - d, side +1 at the upper bound and -1 at the lower
        rebuilt = (np.swapaxes(Aa, 1, 2) @ mult[:, :rows, None])[:, :, 0] + mult[:, rows : rows + k] - mult[:, rows + k :]
        np.testing.assert_allclose(rebuilt, grad - d, rtol=0, atol=tol)
        stacked = np.concatenate([Aa, np.eye(k) * fixed[:, :, None]], axis=1)
        rank = np.linalg.matrix_rank(stacked) == on.sum(axis=1)
        deficient += (~rank).sum()
        full += rank.sum()
        assert (np.abs(mult - mult_ref)[rank] <= 1e-10 * (1.0 + np.abs(mult_ref[rank]))).all()
    assert deficient > 0 and full > 0


def test_a_coordinate_fixed_at_both_bounds_stays_fixed():
    """With lo == hi both bounds fix the coordinate; freeing the one with a
    negative multiplier leaves the other, whose multiplier is >= 0, and d = 0 there."""
    rng = np.random.default_rng(37)
    A, grad = rng.normal(size=(20, 4, 3)), rng.normal(size=(20, 3))
    on = np.concatenate([rng.uniform(size=(20, 4)) < 0.5, np.tile([False, True, False], (20, 2))], axis=1)
    d, lam = _project(A, on, grad)
    mult = _multipliers(A, on, lam, grad)
    upper, lower = mult[:, 5], mult[:, 8]
    np.testing.assert_array_equal(upper, -lower)
    on[:, 5] &= upper >= 0.0
    on[:, 8] &= lower >= 0.0
    d2, lam2 = _project(A, on, grad)
    np.testing.assert_array_equal(d2, d)
    assert (d[:, 1] == 0.0).all()
    assert (_multipliers(A, on, lam2, grad)[:, [5, 8]] >= 0.0).all()


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
