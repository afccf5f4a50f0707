"""Differential tests of the batched inner solver.

The ascent's rows and Jacobian must match central differences of the
residual, a start must not notice the other starts of its batch, and the
vectorised problem hooks must only be a faster way to compute what the
per-point evaluators compute.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbopt
from pbopt import InnerConfig, evaluate_psi_t
from pbopt import maxmin
from pbopt.maxmin import (
    RANK_TOL,
    _ascend,
    _multipliers,
    _project,
    follower_box,
    polish_onto_relaxed_set,
)
from pbopt.problem_model import relaxed_jacobian, relaxed_rows, relaxed_violations

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


def rows_jacobian(problem, X, Z, g):
    """The Jacobian of the signed rows at the rows of Z, as the inner solver builds it."""
    m = problem.dims.m
    return relaxed_jacobian(problem.lagrangian_jac_rows(X, Z[:, :m], Z[:, m:]), Z[:, m:], g)


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
        g, r = relaxed_rows(problem, x, Z, t)
        A = rows_jacobian(problem, x, Z, g)
        assert A.shape == r.shape + (k,) == (len(Z), problem.dims.m + 2 * problem.dims.q, k)
        for j, e in enumerate(h * np.eye(k)):
            fd = (relaxed_rows(problem, x, Z + e, t)[1] - relaxed_rows(problem, x, Z - e, t)[1]) / (2 * h)
            scale = np.maximum(1.0, np.abs(A[:, :, j]))
            assert (np.abs(fd - A[:, :, j]) <= 1e-6 * scale).all(), (j, np.abs(fd - A[:, :, j]).max())


def test_residuals_flag_nonfinite_rows(example1):
    problem, _ = example1
    Z = np.array([[0.5, 0.2, 0.1], [np.nan, 0.2, 0.1]])
    _, v, viol = relaxed_violations(problem, np.array([[0.5]]), Z, 0.1)
    assert v.shape == (2, problem.dims.m + 2 * problem.dims.q)
    assert np.isfinite(v[0]).all() and np.isfinite(viol[0])
    assert (v[1] == np.inf).all() and viol[1] == np.inf


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
    Q, qviol, fval, evals, settled = _ascend(problem, x[None], Z0, t, lo, hi, cfg)
    for i in range(len(Z0)):
        Pi, viol_i, iters_i = polish_onto_relaxed_set(problem, x, Z0[i : i + 1], t, lo, hi, cfg.feas_tol)
        np.testing.assert_array_equal(Pi[0], P[i])
        assert (viol_i[0], iters_i[0]) == (viol[i], iters[i])
        Qi, qviol_i, fval_i, evals_i, settled_i = _ascend(problem, x[None], Z0[i : i + 1], t, lo, hi, cfg)
        np.testing.assert_array_equal(Qi[0], Q[i])
        assert (qviol_i[0], fval_i[0], evals_i[0], settled_i[0]) == (qviol[i], fval[i], evals[i], settled[i])


def ascent_log(monkeypatch, problem, log, feas_tol, polishes):
    """Record, in call order, the ascent's events at a lone row.

    "D" is a new direction, "E" an evaluation of the violations that finds
    its point on D_t and "X" one that finds it off, ("P", iterations) a
    polish (its own evaluations are not logged) and "F" the F evaluation
    that ends every trial.  The log opens with the start's check, its
    polish and the starting value's "F".  Each polish's arguments and
    output go to ``polishes``.
    """
    directions, violations, polish, F_rows = maxmin._directions, maxmin.relaxed_violations, maxmin._polish, problem.F_rows

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
    monkeypatch.setattr(maxmin, "relaxed_violations", logged_violations)
    monkeypatch.setattr(maxmin, "_polish", logged_polish)
    monkeypatch.setattr(problem, "F_rows", logged_F)


@pytest.mark.parametrize("problem", penalty_problems(), ids=lambda p: p.name + ("_fd" if p.hess_is_fd else ""))
def test_restoration_stops_at_the_first_feasible_evaluation(monkeypatch, problem):
    """A trial is evaluated once, and polished only when that evaluation finds it off D_t.

    The start is checked once and polished from that check by the same
    polish.  The returned violations are those of the returned points,
    every row that moved from its polished start is feasible, and evals
    counts the start's check, one per direction, one per trial and the
    iterations of each polish after the evaluation it starts from: every
    polish returns what ``polish_onto_relaxed_set`` returns at its point,
    with one iteration fewer.
    """
    cfg = InnerConfig(local_maxiter=40)
    lo, hi = follower_box(problem, cfg)
    rng = np.random.default_rng(29)
    trials = restored = 0
    for t in (0.2, 1e-3):
        x = leader_point(problem, rng)[None]
        Z0 = rng.uniform(lo, np.minimum(hi, 3.0), size=(8, lo.size))
        P, viol, _ = polish_onto_relaxed_set(problem, x, Z0, t, lo, hi, cfg.feas_tol)
        Q, qviol, fval, evals, _ = _ascend(problem, x, Z0, t, lo, hi, cfg)
        np.testing.assert_array_equal(qviol, relaxed_violations(problem, x, Q, t)[2])
        moved = (Q != P).any(axis=1)
        assert (qviol[moved] <= cfg.feas_tol).all()
        with monkeypatch.context() as patch:
            for i in range(len(P)):
                log, polishes = [], []
                ascent_log(patch, problem, log, cfg.feas_tol, polishes)
                assert _ascend(problem, x, Z0[i : i + 1], t, lo, hi, cfg)[3][0] == evals[i]
                patch.undo()
                np.testing.assert_array_equal(polishes[0][0][2], Z0[i : i + 1])  # the start polish
                restored += len(polishes) - 1
                for (_, X, Z, *given, _, _, _, _), out in polishes:
                    for got, want in zip(given, relaxed_violations(problem, X, Z, t)):
                        np.testing.assert_array_equal(got, want)
                    Zp, vp, iters = polish_onto_relaxed_set(problem, X, Z, t, lo, hi, cfg.feas_tol)
                    for got, want in zip(out, (Zp, vp, iters - 1)):
                        np.testing.assert_array_equal(got, want)
                assert log[0] in ("E", "X") and log[1][0] == "P" and log[2] == "F"
                *done, tail = "".join(e if isinstance(e, str) else "P" for e in log[3:]).split("F")
                assert tail in ("", "D")  # a last direction that found a KKT point
                for trial in done:
                    assert trial in ("E", "XP", "DE", "DXP"), trial
                trials += len(done)
                polish_iters = sum(e[1] for e in log if isinstance(e, tuple))
                assert evals[i] == 1 + log.count("D") + len(done) + polish_iters
    # q0_toy's D_t is the point y = x, at which the first direction vanishes; empty_lower_toy's is empty
    assert (trials > 0) != (problem.name in ("q0_toy", "empty_lower_toy"))
    assert (restored > 0) == (trials > 0)


@pytest.mark.parametrize("problem", benchlib_problems() + [make_quartic_toy()], ids=lambda p: p.name)
def test_a_moved_row_takes_its_residuals_from_its_trial(monkeypatch, problem):
    """No direction evaluates residuals: the first directions take the g and L
    rows of the start polish, and every accepted trial hands its own, from its
    evaluation or from its restoration polish, to its next direction.  The
    ascent is bit for bit the one whose directions evaluate them again."""
    cfg = InnerConfig(local_maxiter=40)
    lo, hi = follower_box(problem, cfg)
    m = problem.dims.m
    directions, g_rows = maxmin._directions, problem.g_rows
    rng = np.random.default_rng(41)
    later = 0  # directions after an accepted trial
    for t in (0.2, 1e-3):
        x = leader_point(problem, rng)[None]
        Z0 = rng.uniform(lo, np.minimum(hi, 3.0), size=(8, lo.size))

        def evaluated_directions(problem, X, Z, t, lo, hi, known):
            g, r = relaxed_rows(problem, X, Z, t)
            return directions(problem, X, Z, t, lo, hi, (g, r[:, :m]))

        with monkeypatch.context() as patch:
            patch.setattr(maxmin, "_directions", evaluated_directions)
            want = _ascend(problem, x, Z0, t, lo, hi, cfg)
        evaluated, per_direction = [0], []

        def counted_g_rows(*args):
            evaluated[0] += 1
            return g_rows(*args)

        def counted_directions(*args):
            before = evaluated[0]
            out = directions(*args)
            per_direction.append(evaluated[0] - before)
            return out

        with monkeypatch.context() as patch:
            patch.setattr(problem, "g_rows", counted_g_rows)
            patch.setattr(maxmin, "_directions", counted_directions)
            got = _ascend(problem, x, Z0, t, lo, hi, cfg)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert evaluated[0] > 0 and per_direction == [0] * len(per_direction)
        later += len(per_direction) - 1
    assert later > 0


def test_a_new_direction_first_steps_to_its_cap_and_a_rejection_halves_the_length(monkeypatch):
    """Rosen's step rule, traced at lone rows: the first trial after each new
    direction is the step to its cap, the first inactive row or bound it
    crosses, and each rejected trial halves the last tried length."""
    cfg = InnerConfig(local_maxiter=40)
    directions, violations, polish = maxmin._directions, maxmin.relaxed_violations, maxmin._polish
    rng = np.random.default_rng(53)
    firsts = halvings = 0
    for problem, t in itertools.product(benchlib_problems() + [make_quartic_toy(), make_duplicated_g_toy()], (0.4, 0.05, 1e-3, 0.0)):
        lo, hi = follower_box(problem, cfg)
        x = leader_point(problem, rng)[None]
        Z0 = rng.uniform(lo, np.minimum(hi, 3.0), size=(8, lo.size))
        for i in range(len(Z0)):
            # ("D", point, d, cap) per new direction, ("T", point) per trial after the start's check
            log, polishing = [], [False]

            def logged_directions(problem, X, Z, *rest):
                moving, d, cap = out = directions(problem, X, Z, *rest)
                log.append(("D", Z[0].copy(), d[0].copy(), cap[0]) if moving[0] else ("KKT",))
                return out

            def logged_violations(problem, X, Z, t):
                if not polishing[0]:  # the ascent's own evaluation of a trial
                    log.append(("T", Z[0].copy()))
                return violations(problem, X, Z, t)

            def logged_polish(*args):
                polishing[0] = True
                try:
                    return polish(*args)
                finally:
                    polishing[0] = False

            with monkeypatch.context() as patch:
                patch.setattr(maxmin, "_directions", logged_directions)
                patch.setattr(maxmin, "relaxed_violations", logged_violations)
                patch.setattr(maxmin, "_polish", logged_polish)
                _ascend(problem, x, Z0[i : i + 1], t, lo, hi, cfg)
            assert log[0][0] == "T"
            np.testing.assert_array_equal(log[0][1], Z0[i])  # the start's own check comes first
            length, first = None, False  # the length the next trial must have, and whether it is the first
            for kind, *event in log[1:]:
                if kind == "D":
                    (Z, d, length), first = event, True
                elif kind == "KKT":
                    length = None
                else:
                    assert length is not None, "a trial without a direction"
                    np.testing.assert_array_equal(event[0], np.clip(Z + length * d, lo, hi))
                    firsts, halvings = firsts + first, halvings + (not first)
                    length, first = 0.5 * length, False
    assert firsts > 0 and halvings > 0


@pytest.mark.parametrize(
    "name",
    [base + fd for base in ("example1", "example2", "synthetic2d") for fd in ("", "_fd")]
    + ["dip_toy", "biactive_toy", "q0_toy", "empty_lower_toy", "no_slater_toy", "opposing_leader_toy", "duplicated_g_toy", "interior_toy", "quartic_toy"],
)
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.sampled_from([0.0, 1e-3, 0.1]))
def test_every_row_with_a_direction_has_a_finite_cap(name, seed, t):
    """The ascent's first trial steps to the cap, so a row with a direction needs
    a finite positive one (0 * inf is NaN): at box-face starts, off D_t, and at
    every direction of an ascent from their polished points."""
    problem = named_problem(name)
    cfg = InnerConfig(local_maxiter=40)
    lo, hi = follower_box(problem, cfg)
    rng = np.random.default_rng(seed)
    x = leader_point(problem, rng)[None]
    Z0 = box_face_starts(lo, hi, rng, count=12)
    directions, seen = maxmin._directions, []

    def logged_directions(*args):
        seen.append(directions(*args))
        return seen[-1]

    with np.errstate(over="ignore", invalid="ignore"), pytest.MonkeyPatch.context() as patch:
        g, v, _ = relaxed_violations(problem, x, Z0, t)
        seen.append(directions(problem, x, Z0, t, lo, hi, (g, v[:, : problem.dims.m])))
        patch.setattr(maxmin, "_directions", logged_directions)
        _ascend(problem, x, Z0, t, lo, hi, cfg)
    for moving, _, cap in seen:
        assert np.isfinite(cap[moving]).all() and (cap[moving] > 0.0).all()


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
        np.testing.assert_array_equal(viol, relaxed_violations(problem, x[None], P, t)[2])
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
    jacobian, solve = problem.lagrangian_jac_rows, maxmin._regularised_solve
    rng = np.random.default_rng(47)
    binding = 0
    for t in (0.1, 1e-3, 0.0):
        x = leader_point(problem, rng)
        steps = []  # per iteration: the rows' leader points, points and step

        def logged_jacobian(X, Y, U):
            steps.append([X, np.hstack([Y, U])])
            return jacobian(X, Y, U)

        def logged_solve(M, rhs, refine=False):
            dz = solve(M, rhs, refine)
            steps[-1].append(dz)
            return dz

        with monkeypatch.context() as patch:
            patch.setattr(problem, "lagrangian_jac_rows", logged_jacobian)
            patch.setattr(maxmin, "_regularised_solve", logged_solve)
            polish_onto_relaxed_set(problem, x, box_face_starts(lo, hi, rng), t, lo, hi, cfg.feas_tol)
        assert steps
        for X, Z, *solved in steps:
            assert len(solved) == 1
            g, v, _ = relaxed_violations(problem, X, Z, t)
            J = rows_jacobian(problem, X, Z, g)
            J[:, m:] *= (v[:, m:] > 0.0)[:, :, None]
            descent = -(J * v[:, :, None]).sum(axis=1)
            bind = ((Z <= lo + 1e-12) & (descent < 0.0)) | ((Z >= hi - 1e-12) & (descent > 0.0))
            assert (solved[0][bind] == 0.0).all()
            binding += bind.sum()
    assert binding > 0


def reference_polish(problem, X, Z, g, v, viol, t, lo, hi, feas_tol):
    """``maxmin._polish`` with the line search in one loop: every iteration
    gathers its rows and tries steps 1, 1/2, ... over index sets.

    Returns what ``_polish`` returns, plus the rows that took a step shorter than 1.
    """
    m = problem.dims.m
    iters = np.zeros(Z.shape[0], dtype=int)
    floor = (0.1 * feas_tol) ** 2
    shorter = 0
    todo = (viol > feas_tol).nonzero()[0]
    for k in range(maxmin.POLISH_MAXITER):
        if not todo.size:
            break
        Xt, Zt, vt = maxmin._take(X, todo), Z[todo], v[todo]
        J = relaxed_jacobian(problem.lagrangian_jac_rows(Xt, Zt[:, :m], Zt[:, m:]), Zt[:, m:], g[todo])
        J[:, m:] *= (vt[:, m:] > 0.0)[:, :, None]
        JtJ = J.mT @ J
        rhs = -np.add.reduce(J * vt[:, :, None], axis=1)
        bind = ((Zt <= lo + 1e-12) & (rhs < 0.0)) | ((Zt >= hi - 1e-12) & (rhs > 0.0))
        if np.logical_or.reduce(bind, axis=None):
            free = ~bind
            JtJ = np.where(free[:, :, None] & free[:, None, :], JtJ, 0.0)
            rhs = np.where(free, rhs, 0.0)
        dz = maxmin._regularised_solve(JtJ, rhs)
        base = np.add.reduce(vt * vt, axis=1)
        accepted = np.zeros(todo.size, dtype=bool)
        pending = np.arange(todo.size)
        step = 1.0
        for _ in range(10):
            cand = (Zt[pending] + step * dz[pending]).clip(lo, hi)
            gc, vc, violc = relaxed_violations(problem, maxmin._take(Xt, pending), cand, t)
            better = np.add.reduce(vc * vc, axis=1) < base[pending] - floor
            rows = todo[pending[better]]
            Z[rows], g[rows], v[rows] = cand[better], gc[better], vc[better]
            viol[rows] = violc[better]
            accepted[pending[better]] = True
            if step < 1.0:
                shorter += int(better.sum())
            pending = pending[~better]
            if not pending.size:
                break
            step *= 0.5
        todo = todo[accepted]
        if k + 1 < maxmin.POLISH_MAXITER:
            iters[todo] += 1
        todo = todo[viol[todo] > feas_tol]
    return Z, viol, iters, shorter


def restoration_blocks(problem, lo, hi, t, feas_tol, rng):
    """(X, Z) blocks as the polish gets them: starts on the box faces and
    inside the box, none or about half of them first polished onto D_t (a
    start polish, a restoration), under one leader point or one per row."""
    box = problem.x_box
    for leaders, share in itertools.product((1, 32), (0.0, 0.5)):
        X = rng.uniform(box[:, 0], box[:, 1], size=(leaders, problem.dims.n))
        Z0 = np.vstack([box_face_starts(lo, hi, rng, 16), rng.uniform(lo, hi, size=(16, lo.size))])
        P, viol, _ = polish_onto_relaxed_set(problem, X, Z0, t, lo, hi, feas_tol)
        on = (viol <= feas_tol) & (rng.uniform(size=len(Z0)) < share)
        yield X, np.where(on[:, None], P, Z0)


@pytest.mark.parametrize("name", ["example1", "example2", "synthetic2d", "duplicated_g_toy", "nan_region_toy", "nan_g_toy"])
def test_polish_equals_the_one_loop_line_search(name):
    """The polish updates Z, g, v and viol in place exactly as the one-loop
    line search does, and gives the same iteration counts; a row already on
    D_t comes back untouched after 0 iterations.  The draws include rows that
    reject the full step and take a shorter one."""
    problem = named_problem(name)
    cfg = InnerConfig()
    lo, hi = follower_box(problem, cfg)
    rng = np.random.default_rng(53)
    on_set = shorter = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in (0.1, 1e-3, 0.0):
            for X, Z in restoration_blocks(problem, lo, hi, t, cfg.feas_tol, rng):
                given = [Z, *relaxed_violations(problem, X, Z, t)]
                want = [a.copy() for a in given]
                *_, iters_want, short = reference_polish(problem, X, *want, t, lo, hi, cfg.feas_tol)
                got = [a.copy() for a in given]
                Zp, viol, iters = maxmin._polish(problem, X, *got, t, lo, hi, cfg.feas_tol)
                assert Zp is got[0] and viol is got[3]
                for a, b in zip(got, want):
                    assert a.tobytes() == b.tobytes()
                assert iters.tobytes() == iters_want.tobytes()
                held = given[3] <= cfg.feas_tol
                for a, b in zip(got, given):
                    assert a[held].tobytes() == b[held].tobytes()
                assert (iters[held] == 0).all()
                on_set += held.sum()
                shorter += short
    assert on_set > 0 and shorter > 0


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
    g, _ = relaxed_rows(problem, X, Z, 0.1)
    A = rows_jacobian(problem, X, Z, g)
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
    g, _ = relaxed_rows(toy, X, Z, 0.5)
    A = rows_jacobian(toy, X, Z, g)
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
