import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbopt
from pbopt import BilevelProblem, ProblemDims, TriplePoint
from pbopt.problem_model import (
    HESS_FIELDS,
    DimensionError,
    check_gradients_fd,
    lagrangian_grad,
    lagrangian_jacobians,
    lagrangian_x_jacobian,
)

from toys import BATCH_HOOKS, named_problem


def test_dims_validation():
    with pytest.raises(DimensionError):
        ProblemDims(n=0, m=1, p=1, q=1)
    with pytest.raises(DimensionError):
        ProblemDims(n=1, m=1, p=0, q=0)
    ProblemDims(n=1, m=1, p=0, q=1)  # one of p, q may be zero


@pytest.mark.parametrize("sizes", [(1.5, 1, 0, 1), (True, 1, 0, 1), (1, 1, 0.5, 1), (1, 2.0, 1, 1), (1, 1, 1, "2")], ids=["float_n", "bool_n", "float_p", "float_m", "str_q"])
def test_dims_that_are_not_integers_are_refused(sizes):
    # 1.5, True and 0.5 were accepted and failed later with a traceback (a reshape, say)
    with pytest.raises(DimensionError, match="sizes must be integers"):
        ProblemDims(*sizes)
    assert ProblemDims(np.int64(1), 1, 0, 1).n == 1


def test_lagrangian_example1(example1):
    problem, _ = example1
    pt = TriplePoint([0.5], [0.2], [0.5, 0.0])
    # x - u1 + u2 with the stated data
    assert lagrangian_grad(problem, pt) == pytest.approx([0.0], abs=1e-15)
    pt2 = TriplePoint([0.7], [0.1], [0.2, 0.05])
    assert lagrangian_grad(problem, pt2) == pytest.approx([0.7 - 0.2 + 0.05])


def test_lagrangian_example2(example2):
    problem, _ = example2
    pt = TriplePoint([-1.0], [1.0], [0.0, 1.0])
    assert lagrangian_grad(problem, pt) == pytest.approx([0.0], abs=1e-15)


def test_lagrangian_zero_multipliers(example1, example2, synthetic):
    for problem, _ in (example1, example2, synthetic):
        d = problem.dims
        rng = np.random.default_rng(3)
        for _ in range(5):
            pt = TriplePoint(rng.normal(size=d.n), rng.normal(size=d.m), np.zeros(d.q))
            expected = problem.grad_f(pt.x, pt.y)[1]
            np.testing.assert_array_equal(lagrangian_grad(problem, pt), expected)


def test_lagrangian_linearity_in_u(example1, example2, synthetic):
    # L(x,y,u1+u2) = L(x,y,u1) + L(x,y,u2) - grad_y f
    for problem, _ in (example1, example2, synthetic):
        d = problem.dims
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.normal(size=d.n)
            y = rng.normal(size=d.m)
            u1 = rng.uniform(0, 2, size=d.q)
            u2 = rng.uniform(0, 2, size=d.q)
            lhs = lagrangian_grad(problem, TriplePoint(x, y, u1 + u2))
            rhs = (
                lagrangian_grad(problem, TriplePoint(x, y, u1))
                + lagrangian_grad(problem, TriplePoint(x, y, u2))
                - problem.grad_f(x, y)[1]
            )
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-13)


def test_lagrangian_jacobians_example1(example1):
    problem, _ = example1
    pt = TriplePoint([0.4], [0.9], [0.3, 0.1])
    lx, ly, lu = lagrangian_jacobians(problem, pt)
    np.testing.assert_array_equal(lx, [[1.0]])
    np.testing.assert_array_equal(ly, [[0.0]])
    np.testing.assert_array_equal(lu, [[-1.0, 1.0]])


def test_lagrangian_jacobians_match_directional_fd(example1, example2, synthetic):
    h = 1e-6
    for problem, _ in (example1, example2, synthetic):
        d = problem.dims
        rng = np.random.default_rng(5)
        for _ in range(5):
            pt = TriplePoint(
                rng.uniform(-0.5, 0.5, size=d.n),
                rng.uniform(-0.5, 0.5, size=d.m),
                rng.uniform(0, 1, size=d.q),
            )
            lx, ly, _ = lagrangian_jacobians(problem, pt)
            for j in range(d.n):
                e = np.zeros(d.n)
                e[j] = h
                fd = (
                    lagrangian_grad(problem, TriplePoint(pt.x + e, pt.y, pt.u))
                    - lagrangian_grad(problem, TriplePoint(pt.x - e, pt.y, pt.u))
                ) / (2 * h)
                np.testing.assert_allclose(lx[:, j], fd, atol=1e-6)
            for j in range(d.m):
                e = np.zeros(d.m)
                e[j] = h
                fd = (
                    lagrangian_grad(problem, TriplePoint(pt.x, pt.y + e, pt.u))
                    - lagrangian_grad(problem, TriplePoint(pt.x, pt.y - e, pt.u))
                ) / (2 * h)
                np.testing.assert_allclose(ly[:, j], fd, atol=1e-6)


def test_fd_fallback_close_to_analytic(example2):
    analytic, _ = example2
    fallback = BilevelProblem(
        dims=analytic.dims,
        eval_F=analytic.eval_F,
        eval_f=analytic.eval_f,
        eval_G=analytic.eval_G,
        eval_g=analytic.eval_g,
        grad_F=analytic.grad_F,
        grad_f=analytic.grad_f,
        jac_G=analytic.jac_G,
        jac_g=analytic.jac_g,
        x_box=analytic.x_box,
        y_box=analytic.y_box,
    )
    assert fallback.hess_is_fd
    pt = TriplePoint([-0.3], [0.6], [0.2, 0.5])
    for a, b in zip(lagrangian_jacobians(analytic, pt), lagrangian_jacobians(fallback, pt)):
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-5)


def test_one_missing_hessian_makes_the_problem_fd_throughout(example2):
    problem, _ = example2
    partial = dataclasses.replace(problem, hess_g_yy=None)
    assert partial.hess_is_fd
    assert all(getattr(partial, h) is None for h in HESS_FIELDS)
    assert not problem.hess_is_fd and all(getattr(problem, h) is not None for h in HESS_FIELDS)


@pytest.mark.parametrize(
    "box", [[1.0, -1.0], [np.nan, 1.0], [-1.0, np.inf], [-np.inf, 1.0]], ids=["inverted", "nan", "inf", "-inf"]
)
def test_bad_leader_box_is_refused(example2, box):
    # an inverted box used to be searched as if it held only its lower end, an
    # infinite one failed mid-solve, and a NaN bound was blamed on x_init
    with pytest.raises(ValueError, match="leader box must be finite with lower <= upper"):
        dataclasses.replace(example2[0], x_box=[box])


def test_hess_is_fd_is_not_a_constructor_argument(example1):
    problem, _ = example1
    kw = {f.name: getattr(problem, f.name) for f in dataclasses.fields(problem) if f.name != "hess_is_fd"}
    with pytest.raises(TypeError):
        BilevelProblem(**kw, hess_is_fd=True)


@pytest.mark.parametrize(
    "name", ["example1_fd", "example2_fd", "synthetic2d_fd", "example2_bare_fd", "biactive_toy_fd", "q0_toy_fd", "quartic_toy_fd"]
)
def test_certifier_jacobians_are_the_solver_row(name):
    # one finite-difference rule: [L_y | L_u] of lagrangian_jacobians is the one-row lagrangian_jac_rows, bit for bit
    problem = named_problem(name)
    assert problem.hess_is_fd
    d = problem.dims
    rng = np.random.default_rng(13)
    for _ in range(5):
        pt = TriplePoint(rng.uniform(-1, 1, d.n), rng.uniform(-1, 1, d.m), rng.uniform(0, 2, d.q))
        lx, ly, lu = lagrangian_jacobians(problem, pt)
        assert lx.shape == (d.m, d.n) and ly.shape == (d.m, d.m) and lu.shape == (d.m, d.q)
        row = problem.lagrangian_jac_rows(pt.x[None], pt.y[None], pt.u[None])[0]
        np.testing.assert_array_equal(np.hstack([ly, lu]), row)


@pytest.mark.parametrize(
    "name", ["example1", "example2", "synthetic2d", "duplicated_g_toy", "quartic_toy", "example2_fd", "synthetic2d_fd", "q0_toy_fd"]
)
def test_lagrangian_x_jacobian_is_the_l_x_of_lagrangian_jacobians(name):
    # one rule for L_x, analytic or by differences, whether or not L_y and L_u are built with it
    problem = named_problem(name)
    d = problem.dims
    rng = np.random.default_rng(17)
    for _ in range(5):
        pt = TriplePoint(rng.uniform(-1, 1, d.n), rng.uniform(-1, 1, d.m), rng.uniform(0, 2, d.q))
        lx = lagrangian_x_jacobian(problem, pt.x, pt.y, pt.u)
        assert lx.shape == (d.m, d.n)
        assert lx.tobytes() == lagrangian_jacobians(problem, pt)[0].tobytes()


@pytest.mark.parametrize("rows", [3, 7])
@pytest.mark.parametrize("method", ["F_rows", "g_rows", "lagrangian_rows", "grad_F_rows", "lagrangian_jac_rows"])
@pytest.mark.parametrize("name", ["example2_bare", "dip_toy"])
def test_hook_free_rows_refuse_a_mismatched_leader_block(name, method, rows):
    # the per-point loop zipped the leader rows with the follower rows, so a
    # 3-row leader block against 5 follower rows left two rows unwritten
    problem = named_problem(name)
    d = problem.dims
    rng = np.random.default_rng(5)
    X, Y, U = rng.uniform(0, 1, (rows, d.n)), rng.uniform(0, 1, (5, d.m)), rng.uniform(0, 1, (5, d.q))
    args = (X, Y, U) if method.startswith("lagrangian") else (X, Y)
    with pytest.raises(DimensionError, match=f"leader block has {rows} rows, expected 1 or 5"):
        getattr(problem, method)(*args)


def test_fd_problem_follows_a_replaced_gradient():
    # f = y^2/2 - x*y becomes 3y^2/2 - x*y: L_yy goes from 1 to 3; the certifier must see the new gradient
    fd = named_problem("biactive_toy_bare_fd")
    steeper = dataclasses.replace(fd, grad_f=lambda x, y: (np.array([-y[0]]), np.array([3.0 * y[0] - x[0]])))
    pt = TriplePoint([0.2], [0.4], [0.1])
    lx, ly, lu = lagrangian_jacobians(steeper, pt)
    np.testing.assert_allclose(ly, [[3.0]], atol=1e-8)
    np.testing.assert_allclose(lx, [[-1.0]], atol=1e-8)
    np.testing.assert_allclose(lu, [[-1.0]], atol=1e-12)
    np.testing.assert_allclose(lagrangian_jacobians(fd, pt)[1], [[1.0]], atol=1e-8)


def test_gradcheck_example1_clean(example1):
    problem, _ = example1
    report = check_gradients_fd(problem, TriplePoint([0.3], [0.4], [0.3, 0.0]))
    assert report.errors
    assert report.max_error() <= 1e-6
    assert not report.nonfinite


def test_gradcheck_flags_batch_hooks_left_stale_by_replace(example1):
    # f = x*y + 1.5 y^2, replaced consistently in every per-point evaluator;
    # the Lagrangian hooks still describe f = x*y
    problem, _ = example1
    steeper = dataclasses.replace(
        problem,
        eval_f=lambda x, y: float(x[0] * y[0] + 1.5 * y[0] ** 2),
        grad_f=lambda x, y: (np.array([y[0]]), np.array([x[0] + 3.0 * y[0]])),
        hess_f_yx=lambda x, y: np.array([[1.0]]),
        hess_f_yy=lambda x, y: np.array([[3.0]]),
    )
    pt = TriplePoint([0.5], [0.2], [0.1, 0.0])
    np.testing.assert_allclose(lagrangian_grad(steeper, pt), [1.0])
    np.testing.assert_allclose(steeper.lagrangian_rows(pt.x[None], pt.y[None], pt.u[None])[0], [0.4])
    errors = check_gradients_fd(steeper, pt).errors
    assert errors["batch_lagrangian"] >= 0.5 and errors["batch_lagrangian_jac"] >= 0.5
    assert max(v for k, v in errors.items() if not k.startswith("batch_lagrangian")) <= 1e-6


@pytest.mark.parametrize("name", ["example1", "example2", "synthetic2d", "example2_fd", "example2_bare"])
def test_gradcheck_finds_the_built_in_hooks_consistent(name):
    problem = named_problem(name)
    d = problem.dims
    rng = np.random.default_rng(31)
    hooks = [h for h in BATCH_HOOKS if getattr(problem, h)]
    if problem.hess_is_fd:
        hooks.remove("batch_lagrangian_jac")  # unused with finite-difference Hessians
    for _ in range(5):
        pt = TriplePoint(
            rng.uniform(problem.x_box[:, 0], problem.x_box[:, 1]),
            rng.uniform(problem.y_box[:, 0], problem.y_box[:, 1]),
            rng.uniform(0.0, 1.0, size=d.q),
        )
        errors = check_gradients_fd(problem, pt).errors
        assert sorted(k for k in errors if k.startswith("batch_")) == sorted(hooks)
        assert all(errors[h] <= 1e-12 for h in hooks)


def test_gradcheck_constant_problem_exact_zero():
    const = BilevelProblem(
        dims=ProblemDims(1, 1, 1, 1),
        eval_F=lambda x, y: 1.0,
        eval_f=lambda x, y: 2.0,
        eval_G=lambda x: np.array([-1.0]),
        eval_g=lambda x, y: np.array([-1.0]),
        grad_F=lambda x, y: (np.zeros(1), np.zeros(1)),
        grad_f=lambda x, y: (np.zeros(1), np.zeros(1)),
        jac_G=lambda x: np.zeros((1, 1)),
        jac_g=lambda x, y: (np.zeros((1, 1)), np.zeros((1, 1))),
        hess_f_yx=lambda x, y: np.zeros((1, 1)),
        hess_f_yy=lambda x, y: np.zeros((1, 1)),
        hess_g_yx=lambda x, y: [np.zeros((1, 1))],
        hess_g_yy=lambda x, y: [np.zeros((1, 1))],
    )
    report = check_gradients_fd(const, TriplePoint([0.2], [0.1], [0.4]))
    assert report.max_error() == 0.0


def test_gradcheck_flags_corrupted_gradient(example1):
    problem, _ = example1
    broken = BilevelProblem(
        dims=problem.dims,
        eval_F=problem.eval_F,
        eval_f=problem.eval_f,
        eval_G=problem.eval_G,
        eval_g=problem.eval_g,
        # true x-gradient of F is 0; corrupt it by +1
        grad_F=lambda x, y: (problem.grad_F(x, y)[0] + 1.0, problem.grad_F(x, y)[1]),
        grad_f=problem.grad_f,
        jac_G=problem.jac_G,
        jac_g=problem.jac_g,
        hess_f_yx=problem.hess_f_yx,
        hess_f_yy=problem.hess_f_yy,
        hess_g_yx=problem.hess_g_yx,
        hess_g_yy=problem.hess_g_yy,
    )
    report = check_gradients_fd(broken, TriplePoint([0.3], [0.4], [0.3, 0.0]))
    assert report.errors["grad_F_x"] >= 0.5


def test_gradcheck_nonfinite_flagged_not_raised():
    sqrt_problem = BilevelProblem(
        dims=ProblemDims(1, 1, 1, 1),
        eval_F=lambda x, y: float(np.sqrt(y[0])),
        eval_f=lambda x, y: float(y[0]),
        eval_G=lambda x: np.array([-1.0]),
        eval_g=lambda x, y: np.array([-1.0]),
        grad_F=lambda x, y: (np.zeros(1), np.array([0.5 / np.sqrt(y[0])])),
        grad_f=lambda x, y: (np.zeros(1), np.ones(1)),
        jac_G=lambda x: np.zeros((1, 1)),
        jac_g=lambda x, y: (np.zeros((1, 1)), np.zeros((1, 1))),
        hess_f_yx=lambda x, y: np.zeros((1, 1)),
        hess_f_yy=lambda x, y: np.zeros((1, 1)),
        hess_g_yx=lambda x, y: [np.zeros((1, 1))],
        hess_g_yy=lambda x, y: [np.zeros((1, 1))],
    )
    with np.errstate(invalid="ignore"):
        report = check_gradients_fd(sqrt_problem, TriplePoint([0.0], [-0.5], [0.0]))
    assert "grad_F_y" in report.nonfinite


def test_dimension_mismatch_raises(example1):
    problem, _ = example1
    with pytest.raises(DimensionError):
        lagrangian_grad(problem, TriplePoint([0.5, 0.1], [0.2], [0.5, 0.0]))


LQ_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def lq_data(draw):
    """Keyword arguments of ``lq_problem``: n, m, q <= 3, p <= 2, H definite,
    singular or indefinite, and each of B, b, d, J_gx, h, h_G zero or drawn."""
    n, m, q = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    p = draw(st.integers(0 if q else 1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q = np.linalg.qr(rng.normal(size=(m, m)))[0]
    eig = rng.uniform(0.5, 2.0, size=m)
    curvature = draw(st.sampled_from(["definite", "singular", "indefinite"]))
    if curvature == "singular":
        eig[0] = 0.0
    elif curvature == "indefinite":
        eig[0] = -eig[0]
    H = Q * eig @ Q.T
    data = {
        "H": (H + H.T) / 2, "B": rng.normal(size=(m, n)), "b": rng.normal(size=m), "c": rng.normal(size=m),
        "d": rng.normal(size=n), "J_gy": rng.normal(size=(q, m)), "J_gx": rng.normal(size=(q, n)),
        "h": rng.normal(size=q), "A_G": rng.normal(size=(p, n)), "h_G": rng.normal(size=p),
    }
    for key in ("B", "b", "d", "J_gx", "h", "h_G"):
        if draw(st.booleans()):
            data[key] = np.zeros_like(data[key])
    return data


def _hook_rows(problem, X, Y, U) -> dict:
    return {
        "batch_F": problem.batch_F(X, Y),
        "batch_g": problem.batch_g(X, Y),
        "batch_lagrangian": problem.batch_lagrangian(X, Y, U),
        "batch_grad_F": problem.batch_grad_F(X, Y),
        "batch_lagrangian_jac": problem.batch_lagrangian_jac(X, Y, U),
    }


@LQ_SETTINGS
@given(lq_data(), st.integers(0, 2**32 - 1))
def test_lq_hooks_are_the_per_point_evaluators_row_by_row(data, seed):
    problem = pbopt.lq_problem(**data)
    d = problem.dims
    rng = np.random.default_rng(seed)
    N = 6
    X, Y, U = rng.normal(size=(N, d.n)), rng.normal(size=(N, d.m)), rng.uniform(0.0, 2.0, size=(N, d.q))
    rows = _hook_rows(problem, X, Y, U)
    assert rows["batch_F"].shape == (N,) and rows["batch_lagrangian_jac"].shape == (N, d.m, d.m + d.q)
    for i, (x, y, u) in enumerate(zip(X, Y, U)):
        _, ly, lu = lagrangian_jacobians(problem, TriplePoint(x, y, u))
        per_point = {
            "batch_F": problem.eval_F(x, y),
            "batch_g": problem.eval_g(x, y),
            "batch_lagrangian": problem.lagrangian_point(x, y, u),
            "batch_grad_F": problem.grad_F(x, y)[1],
            "batch_lagrangian_jac": np.hstack([ly, lu]),
        }
        lone = _hook_rows(problem, X[i : i + 1], Y[i : i + 1], U[i : i + 1])
        for hook, want in per_point.items():
            np.testing.assert_allclose(rows[hook][i], want, rtol=1e-12, atol=1e-12, err_msg=hook)
            np.testing.assert_array_equal(lone[hook][0], rows[hook][i], err_msg=hook)  # a row rounds alike alone


@LQ_SETTINGS
@given(lq_data(), st.integers(0, 2**32 - 1))
def test_lq_hooks_broadcast_a_lone_leader_row_exactly(data, seed):
    problem = pbopt.lq_problem(**data)
    d = problem.dims
    rng = np.random.default_rng(seed)
    N = 5
    x, Y, U = rng.normal(size=(1, d.n)), rng.normal(size=(N, d.m)), rng.uniform(0.0, 2.0, size=(N, d.q))
    lone, tiled = _hook_rows(problem, x, Y, U), _hook_rows(problem, np.repeat(x, N, axis=0), Y, U)
    for hook in BATCH_HOOKS:
        np.testing.assert_array_equal(lone[hook], tiled[hook], err_msg=hook)


@LQ_SETTINGS
@given(lq_data(), st.integers(0, 2**32 - 1))
def test_lq_derivatives_pass_the_gradient_check(data, seed):
    problem = pbopt.lq_problem(**data)
    d = problem.dims
    rng = np.random.default_rng(seed)
    report = check_gradients_fd(problem, TriplePoint(rng.normal(size=d.n), rng.normal(size=d.m), rng.uniform(0.0, 2.0, size=d.q)))
    assert not report.nonfinite and not report.fd_fallback
    assert report.max_error() <= 1e-6
    assert {f"batch_{h}" for h in ("F", "g", "lagrangian", "grad_F", "lagrangian_jac")} <= set(report.errors)


def _lq_kwargs(**changes) -> dict:
    kw = {
        "H": [[1.0]], "B": [[1.0]], "b": [0.0], "c": [1.0], "d": [0.0],
        "J_gy": [[-1.0]], "J_gx": [[0.0]], "h": [0.0], "A_G": [[1.0]], "h_G": [-1.0],
    }
    kw.update(changes)
    return kw


@pytest.mark.parametrize(
    "changes",
    [{"B": [[1.0, 2.0]]}, {"c": [[1.0]]}, {"J_gx": [[0.0], [0.0]]}, {"h_G": [-1.0, 1.0]}, {"A_G": [1.0]}, {"H": [[1.0, 0.0]]}],
    ids=["B_columns", "c_matrix", "J_gx_rows", "h_G_length", "A_G_vector", "H_not_square"],
)
def test_lq_problem_refuses_inconsistent_shapes(changes):
    with pytest.raises(DimensionError):
        pbopt.lq_problem(**_lq_kwargs(**changes))


@pytest.mark.parametrize(
    "changes, match",
    [
        ({"B": [[np.nan]]}, "B must be finite"),
        ({"h": [np.inf]}, "h must be finite"),
        ({"H": [[1.0, 0.5], [0.0, 1.0]], "B": [[1.0], [0.0]], "b": [0.0, 0.0], "c": [1.0, 1.0], "J_gy": [[-1.0, 0.0]]}, "H must be symmetric"),
    ],
    ids=["nan_B", "inf_h", "asymmetric_H"],
)
def test_lq_problem_refuses_nonfinite_data_and_an_asymmetric_H(changes, match):
    with pytest.raises(ValueError, match=match):
        pbopt.lq_problem(**_lq_kwargs(**changes))


def test_lq_problem_keeps_the_sign_of_a_zero_through_a_zero_offset():
    # g = -y + 0 and G = x + 0 with one coordinate, so every product is a plain one: a zero
    # offset is -0.0, so -0.0 stays -0.0 in every evaluator and hook
    problem = pbopt.lq_problem(**_lq_kwargs(h=[0.0], h_G=[0.0]))
    for val in (problem.eval_g(np.zeros(1), np.zeros(1)), problem.batch_g(np.zeros((1, 1)), np.zeros((3, 1))), problem.eval_G(np.array([-0.0]))):
        assert np.all(val == 0.0) and np.all(np.signbit(val))
