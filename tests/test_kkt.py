import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbopt
from pbopt import InnerConfig, TriplePoint, check_slater, check_upper_regularity, classify_indices, kkt, kkt_residual
from pbopt.kkt import InfeasiblePointError
from pbopt.maxmin import batch_feasibility, follower_box, polish_onto_relaxed_set
from pbopt.problem_model import relaxed_violations

from toys import make_duplicated_g_toy, make_nan_g_toy, make_no_slater_toy, make_opposing_leader_toy, make_q0_toy, named_problem


def test_residual_example1_member(example1):
    problem, _ = example1
    res = kkt_residual(problem, TriplePoint([0.5], [0.0], [0.5, 0.0]), 0.0)
    assert res.max_violation() == 0.0
    assert res.compl == 0.0
    assert res.is_feasible()


def test_residual_relaxed_membership_boundary(example1):
    problem, _ = example1
    pt = TriplePoint([0.5], [0.2], [0.5, 0.0])
    res_t = kkt_residual(problem, pt, 0.1)
    assert res_t.is_feasible(1e-12)
    assert res_t.compl == pytest.approx(0.1)
    res_0 = kkt_residual(problem, pt, 0.0)
    assert not res_0.is_feasible(1e-6)
    assert res_0.worst_field() in ("relax_viol", "compl")


def test_exact_members_feasible_at_every_level(example1, example2):
    # Membership at level 0 implies membership at every positive level.
    for problem, oracle in (example1, example2):
        for x in (-0.7, 0.0, 0.3, 1.0):
            if problem.name == "example1" and x < 0:
                continue
            for z in oracle.d_set(x, 0.0, count=7).points:
                pt = TriplePoint([x], z[:1], z[1:])
                assert kkt_residual(problem, pt, 0.0).is_feasible(1e-9)
                for t in (1e-6, 0.05, 0.7):
                    assert kkt_residual(problem, pt, t).is_feasible(1e-9)


def test_relax_violation_monotone_in_t(example1):
    problem, _ = example1
    rng = np.random.default_rng(21)
    for _ in range(50):
        pt = TriplePoint(rng.uniform(0, 1, 1), rng.uniform(-0.2, 1.2, 1), rng.uniform(-0.1, 2, 2))
        t1, t2 = sorted(rng.uniform(0, 0.6, 2))
        r1 = kkt_residual(problem, pt, t1)
        r2 = kkt_residual(problem, pt, t2)
        assert np.all(r2.relax_viol <= r1.relax_viol + 1e-15)
        if r1.is_feasible(1e-9):
            assert r2.is_feasible(1e-9)


def test_the_record_is_read_only(example1):
    res = kkt_residual(example1[0], TriplePoint([0.5], [0.2], [0.5, 0.0]), 0.0)
    with pytest.raises(ValueError):
        res.stationarity[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.t = 0.5
    assert res.violation == res.max_violation() > 0.0


def test_a_point_whose_g_is_not_finite_is_infeasible():
    """example1's stationarity row is 0 at the point and its g is NaN there: the record
    neither drops the NaN nor calls the point feasible, and names the g row."""
    res = kkt_residual(make_nan_g_toy(), TriplePoint([0.5], [0.95], [0.5, 0.0]), 0.0)
    assert res.max_violation() == math.inf and not res.is_feasible(1e300)
    assert res.worst_field() == "primal_viol"


# Three built-ins, two toys without batch hooks (one with q = 0), and one whose g is NaN on part of y_box.
RELAXED_SET_PROBLEMS = ["example1", "example2", "synthetic2d", "quartic_toy", "dip_toy", "nan_g_toy"]


def _relaxed_set_draws(problem, seed: int, t: float, rows: int = 6):
    """x and a block of (y, u) rows, u >= 0, drawn in the inner solver's box; the first half polished onto D_t."""
    rng = np.random.default_rng(seed)
    box = problem.x_box if problem.x_box is not None else np.tile([-1.0, 1.0], (problem.dims.n, 1))
    x = rng.uniform(box[:, 0], box[:, 1])
    lo, hi = follower_box(problem, InnerConfig())
    Z = rng.uniform(lo, hi, size=(rows, lo.size))
    with np.errstate(over="ignore", invalid="ignore"):  # as the inner solver polishes
        Z[: rows // 2] = polish_onto_relaxed_set(problem, x, Z[: rows // 2], t, lo, hi, 1e-12)[0]
    return x, Z


@pytest.mark.parametrize("name", RELAXED_SET_PROBLEMS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.sampled_from([0.0, 1e-3, 0.1]) | st.floats(0.0, 2.0),
    tau=st.sampled_from([1e-8, 1e-4, 0.1, 10.0]),
)
def test_the_record_the_solver_and_the_grid_read_one_relaxed_set(name, seed, t, tau):
    """kkt_residual's rows are the inner solver's bit for bit, a row with a non-finite
    entry is infeasible to the record, the solver and the grid test, and the record's
    verdict at tau is the grid test's (at t = 0 the record also bounds |u.g|)."""
    problem = named_problem(name)
    m, q = problem.dims.m, problem.dims.q
    x, Z = _relaxed_set_draws(problem, seed, t)
    with np.errstate(over="ignore", invalid="ignore"):  # as the inner solver evaluates
        g, v, viol = relaxed_violations(problem, x[None], Z, t)
    grid = batch_feasibility(problem, x, Z, t, tau)
    for i, z in enumerate(Z):
        res = kkt_residual(problem, TriplePoint(x, z[:m], z[m:]), t)
        if np.isfinite(viol[i]):
            for got, want in ((res.stationarity, v[i, :m]), (res.g, g[i]), (res.primal_viol, v[i, m : m + q]), (res.relax_viol, v[i, m + q :])):
                assert got.tobytes() == want.tobytes()
        else:
            assert res.max_violation() == math.inf and not grid[i]
        if t > 0.0:
            assert res.is_feasible(tau) == grid[i]
        else:
            assert grid[i] or not res.is_feasible(tau)


def test_classify_example2(example2):
    problem, _ = example2
    idx = classify_indices(problem, TriplePoint([-1.0], [1.0], [0.0, 1.0]), 0.0)
    assert idx.eta == (0,)
    assert idx.nu == (1,)
    assert idx.theta == ()
    assert idx.i_G == (0,)


def test_classify_example1_origin(example1):
    problem, _ = example1
    idx = classify_indices(problem, TriplePoint([0.0], [0.0], [0.0, 0.0]), 0.0)
    assert idx.theta == (0,)
    assert idx.eta == (1,)
    assert idx.nu == ()


def test_classify_rejects_complementarity_violation(example1):
    problem, _ = example1
    with pytest.raises(InfeasiblePointError):
        classify_indices(problem, TriplePoint([0.5], [0.5], [1.0, 0.5]), 0.0)


def test_classify_stable_under_eps_change(example2, monkeypatch):
    problem, _ = example2
    pt = TriplePoint([-1.0], [1.0], [0.0, 1.0])
    a = classify_indices(problem, pt, 0.0)
    monkeypatch.setattr(kkt, "EPS_ACT_DEFAULT", 1e-8)
    b = classify_indices(problem, pt, 0.0)
    assert (a.eta, a.theta, a.nu) == (b.eta, b.theta, b.nu)


def test_relaxed_index_sets_disjoint(example1):
    problem, _ = example1
    # argmax point of the level-0.1 problem at x = 0.5
    idx = classify_indices(problem, TriplePoint([0.5], [0.2], [0.5, 0.0]), 0.1)
    assert set(idx.i_g) & set(idx.i_ug) == set()
    assert set(idx.i_u) & set(idx.i_ug) == set()
    assert idx.i_ug == (0,)


def test_slater_example1_interior(example1):
    problem, _ = example1
    res = check_slater(problem, [0.5])
    assert res.found
    g = problem.eval_g(np.array([0.5]), res.y)
    assert np.max(g) <= -1e-6


@pytest.mark.parametrize(
    "problem, x",
    [
        (pbopt.get_problem("example1")[0], [0.5]),
        (pbopt.get_problem("example2")[0], [-0.5]),
        (pbopt.get_problem("synthetic2d")[0], [0.0021, 0.0016]),
        (make_duplicated_g_toy(), [0.5]),
    ],
    ids=lambda v: getattr(v, "name", None),
)
def test_slater_witness_lies_in_the_follower_box(problem, x):
    # the unbounded descent returned y ~ (6.8e88, 9.7e88) on synthetic2d and
    # y ~ -1.45e59 on duplicated_g_toy
    res = check_slater(problem, x)
    assert res.found
    assert np.all(problem.y_box[:, 0] <= res.y) and np.all(res.y <= problem.y_box[:, 1])
    assert np.max(problem.eval_g(np.asarray(x, dtype=float), res.y)) <= -1e-6


def test_slater_vacuous_without_lower_constraints():
    res = check_slater(make_q0_toy(), [0.2])
    assert res.found
    assert res.max_g == -np.inf


def test_slater_failure_is_reported_as_evidence():
    res = check_slater(make_no_slater_toy(), [0.5])
    assert not res.found
    assert res.y is None
    assert res.max_g >= -1e-6


@pytest.mark.parametrize("x", [[float("nan")], [0.5, 0.5, 0.5]])
def test_slater_refuses_bad_input(example1, x):
    # each of these used to return an answer: found=True at a bad x
    with pytest.raises(ValueError):
        check_slater(example1[0], x)


def test_upper_regularity_example1(example1):
    problem, _ = example1
    assert check_upper_regularity(problem, [1.0])
    assert check_upper_regularity(problem, [0.5])  # interior: vacuous


def test_upper_regularity_fails_on_opposing_rows():
    toy = make_opposing_leader_toy()
    assert not check_upper_regularity(toy, [1.0])


def test_upper_regularity_invariant_under_row_scaling(example1):
    problem, _ = example1
    scaled = pbopt.BilevelProblem(
        dims=problem.dims,
        eval_F=problem.eval_F,
        eval_f=problem.eval_f,
        eval_G=lambda x: np.array([3.0, 0.25]) * problem.eval_G(x),
        eval_g=problem.eval_g,
        grad_F=problem.grad_F,
        grad_f=problem.grad_f,
        jac_G=lambda x: np.array([[3.0], [0.25]]) * problem.jac_G(x),
        jac_g=problem.jac_g,
        hess_f_yx=problem.hess_f_yx,
        hess_f_yy=problem.hess_f_yy,
        hess_g_yx=problem.hess_g_yx,
        hess_g_yy=problem.hess_g_yy,
    )
    for x in ([1.0], [0.0]):
        assert check_upper_regularity(problem, x) == check_upper_regularity(scaled, x)


def test_residual_rejects_negative_t(example1):
    problem, _ = example1
    with pytest.raises(ValueError):
        kkt_residual(problem, TriplePoint([0.5], [0.0], [0.5, 0.0]), -0.1)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -0.1])
def test_kkt_residual_refuses_a_bad_level(example1, t):
    with pytest.raises(ValueError):
        kkt_residual(example1[0], TriplePoint([0.5], [0.0], [0.5, 0.0]), t)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("block", ["x", "y", "u"])
def test_a_nonfinite_point_is_refused_not_called_infeasible(example1, block, bad):
    # a NaN x used to give "'stationarity' violates by nan", an infeasible verdict
    blocks = {"x": [0.5], "y": [0.0], "u": [0.5, 0.0]}
    blocks[block] = [bad] + blocks[block][1:]
    with pytest.raises(ValueError, match=f"point block {block} must be finite"):
        example1[0].check_point(TriplePoint(**blocks))
    with pytest.raises(ValueError, match="must be finite"):
        kkt_residual(example1[0], TriplePoint(**blocks))


@pytest.mark.parametrize("x", [[float("nan")], [0.5, 0.5]])
def test_upper_regularity_refuses_a_bad_leader_point(example1, x):
    # a NaN x used to read as "regular"
    with pytest.raises(ValueError):
        check_upper_regularity(example1[0], x)
