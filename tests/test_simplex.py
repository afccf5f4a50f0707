import functools

import numpy as np
import pytest
from scipy.optimize import nnls

from pbopt import simplex
from pbopt.simplex import (
    cone_has_nonzero,
    cone_max_linear,
    least_norm_point,
    solve_lp,
)


def test_lp_simple_box():
    # min -x1 - x2 s.t. x1 + x2 + s = 1, all in [0, 1]
    res = solve_lp(
        np.array([-1.0, -1.0, 0.0]),
        np.array([[1.0, 1.0, 1.0]]),
        np.array([1.0]),
        np.zeros(3),
        np.array([1.0, 1.0, 1.0]),
    )
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0, abs=1e-9)


def test_lp_upper_bounds_bind():
    # min -x over 0 <= x <= 0.3 (no equalities)
    res = solve_lp(np.array([-1.0]), None, None, np.zeros(1), np.array([0.3]))
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(0.3, abs=1e-10)


def test_lp_free_variable_split():
    # min x s.t. x + y = 0, y in [0, 2], x free -> x = -2
    res = solve_lp(
        np.array([1.0, 0.0]),
        np.array([[1.0, 1.0]]),
        np.array([0.0]),
        np.array([-np.inf, 0.0]),
        np.array([np.inf, 2.0]),
    )
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(-2.0, abs=1e-9)


def test_lp_infeasible():
    res = solve_lp(
        np.zeros(2),
        np.array([[1.0, 1.0]]),
        np.array([3.0]),
        np.zeros(2),
        np.ones(2),
    )
    assert res.status == "infeasible"


def test_lp_unbounded():
    res = solve_lp(np.array([-1.0]), None, None, np.zeros(1), np.array([np.inf]))
    assert res.status == "unbounded"


def test_lp_matches_random_vertex_enumeration():
    # Cross-check against exhaustive vertex enumeration on random boxed LPs.
    import itertools

    rng = np.random.default_rng(0)
    for _ in range(25):
        n = 4
        A = rng.normal(size=(2, n))
        x_feas = rng.uniform(0.2, 0.8, size=n)
        b = A @ x_feas
        c = rng.normal(size=n)
        res = solve_lp(c, A, b, np.zeros(n), np.ones(n))
        assert res.status == "optimal"
        # enumerate basic solutions: pick 2 basic vars, others at a bound
        best = np.inf
        for basic in itertools.combinations(range(n), 2):
            nonbasic = [j for j in range(n) if j not in basic]
            for vals in itertools.product([0.0, 1.0], repeat=len(nonbasic)):
                rhs = b - A[:, nonbasic] @ np.array(vals)
                try:
                    xb = np.linalg.solve(A[:, basic], rhs)
                except np.linalg.LinAlgError:
                    continue
                if np.all(xb >= -1e-9) and np.all(xb <= 1 + 1e-9):
                    x = np.zeros(n)
                    x[list(basic)] = xb
                    x[nonbasic] = vals
                    best = min(best, c @ x)
        assert res.objective == pytest.approx(best, abs=1e-7)


def test_feasibility_and_least_norm_equality_only():
    z, _ = least_norm_point(np.array([[1.0, 1.0]]), np.array([1.0]))
    np.testing.assert_allclose(z, [0.5, 0.5], atol=1e-9)


def test_least_norm_with_binding_inequality():
    # min |z| s.t. z1 + z2 = 1 and z1 >= 3 z2: the interior projection
    # (0.5, 0.5) is cut off, so the inequality binds at (0.75, 0.25).
    z, _ = least_norm_point(
        np.array([[1.0, 1.0]]),
        np.array([1.0]),
        np.array([[1.0, -3.0]]),
    )
    np.testing.assert_allclose(z, [0.75, 0.25], atol=1e-8)


def test_least_norm_inactive_inequality_is_ignored():
    z, _ = least_norm_point(
        np.array([[1.0, 1.0]]),
        np.array([1.0]),
        np.array([[1.0, 1.0]]),  # z1 + z2 >= 0 holds strictly at the optimum
    )
    np.testing.assert_allclose(z, [0.5, 0.5], atol=1e-8)


def test_least_norm_infeasible_returns_none():
    z, status = least_norm_point(
        np.array([[1.0, 0.0], [1.0, 0.0]]),
        np.array([1.0, 2.0]),
    )
    assert z is None and status == "infeasible"


def test_least_norm_random_kkt_certificates():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = 5
        A = rng.normal(size=(2, n))
        z_ref = rng.uniform(-1, 1, size=n)
        b = A @ z_ref
        C = rng.normal(size=(3, n))
        C = C[C @ z_ref >= 0]  # keep the problem feasible by construction
        z, _ = least_norm_point(A, b, C if C.shape[0] else None)
        assert z is not None
        np.testing.assert_allclose(A @ z, b, atol=1e-7)
        if C.shape[0]:
            assert np.min(C @ z) >= -1e-7
        # minimality against the known feasible reference point
        assert np.linalg.norm(z) <= np.linalg.norm(z_ref) + 1e-7


def test_cone_detects_nonzero_ray():
    # cone {z in R^2 : z1 = 0} contains e2
    ray = cone_has_nonzero(np.array([[1.0, 0.0]]), None, dim=2)
    assert ray is not None
    assert abs(ray[0]) <= 1e-7
    assert abs(ray[1]) > 1e-7


def test_cone_trivial_when_full_rank():
    ray = cone_has_nonzero(np.eye(2), None, dim=2)
    assert ray is None


def test_cone_sign_constraints_cut_ray():
    # {z : z1 + z2 = 0, z1 >= 0, z2 >= 0} = {0}
    ray = cone_has_nonzero(
        np.array([[1.0, 1.0]]),
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        dim=2,
    )
    assert ray is None


def test_cone_max_linear_value():
    val, z = cone_max_linear(np.array([0.0, 1.0]), np.array([[1.0, -1.0]]), None, dim=2)
    # maximize z2 s.t. z1 = z2, box [-1, 1]
    assert val == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(z, [1.0, 1.0], atol=1e-9)


@pytest.fixture
def lp_calls(monkeypatch):
    """Counts the NNLS solves made through the simplex module."""
    calls = []
    solve = simplex.nnls

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(simplex, "nnls", counted)
    return calls


def test_equality_only_cone_is_decided_by_rank_alone(lp_calls):
    a_eq = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, 1.0]])
    assert cone_has_nonzero(a_eq, None, dim=3) is None
    # one row short of full rank: the SVD gives the null direction
    ray = cone_has_nonzero(a_eq[:2], None, dim=3)
    np.testing.assert_allclose(a_eq[:2] @ ray, 0.0, atol=1e-12)
    assert np.max(np.abs(ray)) == pytest.approx(1.0)
    assert not lp_calls


def test_empty_equality_block_and_zero_dimension():
    a_ineq = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])  # positively spans R^2
    assert cone_has_nonzero(np.zeros((0, 2)), a_ineq, dim=2) is None
    assert cone_has_nonzero(None, a_ineq, dim=2) is None
    assert cone_has_nonzero(np.zeros((2, 0)), np.zeros((1, 0)), dim=0) is None
    assert cone_has_nonzero(np.zeros((2, 0)), None, dim=0) is None


def test_pointed_orthant_is_nontrivial(lp_calls):
    # {z >= 0}: full rank, so the one LDP with sum(z) >= 1 finds the ray
    ray = cone_has_nonzero(None, np.eye(3), dim=3)
    assert ray is not None and np.min(ray) >= -1e-12 and np.max(ray) == pytest.approx(1.0)
    np.testing.assert_allclose(ray, 1.0)  # the least-norm point of sum(z) >= 1 is the diagonal
    assert len(lp_calls) == 1


def test_rays_only_in_the_lineality_space():
    # z3 >= 0 and -z3 >= 0 leave the plane z3 = 0, a cone with no pointed part
    a_ineq = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    ray = cone_has_nonzero(None, a_ineq, dim=3)
    assert ray is not None and abs(ray[2]) <= 1e-12 and np.max(np.abs(ray)) > 1e-7


def test_trivial_well_conditioned_cone_costs_at_most_one_lp(lp_calls):
    a_eq = np.array([[1.0, 1.0, 0.0, 0.0]])
    a_ineq = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0],
                       [0.0, 0.0, -1.0, 2.0], [0.0, 0.0, 0.0, -1.0]])
    assert cone_has_nonzero(a_eq, a_ineq, dim=4) is None
    assert len(lp_calls) <= 1


def test_qualification_costs_at_most_one_lp_per_pattern(lp_calls):
    from pbopt import TriplePoint
    from pbopt.stationarity import check_qualification_Am
    from toys import biactive_family_data, make_linear_follower

    problem = make_linear_follower(*biactive_family_data(3, np.random.default_rng(3)))
    d = problem.dims
    rep = check_qualification_Am(problem, TriplePoint(np.zeros(d.n), np.zeros(d.m), np.zeros(d.q)), kind="M")
    assert rep.a1 and rep.a2 and rep.patterns_checked == 27
    assert len(lp_calls) <= rep.patterns_checked


def test_least_distance_with_a_shifted_inequality():
    # min |z| s.t. z1 + z2 = 2 and z1 - z2 >= 1: the projection (1, 1) is cut off at (1.5, 0.5)
    z = simplex.least_distance(np.array([[1.0, 1.0]]), np.array([2.0]), np.array([[1.0, -1.0]]), np.array([1.0]))
    np.testing.assert_allclose(z, [1.5, 0.5], atol=1e-12)
    # z1 >= 1 and -z1 >= 0 cannot both hold
    assert simplex.least_distance(np.zeros((0, 1)), np.zeros(0), np.array([[1.0], [-1.0]]), np.array([1.0, 0.0])) is None


def test_leader_row_ray_needs_w_to_move():
    # the cone {z2 = 0, z1 >= 0}: e1 moves w = e1 but nothing moves -e1 or e2
    a_eq, a_ineq = np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])
    np.testing.assert_allclose(simplex.cone_ray(a_eq, a_ineq, np.array([2.0, 0.0])), [1.0, 0.0], atol=1e-12)
    assert simplex.cone_ray(a_eq, a_ineq, np.array([-1.0, 0.0])) is None
    assert simplex.cone_ray(a_eq, a_ineq, np.array([0.0, 1.0])) is None


def test_nnls_iteration_limit_is_an_error_not_a_verdict(monkeypatch):
    def at_limit(*args, **kwargs):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(simplex, "nnls", at_limit)
    with pytest.raises(simplex.NnlsLimitError):
        least_norm_point(np.array([[1.0, 1.0]]), np.array([1.0]), np.array([[1.0, -3.0]]))
    with pytest.raises(simplex.NnlsLimitError):
        cone_has_nonzero(None, np.eye(2), dim=2)


def test_scipy_nnls_raises_at_its_iteration_limit(monkeypatch):
    # The contract NnlsLimitError rests on, against the installed scipy rather than a stub:
    # this system needs two active-set steps, and one is not enough.
    a, b = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]), np.array([1.0, 2.0, 3.0, 1.0])
    w, _ = nnls(a, b)
    np.testing.assert_allclose(w, [0.0, 2.0 / 3.0, 5.0 / 3.0], atol=1e-12)
    with pytest.raises(RuntimeError):
        nnls(a, b, maxiter=1)
    monkeypatch.setattr(simplex, "nnls", functools.partial(nnls, maxiter=1))
    with pytest.raises(simplex.NnlsLimitError):
        simplex.least_distance(np.zeros((0, 3)), np.zeros(0), np.eye(3), np.ones(3))
    with pytest.raises(simplex.NnlsLimitError):
        cone_has_nonzero(None, np.eye(3), dim=3)


def test_a_stack_with_equality_blocks_of_different_rank_matches_one_system_at_a_time():
    # one shape, equality ranks 2, 1, 1 (inconsistent) and 2: the stack splits by rank and reads back in order
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 1.0], [2.0, 0.0, 0.0]])
    rhs = np.array([1.0, -1.0, 2.0, 0.0, 0.0, 3.0])
    systems = [([0, 1], [3]), ([0, 2], [4]), ([0, 5], [3]), ([1, 2], [3])]
    got = list(simplex.least_norm_points(rows, rhs, systems))
    for (eq, ineq), z in zip(systems, got):
        want, _ = least_norm_point(rows[eq], rhs[eq], rows[ineq])
        assert (z is None) == (want is None)
        if want is not None:
            np.testing.assert_array_equal(z, want)
    np.testing.assert_allclose(got[0], [1.0, -1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(got[1], [1.0, 0.0, 0.0], atol=1e-12)
    assert got[2] is None  # z1 = 1 and 2 z1 = 3
    np.testing.assert_allclose(got[3], [1.0, -1.0, 0.0], atol=1e-12)


def dense_pairs(pool: simplex.ConeRows) -> list:
    """ConeRows.pairs by the dense formula it replaced: the norm of every (i, j) sum, an (R, R, C) temporary."""
    anti = simplex._row_norms(pool.unit[:, None] + pool.unit[None]) <= simplex.ZERO_TOL
    first, second = np.nonzero(anti & ~np.array(pool._zero, dtype=bool))
    return [(i, j) for i, j in zip(first.tolist(), second.tolist()) if i < j]


def test_opposite_pairs_match_the_dense_formula():
    # zero rows, exact opposites scaled 1e-6..1e6, and opposites off by 1e-10..1e-7 of their size,
    # which straddle ZERO_TOL, shuffled among random rows
    rng = np.random.default_rng(0)
    found = 0
    for _ in range(3000):
        dim = int(rng.integers(1, 6))
        rows = rng.normal(size=(int(rng.integers(1, 5)), dim))
        opposite = -rows * 10.0 ** rng.uniform(-6.0, 6.0, size=(len(rows), 1))
        off = opposite + 10.0 ** rng.uniform(-10.0, -7.0, size=(len(rows), 1)) * np.abs(opposite) * rng.normal(size=opposite.shape)
        pool = np.vstack([rows, opposite[rng.uniform(size=len(rows)) < 0.5], off[rng.uniform(size=len(rows)) < 0.5], np.zeros((int(rng.integers(0, 3)), dim))])
        pool = simplex.ConeRows(pool[rng.permutation(len(pool))])
        assert pool.pairs == dense_pairs(pool)
        found += len(pool.pairs)
    assert found > 1000
