import numpy as np
import pytest

import pbopt
from pbopt import TriplePoint
from pbopt import GridSpec
from pbopt.benchlib import get_problem, oracle_grid, problem_names, u1_star
from pbopt.kkt import kkt_residual

from crosscheck import crosscheck_grid, oracle_crosscheck


def test_registry():
    assert problem_names() == ["example1", "example2", "synthetic2d"]
    with pytest.raises(KeyError):
        get_problem("nope")


def test_example1_oracle_values(example1):
    _, oracle = example1
    assert oracle.psi_p_t(0.5, 0.1) == pytest.approx(0.2)
    assert oracle.psi_p(0.0) == 1.0
    assert oracle.psi_p(0.7) == 0.0
    assert oracle.psi_p_t(0.05, 0.2) == 1.0
    assert oracle.known_optimum[1] == 0.0


def test_example2_oracle_values(example2):
    _, oracle = example2
    assert oracle.psi_p_t(-1.0, 0.3) == pytest.approx(0.0)
    assert oracle.psi_p(0.5) == pytest.approx(0.5)
    assert oracle.psi_p(-0.25) == pytest.approx(0.75)
    np.testing.assert_allclose(oracle.known_optimum[0], [-1.0])
    assert oracle.known_optimum[1] == 0.0


def test_relaxed_value_dominates_exact(example1, example2):
    rng = np.random.default_rng(17)
    for _, oracle in (example1, example2):
        lo = 0.0 if oracle.psi_p(0.9) == 0.0 else -1.0
        for _ in range(200):
            x = rng.uniform(lo, 1.0)
            t = rng.uniform(1e-4, 1.0)
            assert oracle.psi_p_t(x, t) >= oracle.psi_p(x) - 1e-12


def test_oracle_sets_are_exact_members(example1, example2):
    # every generated relaxed-set sample satisfies the membership system
    for problem, oracle in (example1, example2):
        xs = (0.0, 0.3, 1.0) if problem.name == "example1" else (-1.0, -0.4, 0.6)
        for x in xs:
            for t in (0.0, 0.07, 0.35):
                for z in oracle.d_set(x, t, count=9).points:
                    pt = TriplePoint([x], z[:1], z[1:])
                    assert kkt_residual(problem, pt, t).is_feasible(1e-9), (x, t, z)


def test_oracle_argmax_sets_attain_value(example1, example2):
    for problem, oracle in (example1, example2):
        xs = (0.0, 0.25, 0.8) if problem.name == "example1" else (-1.0, -0.3, 0.7)
        for x in xs:
            for t in (0.0, 0.1, 0.4):
                sample = oracle.s_p_t(x, t, count=7)
                assert len(sample) >= 1
                value = oracle.psi_p_t(x, t)
                for z in sample.points:
                    pt = TriplePoint([x], z[:1], z[1:])
                    assert kkt_residual(problem, pt, t).is_feasible(1e-9)
                    assert problem.eval_F(pt.x, pt.y) == pytest.approx(value, abs=1e-9)


def test_u1_star_closes_the_branch_gap():
    for x in (0.2, 0.6, 1.0, -0.5):
        for t in (0.05, 0.3):
            u = u1_star(x, t)
            assert t / u == pytest.approx(1.0 - t / (u - x), abs=1e-12)


def test_crosscheck_example1_grid():
    rep = oracle_crosscheck("example1", np.linspace(0.1, 1.0, 20), [0.5, 0.3, 0.2, 0.1, 0.05])
    assert rep.entries == 100
    assert rep.max_value_gap <= 0.02
    assert rep.max_argmax_excess <= 0.15


def test_crosscheck_example2_negative_half_grid():
    rep = oracle_crosscheck("example2", np.linspace(-1.0, -0.1, 10), [0.5, 0.3, 0.2, 0.1, 0.05])
    assert rep.max_value_gap <= 0.02


def test_crosscheck_grid_hints(example1, example2, synthetic):
    # one multiplier axis pinned, the other on a window around the stationarity band
    assert crosscheck_grid(example1[0], 0.3, 0.1, res=40, y_res=50) == GridSpec(
        ((0.0, 1.0, 50), (0.3 - 0.05, 0.3 + 0.1 + 0.05, 40), (0.0, 0.0, 1))
    )
    assert crosscheck_grid(example2[0], 0.02, 0.2) == GridSpec(
        ((0.0, 1.0, 1000), (0.0, 0.02 + 0.2 + 0.05, 400), (0.0, 0.0, 1))
    )
    assert crosscheck_grid(example2[0], -0.4, 0.1, res=30) == GridSpec(
        ((0.0, 1.0, 1000), (0.0, 0.0, 1), (0.4 - 0.05, 0.4 + 0.1 + 0.05, 30))
    )
    assert crosscheck_grid(synthetic[0], 0.1, 0.1) == oracle_grid(synthetic[0], res=25)


def test_crosscheck_degenerate_single_point(example2):
    _, oracle = example2
    rep = oracle_crosscheck("example2", [oracle.known_optimum[0][0]], [0.05])
    assert rep.entries == 1
    assert rep.max_value_gap <= 1e-6


def test_example2_relaxed_value_is_continuous(example2):
    _, oracle = example2
    for t in (0.1, 0.25, 0.5):
        xs = np.linspace(-1.0, 1.0, 401)
        vals = np.array([oracle.psi_p_t(x, t) for x in xs])
        step = xs[1] - xs[0]
        assert np.max(np.abs(np.diff(vals))) <= 10.0 * step


def test_example1_exact_value_is_discontinuous_at_zero(example1):
    _, oracle = example1
    assert oracle.psi_p(0.0) == 1.0
    assert oracle.psi_p(1e-9) == 0.0


def test_synthetic_oracle_consistent_with_solver(synthetic, light_cfg):
    problem, oracle = synthetic
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=2)
        t = rng.uniform(0.02, 0.5)
        solver = pbopt.evaluate_psi_t(problem, x, t, light_cfg)
        assert solver.status == "solved"
        assert abs(solver.value - oracle.psi_p_t(x, t)) <= 1e-6


def test_synthetic_oracle_sets_are_exact_members(synthetic):
    problem, oracle = synthetic
    rng = np.random.default_rng(31)
    for _ in range(10):
        x = rng.uniform(-1, 1, size=2)
        for t in (0.0, 0.07, 0.35):
            for z in oracle.d_set(x, t, count=6).points:
                assert kkt_residual(problem, TriplePoint(x, z[:2], z[2:]), t).is_feasible(1e-9), (x, t, z)
            (z,) = oracle.s_p_t(x, t).points
            assert kkt_residual(problem, TriplePoint(x, z[:2], z[2:]), t).is_feasible(1e-9)
            assert problem.eval_F(x, z[:2]) == pytest.approx(oracle.psi_p_t(x, t), abs=1e-12)


def test_synthetic_oracle_brackets_exact_value(synthetic):
    # A grid point within tau of D_t has, per coordinate, u >= y + c - tau and
    # u*y <= t + tau, so y <= r + tau + sqrt(tau) for the exact upper end r:
    # the grid value exceeds the formula by at most 2*(tau + sqrt(tau)).
    problem, oracle = synthetic
    grid = oracle_grid(problem, res=25)
    tau = grid.tolerance()
    inflate = 2 * (tau + np.sqrt(tau))
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.uniform(-1, 1, size=2)
        for t in (0.0, 0.05, 0.3):
            exact, bf = oracle.psi_p_t(x, t), pbopt.brute_force_psi_t(problem, x, t, grid).value
            assert exact - 0.2 <= bf <= exact + inflate  # quantisation can only lose a little
    x_opt, val = oracle.known_optimum
    assert oracle.psi_p(x_opt) == val
