import dataclasses
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbopt
from pbopt import GridSpec, InnerConfig, TriplePoint, brute_force_psi_t, evaluate_psi_t
from pbopt import maxmin
from pbopt.maxmin import DEDUP_TOL, EPS_LVL_DEFAULT, InnerInfeasibleError, approximate_argmax_set, dedup_points
from pbopt.kkt import kkt_residual

from toys import make_biactive_family, make_empty_lower_toy, make_q0_toy, named_problem


BRUTE_GRID = GridSpec(((0.0, 1.0, 41), (0.0, 2.2, 45), (0.0, 2.2, 45)))


def test_psi_values_match_closed_form(example1, example2, light_cfg):
    p1, o1 = example1
    p2, o2 = example2
    cases = [
        (p1, [0.5], 0.1, 0.2),
        (p1, [0.05], 0.2, 1.0),
        (p2, [-1.0], 0.3, 0.0),
        (p1, [0.5], 0.0, 0.0),
        # the x -> 0 corner, where a penalised ascent read 0.0 and 0.3555
        (p1, [0.01], 0.002, 0.2),
        (p1, [0.0168], 0.00697, 0.41488095238095),
    ]
    for problem, x, t, expected in cases:
        res = evaluate_psi_t(problem, x, t, light_cfg)
        assert res.status == "solved"
        assert res.value == pytest.approx(expected, abs=1e-4)


def test_argmax_example1(example1, light_cfg):
    problem, _ = example1
    res = evaluate_psi_t(problem, [0.5], 0.1, light_cfg)
    target = np.array([0.2, 0.5, 0.0])
    dists = np.abs(res.argmax.points - target).max(axis=1)
    assert dists.min() <= 1e-4


def test_argmax_example2_segment(example2, light_cfg):
    problem, _ = example2
    sample = approximate_argmax_set(problem, [-1.0], 0.5, light_cfg)
    assert len(sample) >= 2  # the argmax set is a continuum
    for y, u1, u2 in sample.points:
        assert y == pytest.approx(1.0, abs=1e-4)
        assert u2 == pytest.approx(u1 + 1.0, abs=1e-4)
        assert -1e-6 <= u1 <= 0.5 + 1e-4


def test_argmax_singleton_without_lower_constraints(light_cfg):
    toy = make_q0_toy()
    res = evaluate_psi_t(toy, [0.3], 0.2, light_cfg)
    assert res.status == "solved"
    assert res.value == pytest.approx(0.3, abs=1e-6)
    assert len(res.argmax) == 1
    assert res.argmax.points[0, 0] == pytest.approx(0.3, abs=1e-6)


def test_argmax_members_are_feasible(example1, example2, light_cfg):
    cases = [
        (example1[0], [0.3], 0.25),
        (example1[0], [0.8], 0.0),
        (example2[0], [-0.4], 0.15),
    ]
    for prob, x, t in cases:
        res = evaluate_psi_t(prob, x, t, light_cfg)
        assert res.status == "solved"
        for z in res.argmax.points:
            pt = TriplePoint(x, z[: prob.dims.m], z[prob.dims.m :])
            assert kkt_residual(prob, pt, t).is_feasible(1e-7)
            assert prob.eval_F(pt.x, pt.y) >= res.value - EPS_LVL_DEFAULT - 1e-12


def test_brute_force_example1_matches_formula(example1):
    problem, _ = example1
    grid = GridSpec(((0.0, 1.0, 400), (0.0, 1.5, 400), (0.0, 0.0, 1)))
    res = brute_force_psi_t(problem, [0.5], 0.1, grid)
    assert res.feasible
    assert res.value == pytest.approx(0.2, abs=0.01)


def test_brute_force_huge_t_drops_relaxation(example1):
    problem, _ = example1
    relaxed = brute_force_psi_t(problem, [0.5], 1e6, BRUTE_GRID)
    assert relaxed.value == pytest.approx(1.0, abs=0.05)  # max y s.t. y <= 1


def test_brute_force_infeasible_box(example1):
    problem, _ = example1
    grid = GridSpec(((5.0, 6.0, 20), (0.0, 1.0, 20), (0.0, 1.0, 20)))
    res = brute_force_psi_t(problem, [0.5], 0.1, grid)
    assert not res.feasible
    assert res.value == -np.inf


def _brute_force_whole_grid(problem, x, t, grid, tol_factor=0.75):
    """The grid oracle as one pass over every point: the streamed oracle's reference."""
    grids = np.meshgrid(*grid.arrays(), indexing="ij")
    Z = np.stack([g.ravel() for g in grids], axis=-1)
    tau = max(tol_factor * grid.max_step(), 1e-8)
    mask = pbopt.maxmin.batch_feasibility(problem, np.atleast_1d(x), Z, t, tau)
    if not mask.any():
        return -np.inf, None, tau
    F = pbopt.maxmin.batch_objective(problem, np.atleast_1d(x), Z[mask][:, : problem.dims.m])
    best = int(np.argmax(F))
    return float(F[best]), Z[mask][best], tau


@pytest.mark.parametrize("chunk", [pbopt.maxmin.GRID_CHUNK_ROWS, 997])
@pytest.mark.parametrize(
    "name, x, t",
    [("example1", [0.5], 0.1), ("example1", [0.02], 0.0), ("example2", [-0.4], 0.15),
     ("synthetic2d", [0.3, 0.6], 0.05), ("synthetic2d", [0.0, 0.0], 0.0)],
)
def test_streamed_brute_force_matches_whole_grid(monkeypatch, name, x, t, chunk):
    problem, _ = pbopt.get_problem(name)
    grid = pbopt.benchlib.oracle_grid(problem, res=25 if problem.dims.m + problem.dims.q == 4 else 60)
    grids = np.meshgrid(*grid.arrays(), indexing="ij")
    np.testing.assert_array_equal(grid.points(), np.stack([g.ravel() for g in grids], axis=-1))
    monkeypatch.setattr(pbopt.maxmin, "GRID_CHUNK_ROWS", chunk)
    res = brute_force_psi_t(problem, x, t, grid)
    value, point, tau = _brute_force_whole_grid(problem, x, t, grid)
    assert res.feasible and res.value == value and res.tol == tau
    np.testing.assert_array_equal(res.argmax_point, point)


def test_brute_force_grid_must_cover_follower_block(example1):
    problem, _ = example1
    with pytest.raises(ValueError):
        brute_force_psi_t(problem, [0.5], 0.1, GridSpec(((0.0, 1.0, 10),)))


@pytest.mark.parametrize(
    "axis, message",
    [
        ((0.0, 1.0, -2), "count"),
        ((0.0, 1.0, 0), "count"),
        ((0.0, 1.0, 2.5), "count"),
        ((0.0, 1.0, 3.0), "count"),
        ((0.0, 1.0, True), "count"),
        ((float("nan"), 1.0, 3), "bounds"),
        ((0.0, float("inf"), 3), "bounds"),
        ((1.0, 0.0, 3), "bounds"),
        (("0", 1.0, 3), "bounds"),
    ],
)
def test_grid_refuses_an_axis_it_cannot_grid(axis, message):
    # a negative count used to collapse the axis to one point, and a NaN bound
    # made brute_force_psi_t report an infeasible grid that no test produced
    with pytest.raises(ValueError, match=message):
        GridSpec((axis, (0.0, 1.0, 3), (0.0, 1.0, 3)))


def test_grid_takes_integer_counts_and_a_zero_width_axis():
    grid = GridSpec(((0, 1, np.int64(3)), (0.5, 0.5, 2), (0.0, 0.0, 1)))
    assert grid.shape() == (3, 2, 1) and grid.max_step() == 0.5
    np.testing.assert_array_equal(grid.points()[:, 1], 0.5)


def test_brute_force_rejects_high_dimension():
    import pbopt.benchlib as bl
    problem, _ = bl.get_problem("synthetic2d")
    bad = GridSpec(tuple((0.0, 1.0, 3) for _ in range(5)))
    with pytest.raises(ValueError):
        brute_force_psi_t(problem, [0.0, 0.0], 0.1, bad)
    # m + q = 6, with a grid that covers every coordinate: only the dimension cap refuses it
    family = make_biactive_family(3, np.random.default_rng(0))
    assert family.dims.m + family.dims.q == 6
    grid = GridSpec(tuple((0.0, 1.0, 3) for _ in range(6)))
    with pytest.raises(ValueError, match="m \\+ q <= 4"):
        brute_force_psi_t(family, np.zeros(family.dims.n), 0.1, grid)


def test_overflowing_leader_point_takes_the_nonfinite_solve_branch(synthetic, monkeypatch):
    # c(x) = x1 + x2 overflows at x = (1e308, 1e308): the regularised solve
    # gives the non-finite systems x = 0 instead of NaN, and the result is "nonfinite"
    solves, solve = [], maxmin._regularised_solve

    def spy(M, rhs, refine=False):
        x = solve(M, rhs, refine)
        solves.append((np.isfinite(M).all() and np.isfinite(rhs).all(), x))
        return x

    monkeypatch.setattr(maxmin, "_regularised_solve", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = evaluate_psi_t(synthetic[0], (1e308, 1e308), 0.1)
    assert res.status == "nonfinite"
    assert any(not finite for finite, _ in solves)
    assert all(np.isfinite(x).all() for _, x in solves)


def test_value_monotone_in_t(example1, example2, light_cfg):
    rng = np.random.default_rng(13)
    for problem, oracle in (example1, example2):
        xlo = 0.05 if problem.name == "example1" else -1.0
        for _ in range(15):
            x = rng.uniform(xlo, 1.0)
            t1, t2 = np.sort(rng.uniform(0.01, 0.6, size=2))
            b1 = brute_force_psi_t(problem, [x], t1, BRUTE_GRID).value
            b2 = brute_force_psi_t(problem, [x], t2, BRUTE_GRID).value
            assert b1 <= b2  # exact: shared grid, nested feasibility
            s1 = evaluate_psi_t(problem, [x], t1, light_cfg)
            s2 = evaluate_psi_t(problem, [x], t2, light_cfg)
            assert s1.value <= s2.value + 2 * EPS_LVL_DEFAULT


def test_exact_value_below_every_relaxed_value(example1, example2, light_cfg):
    # t = 0 against t > 0, brute force exact on a shared grid, solver within
    # twice the argmax level tolerance.
    rng = np.random.default_rng(31)
    for problem, _ in (example1, example2):
        xlo = 0.05 if problem.name == "example1" else -1.0
        for _ in range(8):
            x = rng.uniform(xlo, 1.0)
            t = rng.uniform(0.01, 0.6)
            assert (
                brute_force_psi_t(problem, [x], 0.0, BRUTE_GRID).value
                <= brute_force_psi_t(problem, [x], t, BRUTE_GRID).value
            )
            s0 = evaluate_psi_t(problem, [x], 0.0, light_cfg)
            st = evaluate_psi_t(problem, [x], t, light_cfg)
            assert s0.value <= st.value + 2 * EPS_LVL_DEFAULT


def test_solver_brackets_brute_force(example1, example2, light_cfg):
    # Solver value sits within grid-resolution slack below the (inflated)
    # grid maximum and never exceeds it beyond feasibility slack.
    tau = 0.75 * BRUTE_GRID.max_step()
    rng = np.random.default_rng(4)
    for problem, _ in (example1, example2):
        xlo = 0.05 if problem.name == "example1" else -1.0
        for _ in range(12):
            x = rng.uniform(xlo, 1.0)
            t = rng.uniform(0.01, 0.6)
            s = evaluate_psi_t(problem, [x], t, light_cfg)
            assert s.status == "solved"
            b = brute_force_psi_t(problem, [x], t, BRUTE_GRID).value
            bound = max(2 * tau, 3 * tau / max(abs(x), 0.1))
            assert s.value >= b - bound
            assert s.value <= b + 1e-6


def test_deterministic_reruns(example2):
    problem, _ = example2
    base = InnerConfig(starts=8, sweeps=3, seed=42)
    r1 = evaluate_psi_t(problem, [-0.3], 0.2, base)
    r2 = evaluate_psi_t(problem, [-0.3], 0.2, base)
    r3 = evaluate_psi_t(problem, [-0.3], 0.2, InnerConfig(starts=8, sweeps=3, seed=42))
    assert r1.value == r2.value == r3.value
    np.testing.assert_array_equal(r1.argmax.points, r2.argmax.points)
    np.testing.assert_array_equal(r1.argmax.points, r3.argmax.points)
    assert r1.evals == r2.evals == r3.evals


def test_seeded_starts_are_drawn_once_per_seed_count_and_box(monkeypatch, example1, example2, synthetic):
    """A solve makes a default_rng(seed) only for a (seed, starts, follower box) no
    solve has met before; the others reuse its read-only block of the same draws."""
    made, default_rng = [], np.random.default_rng

    def counted_rng(seed=None):
        made.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    seed = 918273  # no other test solves with it, so no block of it is drawn yet
    cfg = InnerConfig(starts=4, sweeps=1, local_maxiter=2, seed=seed)
    for x in (0.3, 0.7):
        evaluate_psi_t(example1[0], [x], 0.1, cfg)
    maxmin.evaluate_psi_t_batch(example1[0], [[0.2], [0.4]], 0.01, cfg)
    evaluate_psi_t(example2[0], [0.3], 0.1, cfg)  # example2 has example1's follower box
    assert made == [seed]
    evaluate_psi_t(example1[0], [0.3], 0.1, dataclasses.replace(cfg, starts=5))
    evaluate_psi_t(example1[0], [0.3], 0.1, dataclasses.replace(cfg, u_max=5.0))
    evaluate_psi_t(synthetic[0], [0.3, 0.1], 0.1, cfg)
    evaluate_psi_t(example1[0], [0.3], 0.1, dataclasses.replace(cfg, seed=seed + 1))
    assert made == [seed] * 4 + [seed + 1]
    lo, hi = maxmin.follower_box(example1[0], cfg)
    block = maxmin._seeded_starts(seed, 4, lo.tobytes(), hi.tobytes())
    np.testing.assert_array_equal(block, default_rng(seed).uniform(lo, hi, size=(4, lo.size)))
    with pytest.raises(ValueError, match="read-only"):
        block[0, 0] = 0.0


def test_infeasible_inner_status(light_cfg):
    toy = make_empty_lower_toy()
    res = evaluate_psi_t(toy, [0.5], 0.2, light_cfg)
    assert res.status == "infeasible"
    assert np.isnan(res.value)
    assert len(res.argmax) == 0
    with pytest.raises(InnerInfeasibleError, match="infeasible"):
        approximate_argmax_set(toy, [0.5], 0.2, light_cfg)


def test_argmax_set_refuses_an_exhausted_solve(example1, light_cfg, monkeypatch):
    # no built-in point leaves every start just off D_t, so the solve is stubbed
    problem, _ = example1
    stub = maxmin.InnerSolveResult(np.nan, maxmin.SampledSet(np.zeros((0, 3))), "budget_exhausted", evals=5)
    monkeypatch.setattr(maxmin, "evaluate_psi_t", lambda *args: stub)
    with pytest.raises(InnerInfeasibleError, match="budget_exhausted"):
        approximate_argmax_set(problem, [0.5], 0.1, light_cfg)


def test_argmax_set_refuses_an_overflowing_solve(example1, light_cfg):
    # every residual overflows at x = 1e308; an empty cloud would read as an infinite excess
    problem, _ = example1
    assert evaluate_psi_t(problem, [1e308], 0.5, light_cfg).status == "nonfinite"
    with pytest.raises(ValueError, match="nonfinite"):
        approximate_argmax_set(problem, [1e308], 0.5, light_cfg)


def test_negative_t_rejected(example1, light_cfg):
    problem, _ = example1
    with pytest.raises(ValueError):
        evaluate_psi_t(problem, [0.5], -1e-3, light_cfg)


def test_dedup_points_tolerance():
    pts = np.array([[0.0, 1.0], [0.0, 1.0 + 1e-12], [0.5, 0.5]])
    out = dedup_points(pts, tol=1e-9)
    assert out.shape == (2, 2)
    # lexicographic ordering
    assert out[0][0] <= out[1][0]


def dedup_points_loop(pts, tol=DEDUP_TOL):
    """Reference: the greedy loop over the sorted points, each compared with every point kept so far."""
    pts = np.asarray(pts, dtype=float)
    if pts.size == 0:
        return pts.reshape(0, pts.shape[-1] if pts.ndim == 2 else 0)
    kept = np.empty_like(pts)
    n = 0
    for p in pts[np.lexsort(pts.T[::-1])]:
        # min over kept points of the inf-norm distance; NaN keeps the point out
        if n == 0 or np.abs(kept[:n] - p).max(axis=1).min() > tol:
            kept[n] = p
            n += 1
    return kept[:n]


@st.composite
def near_duplicate_clouds(draw):
    """Lattice points plus copies moved by 0, +-DEDUP_TOL/2 ... +-2 DEDUP_TOL per
    coordinate.

    Copies moved by 0.6 and 1.2 DEDUP_TOL make chains, whose last point is
    far from the first and close only to a dropped one.
    """
    dim = draw(st.integers(1, 4))
    lattice = st.lists(st.integers(-2, 2).map(lambda k: 0.5 * k), min_size=dim, max_size=dim)
    base = draw(st.lists(lattice, min_size=1, max_size=8))
    shift = st.sampled_from([0.0, 0.5, 0.6, 1.0, 1.2, 2.0]).flatmap(lambda a: st.sampled_from([a, -a])).map(lambda a: a * DEDUP_TOL)
    copies = draw(st.lists(st.tuples(st.integers(0, len(base) - 1), st.lists(shift, min_size=dim, max_size=dim)), max_size=16))
    pts = [list(b) for b in base] + [[c + s for c, s in zip(base[i], d)] for i, d in copies]
    return np.array(draw(st.permutations(pts)), dtype=float)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pts=near_duplicate_clouds(), chunk=st.sampled_from([1, 3, maxmin.GRID_CHUNK_ROWS]))
def test_dedup_points_matches_pairwise_loop(pts, chunk):
    # a small chunk splits the compared pairs across several passes
    with mock.patch.object(maxmin, "GRID_CHUNK_ROWS", chunk):
        got = dedup_points(pts)
        want = dedup_points_loop(pts)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def test_dedup_points_memory_follows_the_close_pairs():
    # a whole 20^3 grid: 8000 distinct rows, 400 to each first coordinate;
    # its 8000 x 8000 x 3 distance block alone would take 1.5 GB
    pts = GridSpec(((0.0, 1.0, 20),) * 3).points()
    tracemalloc.start()
    try:
        out = dedup_points(pts[::-1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(out, pts)
    assert peak < 32 * 2**20


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dedup_points_refuses_a_nonfinite_point(value):
    pts = np.array([[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]])
    pts[1, 1] = value
    with pytest.raises(ValueError, match="finite"):
        dedup_points(pts)


@pytest.mark.parametrize("tol", [-1e-9, float("nan"), float("inf"), "1e-9", None])
def test_dedup_points_refuses_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    # at tol = nan two points 1e-12 apart were both kept
    pts = np.array([[0.0, 1.0], [0.0, 1.0 + 1e-12]])
    with pytest.raises(ValueError, match="tolerance"):
        dedup_points(pts, tol)
    assert len(dedup_points(pts, 0.0)) == 2 and len(dedup_points(pts, DEDUP_TOL)) == 1


def test_warm_starts_are_used(example1, light_cfg):
    problem, _ = example1
    from dataclasses import replace

    warm = (np.array([0.2, 0.5, 0.0]),)
    cfg = replace(light_cfg, starts=1, warm_starts=warm, seed=5)
    res = evaluate_psi_t(problem, [0.5], 0.1, cfg)
    assert res.status == "solved"
    assert res.value == pytest.approx(0.2, abs=1e-4)


@pytest.mark.parametrize(
    "kw",
    [
        {"starts": -3},
        {"starts": 0},
        {"sweeps": 0},
        {"local_maxiter": 0},
        {"polish_maxiter": 0},
        {"u_max": 0.0},
        {"feas_tol": float("nan")},
        {"eps_lvl": float("inf")},
        # each of these returned "solved" with psi below the closed form 0.2
        # on example1 at x = 0.5, t = 0.1
        {"penalty_init": 0.0},
        {"penalty_init": -5.0},
        {"penalty_init": float("nan")},
        {"penalty_init": float("inf")},
        {"penalty_growth": 0.5},
        {"penalty_growth": float("inf")},
        {"penalty_growth": float("nan")},
        # each of these was accepted, and the first solve then failed with an
        # error that did not name the field
        {"starts": 2.5},
        {"sweeps": 2.5},
        {"local_maxiter": 2.5},
        {"seed": 1.5},
        {"seed": -1},
        # each of these raised a TypeError that did not name the field
        {"u_max": "3"},
        {"feas_tol": None},
        {"warm_starts": 5},
        # a bool is no number: each of these was accepted
        {"u_max": True},
        {"starts": True},
        {"sweeps": True},
        # an int too large for a float raised OverflowError
        {"u_max": 10**400},
        {"feas_tol": 10**400},
    ],
)
def test_inner_config_rejects_bad_values(kw):
    # polish_maxiter, eps_lvl, penalty_init and penalty_growth are module
    # constants now: passing one at all is refused as an unknown keyword.
    removed = {"polish_maxiter", "eps_lvl", "penalty_init", "penalty_growth"}
    with pytest.raises(TypeError if removed & kw.keys() else ValueError):
        InnerConfig(**kw)


def test_inner_config_warm_starts_alone_suffice(example1):
    problem, _ = example1
    cfg = InnerConfig(starts=0, sweeps=3, warm_starts=(np.array([0.2, 0.5, 0.0]),))
    assert evaluate_psi_t(problem, [0.5], 0.1, cfg).value == pytest.approx(0.2, abs=1e-4)


@pytest.mark.parametrize(
    "x, t",
    [([float("nan")], 0.1), ([0.5], float("inf")), ([0.5], float("nan")), ([0.5, 0.5], 0.1), ([0.5], "0.1"), ([0.5], True), pytest.param([0.5], 10**400, id="huge_int_t")],
)
def test_bad_leader_point_or_level_rejected(example1, light_cfg, x, t):
    problem, _ = example1
    with pytest.raises(ValueError):
        evaluate_psi_t(problem, x, t, light_cfg)


def _rebuilt(problem, **kw):
    fields = {f.name: getattr(problem, f.name) for f in dataclasses.fields(problem) if f.name != "hess_is_fd"}
    return pbopt.BilevelProblem(**{**fields, **kw})


def test_infinite_follower_box_rejected(example1):
    # the box is decided when the problem is built, so a bad one never reaches a solve
    for box in ([[-np.inf, 1.0]], [[0.0, np.nan]], [[1.0, 0.0]]):
        with pytest.raises(ValueError, match="follower box"):
            _rebuilt(example1[0], y_box=np.array(box))


def test_missing_follower_box_gets_the_shared_default(example1, light_cfg):
    problem = _rebuilt(example1[0], y_box=None)
    assert problem.y_box.tolist() == [[-10.0, 10.0]]
    lo, hi = maxmin.follower_box(problem, light_cfg)
    assert lo.tolist() == [-10.0, 0.0, 0.0] and hi.tolist() == [10.0, light_cfg.u_max, light_cfg.u_max]
    assert pbopt.oracle_grid(problem, res=5).axes[0] == (-10.0, 10.0, 5)


@pytest.mark.parametrize(
    "x, t",
    [([0.5], float("nan")), ([0.5], float("inf")), ([0.5], -0.1), ([0.5, 0.2], 0.1), ([float("nan")], 0.1)],
)
def test_brute_force_refuses_bad_input(example1, x, t):
    # a NaN level used to read as an empty set, and a two-entry x was broadcast
    with pytest.raises(ValueError):
        brute_force_psi_t(example1[0], x, t, BRUTE_GRID)


def left_settled(cfg, start, out):
    """The rows a round leaves settled: the ascent settled them, or the polish
    left them off D_t before its iteration budget ran out (they stalled)."""
    return out[4] | ((start[1] > cfg.feas_tol) & (start[2] < maxmin.POLISH_MAXITER))


def test_each_round_runs_the_starts_the_last_round_left_unsettled(monkeypatch, example2):
    """A round polishes and ascends exactly the rows the last round left unsettled.

    A row the round's polish left stalled off D_t counts as settled.  evals
    counts the iterations of the round polishes plus the ascent's
    evaluations, which include the iterations of its restoration polishes;
    rounds counts the rounds that ran a start of the leader point.
    """
    problem, _ = example2
    polish, ascend = maxmin.polish_onto_relaxed_set, maxmin._ascend
    polished, ran = [], []

    def count_polish(*args):
        out = polish(*args)
        polished.append((args[1].copy(), args[2].copy(), out))
        return out

    def count_ascent(problem, X, Z, viol, *rest):
        X0, Z0, start = polished[-1]
        assert Z is start[0] and viol is start[1]  # the round's polish, not a restoration
        out = ascend(problem, X, Z, viol, *rest)
        ran.append((X0, Z0, start, out))
        return out

    monkeypatch.setattr(maxmin, "polish_onto_relaxed_set", count_polish)
    monkeypatch.setattr(maxmin, "_ascend", count_ascent)
    cfg = InnerConfig(starts=6, sweeps=3, local_maxiter=1)  # an ascent this short leaves starts unsettled
    X = [[-0.6], [0.6]]  # at t = 0.1 the second point keeps an unsettled start through all three rounds
    results = maxmin.evaluate_psi_t_batch(problem, X, 0.1, cfg)
    assert len(ran[0][1]) == 2 * cfg.starts
    for (X_prev, _, start, prev), (X0, Z0, _, _) in zip(ran, ran[1:]):
        unsettled = ~left_settled(cfg, start, prev)
        assert unsettled.any()
        np.testing.assert_array_equal(X0, X_prev[unsettled])
        np.testing.assert_array_equal(Z0, prev[0][unsettled])
    assert 1 < len(ran) <= cfg.sweeps
    assert len(ran) == cfg.sweeps or left_settled(cfg, *ran[-1][2:]).all()
    assert [res.rounds for res in results] == [sum(x[0] in X0 for X0, *_ in ran) for x in X] == [2, 3]
    assert sum(res.evals for res in results) == sum(int(start[2].sum() + out[3].sum()) for _, _, start, out in ran)


def every_round_on_every_start(problem, X, t, cfg):
    """The inner solves of X, one leader point at a time, with every start in every round."""
    k = problem.dims.m + problem.dims.q
    lo, hi = maxmin.follower_box(problem, cfg)
    rand = np.random.default_rng(cfg.seed).uniform(lo, hi, size=(cfg.starts, k))
    Z0 = np.clip(np.vstack([np.reshape(cfg.warm_starts, (-1, k)), rand]), lo, hi)
    out = []
    for x in np.atleast_2d(X):
        Z = Z0
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(cfg.sweeps):
                Z, viol, _ = maxmin.polish_onto_relaxed_set(problem, x, Z, t, lo, hi, cfg.feas_tol)
                Z, viol, fval = maxmin._ascend(problem, x[None], Z, viol, t, lo, hi, cfg)[:3]
        out += maxmin._inner_results(Z, viol, fval, np.zeros(len(Z), dtype=int), t, cfg, np.array([cfg.sweeps]))
    return out


SKIP_CFGS = {
    "acceptance": InnerConfig(starts=10, sweeps=3, local_maxiter=80),
    "certifier": InnerConfig(starts=12, sweeps=4, feas_tol=1e-10),
    "one_trial": InnerConfig(starts=8, sweeps=4, local_maxiter=1),  # starts stay unsettled, later rounds run
}


@pytest.mark.parametrize("cfg_name", sorted(SKIP_CFGS))
@pytest.mark.parametrize(
    "name", ["example1", "example2", "synthetic2d", "example1_fd", "example2_fd", "synthetic2d_fd", "nan_region_toy"]
)
def test_skipping_settled_starts_changes_no_result(empty_memo, name, cfg_name):
    problem, cfg = named_problem(name), SKIP_CFGS[cfg_name]
    n = problem.dims.n
    rng = np.random.default_rng(17)
    X = np.vstack([rng.uniform(problem.x_box[:, 0], problem.x_box[:, 1], size=(3, n)), np.full((1, n), 0.01)])
    for t in (0.3, 0.004):
        want = every_round_on_every_start(problem, X, t, cfg)
        empty_memo()
        batch = maxmin.evaluate_psi_t_batch(problem, X, t, cfg)
        for x, ref, got in zip(X, want, batch):
            empty_memo()  # so the lone call is solved, not answered from the batch
            lone = evaluate_psi_t(problem, x, t, cfg)
            for res in (got, lone):
                assert res.status == ref.status
                np.testing.assert_array_equal([res.value], [ref.value])
                np.testing.assert_array_equal(res.argmax.points, ref.argmax.points)
            assert 1 <= lone.rounds == got.rounds <= cfg.sweeps
        if cfg_name == "one_trial":
            assert max(res.rounds for res in batch) > 1


def test_a_start_the_polish_leaves_stalled_is_settled(monkeypatch, example1):
    """With y_box [[0.3, 0.3]] at x = 0.5, t = 0.1, where y = 0.3 lies outside
    D_t, the certifier config's starts stall off D_t in the polish; they are
    settled, so one round runs, and the result is the one every start in
    every round gives."""
    problem = dataclasses.replace(example1[0], y_box=np.array([[0.3, 0.3]]))
    cfg = SKIP_CFGS["certifier"]
    polish, stalled = maxmin.polish_onto_relaxed_set, []

    def count_stalled(*args):
        out = polish(*args)
        stalled.append(int(((out[1] > cfg.feas_tol) & (out[2] < maxmin.POLISH_MAXITER)).sum()))
        return out

    monkeypatch.setattr(maxmin, "polish_onto_relaxed_set", count_stalled)
    res = evaluate_psi_t(problem, [0.5], 0.1, cfg)
    assert stalled[0] > 0
    monkeypatch.undo()
    ref = every_round_on_every_start(problem, [[0.5]], 0.1, cfg)[0]
    assert res.status == ref.status == "infeasible"
    assert res.rounds == 1


def test_a_start_with_a_nonfinite_F_does_not_count(light_cfg):
    """On the NaN-region toy a start on D_t counts only with a finite F.

    At (-0.5, 0.05) the value is the top of the finite part, x + 0.95, up
    to the ascent's last rejected trial (shorter than 2 STEP_MIN along a
    direction whose y entry is at most |grad F| = 1).  At (-0.9, 0.01)
    every start that reaches D_t has F = NaN: the solve is "nonfinite",
    not "solved" with a NaN value, and those starts run one round only.
    """
    problem = named_problem("nan_region_toy")
    res = evaluate_psi_t(problem, [-0.5], 0.05, light_cfg)
    assert res.status == "solved"
    assert 0.0 <= 0.45 - res.value <= 2 * maxmin.STEP_MIN
    assert len(res.argmax) and (res.argmax.points[:, 0] <= 0.95).all()
    res = evaluate_psi_t(problem, [-0.9], 0.01, light_cfg)
    assert (res.status, res.rounds, len(res.argmax)) == ("nonfinite", 1, 0)
    assert np.isnan(res.value)
    with pytest.raises(ValueError, match="nonfinite"):
        approximate_argmax_set(problem, [-0.9], 0.01, light_cfg)


def test_the_polish_reaches_a_tight_feas_tol(synthetic):
    """The polish's least decrease scales with feas_tol, so under the
    certifier's feas_tol = 1e-10 its starts at the synthetic2d origin reach
    D_0 instead of stalling between 1e-10 and 1e-9."""
    problem, oracle = synthetic
    res = evaluate_psi_t(problem, [0.0, 0.0], 0.0, SKIP_CFGS["certifier"])
    assert res.status == "solved"
    assert abs(res.value - oracle.psi_p_t([0.0, 0.0], 0.0)) <= 1e-3


def test_polish_refuses_a_box_below_zero_in_the_multipliers(example1):
    """The solver's rows leave u >= 0 to the box, so a box that admits u < 0 is refused."""
    problem, _ = example1
    lo, hi = maxmin.follower_box(problem, InnerConfig())
    Z = np.array([[0.5, 0.2, 0.1]])
    maxmin.polish_onto_relaxed_set(problem, [0.5], Z, 0.1, lo, hi, 1e-8)
    for bad in (-1.0, np.nan):
        low = lo.copy()
        low[problem.dims.m + 1] = bad
        with pytest.raises(ValueError, match="multiplier part"):
            maxmin.polish_onto_relaxed_set(problem, [0.5], Z, 0.1, low, hi, 1e-8)


@pytest.mark.parametrize("x, status", [(0.05, "solved"), (0.2, "solved"), (0.5, "infeasible")])
def test_a_follower_coordinate_fixed_at_both_bounds(example1, x, status):
    """With y_box [[0.3, 0.3]], y stays at 0.3: psi = F = 0.3 where y = 0.3 lies in D_t."""
    problem = dataclasses.replace(example1[0], y_box=np.array([[0.3, 0.3]]))
    res = evaluate_psi_t(problem, [x], 0.1, InnerConfig(starts=10, sweeps=3, local_maxiter=80))
    assert res.status == status
    if status == "solved":
        assert res.value == 0.3
        assert (res.argmax.points[:, 0] == 0.3).all()


@pytest.mark.parametrize(
    "warm",
    [
        (np.zeros(6),),  # was silently read as two starts
        (np.zeros(3), np.zeros(2)),
        (np.array([0.2, np.nan, 0.0]),),
        (np.array([0.2, 0.5, np.inf]),),
        (np.zeros((1, 3)),),
        (0.5,),
    ],
)
def test_misshaped_or_nonfinite_warm_starts_refused(example1, warm):
    cfg = InnerConfig(starts=0, warm_starts=warm)
    with pytest.raises(ValueError, match="m \\+ q = 3"):
        evaluate_psi_t(example1[0], [0.5], 0.1, cfg)
    with pytest.raises(ValueError, match="m \\+ q = 3"):
        maxmin.evaluate_psi_t_batch(example1[0], [[0.5], [0.2]], 0.1, cfg)


CLOSED_FORM_CFG = InnerConfig(starts=10, sweeps=3, local_maxiter=80)


# One leader coordinate: in the box away from 0, or in the corner 0 < |x| < 0.05.
LEADER_COORD = st.tuples(st.one_of(st.floats(0.05, 1.0), st.floats(0.0, 0.05, exclude_min=True)), st.booleans())


@pytest.mark.parametrize("name", ["example1", "example2", "synthetic2d"])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(coords=st.lists(LEADER_COORD, min_size=2, max_size=2), t=st.floats(1e-3, 0.6))
def test_psi_matches_closed_form_on_and_off_the_corner(name, coords, t):
    # The corner 0 < x < 0.05, t < x, where D_t is a thin sliver, is drawn as
    # well; synthetic2d draws each of its two coordinates so.
    problem, oracle = pbopt.get_problem(name)
    x = [-u if negative and lo < 0 else u for (u, negative), lo in zip(coords, problem.x_box[:, 0])]
    res = evaluate_psi_t(problem, x, t, CLOSED_FORM_CFG)
    assert res.status == "solved"
    assert abs(res.value - oracle.psi_p_t(x, t)) <= 1e-3
