"""Batched inner solves and the batched pattern search.

``evaluate_psi_t_batch`` must return, row for row, exactly what lone
``evaluate_psi_t`` calls return; ``minimize_psi_t`` must follow exactly the
path of a pattern search that solves one poll point at a time, and
``scholtes_solve`` the path it takes when every row is solved alone; and
the vectorised hooks must give every row of a leader block the value it
gets alone.
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbopt import (
    BilevelProblem,
    InnerConfig,
    MinimizeResult,
    OuterConfig,
    RelaxationParams,
    evaluate_psi_t,
    evaluate_psi_t_batch,
    minimize_psi_t,
    scholtes,
    scholtes_solve,
)
from pbopt.problem_model import DimensionError

from toys import BATCH_HOOKS, DIP, biactive_family_data, make_dip_toy, make_linear_follower, named_problem

CFG = InnerConfig(starts=6, sweeps=2, local_maxiter=60)


def leader_block(problem: BilevelProblem, rng, rows: int) -> np.ndarray:
    """Random leader points plus the box corners and one repeated row."""
    lo, hi = problem.x_box[:, 0], problem.x_box[:, 1]
    X = np.vstack([rng.uniform(lo, hi, size=(rows, problem.dims.n)), lo, hi])
    return np.vstack([X, X[:1]])


def assert_same_result(got, want):
    assert got.status == want.status
    assert got.value == want.value or (math.isnan(got.value) and math.isnan(want.value))
    assert got.evals == want.evals
    np.testing.assert_array_equal(got.argmax.points, want.argmax.points)
    assert got.argmax.meta == want.argmax.meta


@pytest.mark.parametrize(
    "name",
    [
        "example1",
        "example2",
        "synthetic2d",
        "example1_fd",
        "example2_fd",
        "synthetic2d_fd",
        "example2_bare",
        "dip_toy",
        "duplicated_g_toy",
        "nan_region_toy",
        "example2_far",
    ],
)
def test_batch_rows_equal_lone_calls(empty_memo, name):
    problem = named_problem(name.removesuffix("_far"))
    rng = np.random.default_rng(17)
    X = leader_block(problem, rng, 5)
    if name.endswith("_far"):
        # Leader points far outside X, between solved rows, where no start is
        # feasible: at x = 20 the multipliers D_t needs lie beyond u_max, and
        # at x = 1e200 every row overflows.
        X = np.insert(X, [1, 3], [[20.0], [1e200]], axis=0)
    for t in (0.3, 0.02):
        empty_memo()
        batch = evaluate_psi_t_batch(problem, X, t, CFG)
        assert len(batch) == len(X)
        for x, res in zip(X, batch):
            empty_memo()  # so the lone call is solved, not answered from the batch
            assert_same_result(res, evaluate_psi_t(problem, x, t, CFG))
        if name.endswith("_far"):
            assert [res.status for res in batch[:5]] == ["solved", "infeasible", "solved", "solved", "nonfinite"]


def test_batch_with_warm_starts_across_lockstep_groups(empty_memo, example2):
    problem, _ = example2
    warm = evaluate_psi_t(problem, [-1.0], 0.2, CFG).argmax.points
    cfg = dataclasses.replace(CFG, warm_starts=tuple(warm))
    X = leader_block(problem, np.random.default_rng(3), 6)
    for x, res in zip(X, evaluate_psi_t_batch(problem, X, 0.1, cfg)):
        empty_memo()  # so the lone call is solved, not answered from the batch
        assert_same_result(res, evaluate_psi_t(problem, x, 0.1, cfg))


def test_batch_refuses_bad_blocks(example2):
    problem, _ = example2
    with pytest.raises(DimensionError):
        evaluate_psi_t_batch(problem, [0.5, 0.2], 0.1, CFG)
    with pytest.raises(ValueError):
        evaluate_psi_t_batch(problem, [[0.5], [np.nan]], 0.1, CFG)
    with pytest.raises(ValueError):
        evaluate_psi_t_batch(problem, [[0.5]], -1.0, CFG)
    assert evaluate_psi_t_batch(problem, np.zeros((0, 1)), 0.1, CFG) == []


def sequential_minimize(problem, t, x_init, cfg):
    """The pattern search with one lone inner solve per new poll point."""
    n = problem.dims.n
    x = x_start = scholtes._project_x(problem, problem.leader_point(x_init, "x_init"))
    cache, evals = {}, 0

    def objective(xq):
        nonlocal evals
        key = xq.tobytes()
        if key not in cache:
            res = evaluate_psi_t(problem, xq, t, cfg.inner)
            val = math.inf if res.status != "solved" else res.value + scholtes._leader_penalty(problem, xq)
            cache[key] = (val, res)
            evals += 1
        return cache[key]

    diam = float(np.max(problem.x_box[:, 1] - problem.x_box[:, 0]))
    mesh = scholtes.MESH_INIT_FRAC * diam if diam > 0 else cfg.mesh_tol
    center_val, center_res = objective(x)
    ties = []  # per poll read: did it tie the centre?
    for _ in range(scholtes.MAX_ROUNDS):
        if mesh < cfg.mesh_tol:
            break
        polls = []
        for i in range(n):
            for sign in (1.0, -1.0):
                xp = x.copy()
                xp[i] += sign * mesh
                xp = scholtes._project_x(problem, xp)
                if np.array_equal(xp, x):
                    continue
                polls.append((objective(xp)[0], tuple(xp), xp))
        if not math.isfinite(center_val) and all(not math.isfinite(v) for v, _, _ in polls):
            raise scholtes.OuterInfeasibleError("infeasible")
        ties += [abs(v - center_val) <= scholtes.DECREASE_TOL for v, _, _ in polls]
        polls.sort(key=lambda rec: (rec[0], rec[1]))
        if polls and polls[0][0] < center_val - scholtes.DECREASE_TOL:
            x, center_val = polls[0][2], polls[0][0]
            center_res = cache[x.tobytes()][1]
        else:
            mesh *= 0.5
    flat = bool(ties) and all(ties) and np.array_equal(x, x_start)
    return MinimizeResult(x=x, value=center_val, evals=evals, final_mesh=mesh, inner=center_res, unread=0, flat=flat)


def counting_batches(monkeypatch) -> list:
    """Record the number of leader points of every batched solve of the search."""
    sizes = []
    solve = scholtes.evaluate_psi_t_batch

    def counted(problem, X, t, cfg=None):
        sizes.append(len(X))
        return solve(problem, X, t, cfg)

    monkeypatch.setattr(scholtes, "evaluate_psi_t_batch", counted)
    return sizes


SEARCH_CASES = [
    ("example1", [0.5], 0.1),
    ("example1", [1.0], 0.05),
    ("example2", [0.3], 0.25),
    ("example2", [-1.0], 0.05),
    ("synthetic2d", [0.4, -0.2], 0.25),
    ("dip_toy", [0.5], 0.1),
    ("dip_toy", [0.9], 0.1),
]


@pytest.mark.parametrize("name,x0,t", SEARCH_CASES)
def test_minimize_follows_the_sequential_search(monkeypatch, name, x0, t):
    problem = named_problem(name)
    cfg = OuterConfig(inner=CFG, mesh_tol=1e-4)
    sizes = counting_batches(monkeypatch)
    got = minimize_psi_t(problem, t, x0, cfg)
    want = sequential_minimize(problem, t, x0, cfg)
    np.testing.assert_array_equal(got.x, want.x)
    assert (got.value, got.evals, got.final_mesh, got.flat) == (want.value, want.evals, want.final_mesh, want.flat)
    assert_same_result(got.inner, want.inner)
    assert got.unread == sum(sizes) - got.evals >= 0


def test_ladder_reports_unread_evaluations(monkeypatch):
    problem = make_dip_toy()
    cfg = OuterConfig(inner=CFG, mesh_tol=1e-4)
    sizes = counting_batches(monkeypatch)
    res = minimize_psi_t(problem, 0.1, [0.5], cfg)
    want = sequential_minimize(problem, 0.1, [0.5], cfg)
    np.testing.assert_array_equal(res.x, want.x)
    assert (res.value, res.evals, res.final_mesh, res.flat) == (want.value, want.evals, want.final_mesh, want.flat)
    assert res.x[0] == DIP[0]
    # first round (centre, 0.75, 0.25) in one call, then the ladder at 0.5,
    # whose 19 lower rungs go unread once it finds the well, then the whole
    # ladder at the well, all of it read; the doubling lookahead took four
    # calls there ([3, 22, 1, 4, 6, 8]) and left the same 19 unread
    assert sizes == [3, 22, 19]
    assert res.unread == sum(sizes) - res.evals == 19


def test_ladder_costs_one_call_at_a_box_edge(monkeypatch, example2):
    problem, _ = example2
    sizes = counting_batches(monkeypatch)
    res = minimize_psi_t(problem, 0.05, [-1.0], OuterConfig(inner=CFG))
    assert res.x[0] == -1.0
    # the start, its one inward poll and the 15 halving rounds left
    assert sizes == [17] and res.calls == 1
    assert res.unread == 0 and res.evals == sum(sizes)


def test_a_box_edge_start_that_walks_inward_leaves_its_ladder_unread(monkeypatch):
    problem = named_problem("example1")
    cfg = OuterConfig(inner=CFG)
    sizes = counting_batches(monkeypatch)
    got = minimize_psi_t(problem, 0.125, [0.0], cfg)
    want = sequential_minimize(problem, 0.125, [0.0], cfg)
    np.testing.assert_array_equal(got.x, want.x)
    assert (got.value, got.evals, got.final_mesh) == (want.value, want.evals, want.final_mesh)
    # the start's 14 lower rungs go unread once its inward poll wins; the
    # round after that move solves the walk to the box edge x = 1 with the
    # edge's poll and its halving ladder (one call per move took [16, 1, 1, 1, 14])
    assert sizes == [16, 17]
    assert got.unread == sum(sizes) - got.evals == 14


# Batch sizes of a 1-D walk to a box edge: the start and its first polls,
# then, in the round after the first move, the rest of the walk (each move's
# round, with the backward poll that rounding can leave one ulp off the
# previous incumbent), the edge's poll round and its 15 (example2) or 14
# (example1) halving rounds left.  One call per round took 19 and 18 calls,
# the doubling lookahead 9 ([3, 1, 2, 1, 1, 2, 3, 5, 4] and
# [3, 2, 1, 1, 1, 2, 3, 5, 3]), a ladder after the edge's poll round 5
# ([3, 1, 2, 1, 15] and [3, 2, 1, 1, 14]), and the edge's ladder with its
# poll round 4 ([3, 1, 2, 16] and [3, 2, 1, 15]).
LADDER_AFTER_A_MOVE = {"example2": [3, 19], "example1": [3, 18]}


@pytest.mark.parametrize("name,x0,t", [("example2", [0.3], 1.0), ("example1", [0.3], 0.5)])
def test_halvings_after_a_move_are_solved_ahead(monkeypatch, name, x0, t):
    problem = named_problem(name)
    cfg = OuterConfig(inner=CFG)
    sizes = counting_batches(monkeypatch)
    got = minimize_psi_t(problem, t, x0, cfg)
    want = sequential_minimize(problem, t, x0, cfg)
    np.testing.assert_array_equal(got.x, want.x)
    assert (got.evals, got.final_mesh) == (want.evals, want.final_mesh)
    assert sizes == LADDER_AFTER_A_MOVE[name]
    assert got.calls == len(sizes)
    assert got.unread == 0 and sum(sizes) == got.evals


@pytest.mark.parametrize("mesh_tol,batches", [(0.1, [3, 1, 5]), (0.06, [3, 7])])
def test_a_walk_is_solved_ahead_only_within_its_ladders_length(monkeypatch, mesh_tol, batches):
    # example2 from 0.8 at t = 1 moves to 0.3, three steps of 0.5 from the
    # edge x = -1.  With mesh_tol = 0.1 two halving rounds are left below the
    # mesh, so the round at 0.3 is solved alone and the walk is solved from
    # -0.2, two steps from the edge; with mesh_tol = 0.06 three are left and
    # the round at 0.3 solves the whole walk.
    problem = named_problem("example2")
    cfg = OuterConfig(inner=CFG, mesh_tol=mesh_tol)
    sizes = counting_batches(monkeypatch)
    got = minimize_psi_t(problem, 1.0, [0.8], cfg)
    want = sequential_minimize(problem, 1.0, [0.8], cfg)
    np.testing.assert_array_equal(got.x, want.x)
    assert got.x[0] == -1.0
    assert (got.evals, got.final_mesh) == (want.evals, want.final_mesh)
    assert sizes == batches
    assert got.unread == 0 and sum(sizes) == got.evals


def test_an_interior_minimum_costs_no_more_calls(monkeypatch):
    # the search walks inward from the box edge x = 1 to the local minimiser
    # 1/sqrt(2) and leaves most of what it solves ahead unread; that must not
    # add a call to the 9 that a ladder after each first survived round took
    sizes = counting_batches(monkeypatch)
    got = minimize_psi_t(named_problem("example2"), 0.5, [1.0])
    assert abs(got.x[0] - 2**-0.5) < 1e-4
    assert got.calls == len(sizes) <= 9
    assert got.unread == sum(sizes) - got.evals


# Batch sizes of 1-D searches under a small round cap (MAX_ROUNDS): a walk
# to the box edge (example2 from 0.3 at t = 1), boundary starts (example2
# from -1, example1 from 0) and a box-edge start whose rounds survive
# (example2 from 1 at t = 0.5).  Under the cap 3 the walk from -0.2 would
# reach the edge -1 only in round 3, so each of its rounds is solved alone;
# under the cap 6 the round at -0.2 solves the walk and the edge's rounds 3
# to 5.  A boundary start solves its ladder down to round cap - 1.
ROUND_CAP_BATCHES = {
    3: {("example2", 0.3): [3, 1, 2], ("example2", -1.0): [4], ("example1", 0.0): [4, 1, 1], ("example2", 1.0): [4]},
    6: {("example2", 0.3): [3, 6], ("example2", -1.0): [7], ("example1", 0.0): [7, 4], ("example2", 1.0): [7, 5]},
}


@pytest.mark.parametrize("cap", [3, 6])
@pytest.mark.parametrize(
    "name,x0,t", [("example2", [0.3], 1.0), ("example2", [-1.0], 0.05), ("example1", [0.0], 0.125), ("example2", [1.0], 0.5)]
)
def test_no_round_at_or_past_the_cap_is_solved_ahead(monkeypatch, cap, name, x0, t):
    monkeypatch.setattr(scholtes, "MAX_ROUNDS", cap)  # sequential_minimize reads it too
    problem = named_problem(name)
    cfg = OuterConfig(inner=CFG)
    sizes = counting_batches(monkeypatch)
    got = minimize_psi_t(problem, t, x0, cfg)
    want = sequential_minimize(problem, t, x0, cfg)
    np.testing.assert_array_equal(got.x, want.x)
    assert (got.value, got.evals, got.final_mesh, got.flat) == (want.value, want.evals, want.final_mesh, want.flat)
    assert_same_result(got.inner, want.inner)
    assert got.unread == sum(sizes) - got.evals
    # call k is made in round k or later and a 1-D round has at most two
    # poll points, so a call that stops before the cap has at most 2 (cap - k)
    # rows, besides the starting point in the first
    assert all(size <= 2 * (cap - k) + (k == 0) for k, size in enumerate(sizes))
    assert sizes == ROUND_CAP_BATCHES[cap][name, x0[0]]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(["example1", "example2"]),
    u=st.floats(0.0, 1.0),
    log_t=st.floats(math.log(1e-3), 0.0),
    mesh_tol=st.sampled_from([1e-5, 1e-3]),
)
def test_solving_ahead_never_changes_the_search(name, u, log_t, mesh_tol):
    problem = named_problem(name)
    lo, hi = problem.x_box[0]
    x0, t = [lo + u * (hi - lo)], math.exp(log_t)
    cfg = OuterConfig(inner=CFG, mesh_tol=mesh_tol)
    with pytest.MonkeyPatch.context() as mp:
        sizes = counting_batches(mp)
        got = minimize_psi_t(problem, t, x0, cfg)
    want = sequential_minimize(problem, t, x0, cfg)
    np.testing.assert_array_equal(got.x, want.x)
    assert (got.value, got.evals, got.final_mesh, got.flat) == (want.value, want.evals, want.final_mesh, want.flat)
    assert_same_result(got.inner, want.inner)
    assert got.unread == sum(sizes) - got.evals
    # with L halving rounds below the first mesh, an interior ladder has at
    # most 2L rows and a walk, at most L steps long, no more than that plus
    # its first round and a few backward polls
    rungs = math.floor(math.log2(scholtes.MESH_INIT_FRAC * (hi - lo) / mesh_tol))
    assert max(sizes) <= 2 * rungs + 3


def test_a_2d_search_solves_each_round_with_its_halved_round(monkeypatch):
    # a round that needs a fresh point also solves the polls of the round
    # that follows when it survives: the same centre at half the mesh
    problem = named_problem("synthetic2d")
    cfg = OuterConfig(inner=CFG)
    sizes = counting_batches(monkeypatch)
    got = minimize_psi_t(problem, 0.5, [0.4, -0.2], cfg)
    want = sequential_minimize(problem, 0.5, [0.4, -0.2], cfg)
    np.testing.assert_array_equal(got.x, want.x)
    assert (got.value, got.evals, got.final_mesh, got.flat) == (want.value, want.evals, want.final_mesh, want.flat)
    assert_same_result(got.inner, want.inner)
    # 12 moves and 16 halvings (0.5 down to 2**-17) took one call per round, 28
    assert got.final_mesh == 0.5 * 2.0**-16
    assert got.calls == len(sizes) == 17
    n = problem.dims.n
    assert sizes[0] <= 1 + 4 * n and max(sizes[1:]) <= 4 * n
    # the halved rounds of the rounds that moved go unread
    assert got.unread == sum(sizes) - got.evals == 13


LEADER_3D = make_linear_follower(*biactive_family_data(3, np.random.default_rng(3), n=3), name="linear3d")


# (calls, unread) of the 3-D searches, the same at both t
CALLS_UNREAD_3D = {0: (10, 21), 1: (8, 17), 2: (12, 28)}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_3d_search_follows_the_sequential_search(seed):
    problem, n = LEADER_3D, 3
    x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    cfg = OuterConfig(inner=CFG, mesh_tol=1e-2)
    for t in (0.2, 0.02):
        with pytest.MonkeyPatch.context() as mp:
            sizes = counting_batches(mp)
            got = minimize_psi_t(problem, t, x0, cfg)
        want = sequential_minimize(problem, t, x0, cfg)
        np.testing.assert_array_equal(got.x, want.x)
        assert (got.value, got.evals, got.final_mesh, got.flat) == (want.value, want.evals, want.final_mesh, want.flat)
        assert_same_result(got.inner, want.inner)
        assert got.calls == len(sizes)
        assert sizes[0] <= 1 + 4 * n and max(sizes[1:]) <= 4 * n
        assert got.unread == sum(sizes) - got.evals
        # each move leaves its halved round unread; no round below mesh_tol is solved
        assert (got.calls, got.unread) == CALLS_UNREAD_3D[seed]


def solving_alone(monkeypatch) -> None:
    """Make every batched solve of the level solves one lone evaluate_psi_t call per row."""
    monkeypatch.setattr(scholtes, "evaluate_psi_t_batch", lambda problem, X, t, cfg: [evaluate_psi_t(problem, x, t, cfg) for x in X])


def test_a_3d_homotopy_follows_the_sequential_search(monkeypatch, empty_memo):
    # the n >= 2 level solve (BFGS, confirming polls) with every row solved alone
    x0 = np.random.default_rng(0).uniform(-1.0, 1.0, 3)
    params = RelaxationParams(t0=0.2, rho=0.5, t_min=0.1, outer=OuterConfig(inner=CFG, mesh_tol=1e-2))
    sizes = counting_batches(monkeypatch)
    got = scholtes_solve(LEADER_3D, params, x0)
    assert got.inner_calls == len(sizes)
    assert got.unread_evals == sum(sizes) - sum(rec.outer_evals for rec in got.records)
    empty_memo()
    solving_alone(monkeypatch)
    want = scholtes_solve(LEADER_3D, params, x0)
    assert got.terminal == want.terminal and len(got.records) == len(want.records) == 2
    for a, b in zip(got.records, want.records):
        np.testing.assert_array_equal(a.x, b.x)
        assert (a.t, a.psi, a.inner_status, a.outer_evals, a.final_mesh) == (
            b.t, b.psi, b.inner_status, b.outer_evals, b.final_mesh
        )
        np.testing.assert_array_equal(a.argmax.points, b.argmax.points)


@pytest.mark.parametrize(
    "name,x0",
    [
        ("example1", [0.5]),
        ("example2", [0.3]),
        ("synthetic2d", [0.4, -0.2]),
        ("example1", [0.1]),
        ("example2", [-1.0]),
        ("example1", [1.0]),
    ],
)
def test_scholtes_trace_follows_the_sequential_search(monkeypatch, empty_memo, name, x0):
    # a 1-D level is the pattern search, which sequential_minimize repeats;
    # a 2-D level is the BFGS level solve, repeated with every row solved alone
    problem = named_problem(name)
    params = RelaxationParams(t0=0.5, rho=0.5, t_min=0.05, outer=OuterConfig(inner=CFG, mesh_tol=1e-4))
    sizes = counting_batches(monkeypatch)
    got = scholtes_solve(problem, params, x0)
    empty_memo()
    monkeypatch.setattr(scholtes, "minimize_psi_t", sequential_minimize)
    solving_alone(monkeypatch)
    want = scholtes_solve(problem, params, x0)
    assert got.terminal == want.terminal
    assert len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        np.testing.assert_array_equal(a.x, b.x)
        assert (a.k, a.t, a.psi, a.inner_status, a.outer_evals, a.final_mesh) == (
            b.k, b.t, b.psi, b.inner_status, b.outer_evals, b.final_mesh
        )
        np.testing.assert_array_equal(a.argmax.points, b.argmax.points)
    assert got.unread_evals == sum(sizes) - sum(rec.outer_evals for rec in got.records)
    assert got.inner_calls == len(sizes)
    if len(x0) > 1:
        assert (got.inner_calls, got.unread_evals) == (want.inner_calls, want.unread_evals)
    if x0 in ([-1.0], [1.0]):
        # a 1-D level that starts and stays on the box edge solves its poll
        # and its whole halving ladder with the start, in one call
        assert got.inner_calls == len(sizes) == len(got.records)
        assert all(np.array_equal(rec.x, x0) for rec in got.records)


def test_run_trace_sums_the_batched_calls(monkeypatch):
    params = RelaxationParams(t0=0.5, rho=0.5, t_min=0.1, outer=OuterConfig(inner=CFG, mesh_tol=1e-4))
    sizes = counting_batches(monkeypatch)
    trace = scholtes_solve(named_problem("example2"), params, [0.3])
    assert len(trace.records) > 1
    assert trace.inner_calls == len(sizes)


def hook_args(problem, rng, rows):
    lo, hi = problem.x_box[:, 0], problem.x_box[:, 1]
    X = rng.uniform(lo, hi, size=(rows, problem.dims.n))
    Y = rng.uniform(problem.y_box[:, 0], problem.y_box[:, 1], size=(rows, problem.dims.m))
    U = rng.uniform(0.0, 2.0, size=(rows, problem.dims.q))
    return X, Y, U


def call_hook(problem, hook, X, Y, U):
    fn = getattr(problem, hook)
    return fn(X, Y, U) if hook in ("batch_lagrangian", "batch_lagrangian_jac") else fn(X, Y)


@pytest.mark.parametrize("name", ["example1", "example2", "synthetic2d"])
@pytest.mark.parametrize("hook", BATCH_HOOKS)
def test_hooks_give_each_row_its_lone_value(name, hook):
    problem = named_problem(name)
    X, Y, U = hook_args(problem, np.random.default_rng(23), 50)
    block = np.asarray(call_hook(problem, hook, X, Y, U))
    assert block.shape[0] == len(Y)
    for i in range(len(Y)):
        alone = np.asarray(call_hook(problem, hook, X[i : i + 1], Y[i : i + 1], U[i : i + 1]))
        np.testing.assert_array_equal(block[i], alone[0])
    # a (1, n) block broadcasts exactly like its repetition
    one = np.asarray(call_hook(problem, hook, X[:1], Y, U))
    np.testing.assert_array_equal(one, np.asarray(call_hook(problem, hook, np.repeat(X[:1], len(Y), axis=0), Y, U)))


@pytest.mark.parametrize("name", ["example1", "example2", "synthetic2d", "example2_fd", "synthetic2d_fd", "example2_bare", "dip_toy"])
def test_rows_methods_give_each_row_its_lone_value(name):
    problem = named_problem(name)
    rng = np.random.default_rng(29)
    X = rng.uniform(problem.x_box[:, 0], problem.x_box[:, 1], size=(7, problem.dims.n))
    Y = rng.uniform(problem.y_box[:, 0], problem.y_box[:, 1], size=(7, problem.dims.m))
    U = rng.uniform(0.0, 2.0, size=(7, problem.dims.q))
    for method in ("F_rows", "g_rows", "grad_F_rows", "lagrangian_rows", "lagrangian_jac_rows"):
        fn = getattr(problem, method)
        args = (Y, U) if method.startswith("lagrangian") else (Y,)
        block = fn(X, *args)
        for i in range(len(X)):
            np.testing.assert_array_equal(block[i], fn(X[i : i + 1], *(a[i : i + 1] for a in args))[0])


def all_trials_bfgs(log: list):
    """``scholtes._bfgs`` with each line search's LINE_TRIALS trials solved in
    one batched call, the trials it does not reach left unread.  It appends
    one list per run to ``log``, per line search: the rows the unit trial
    and the other trials would add to the level's solves (0 for a point
    held already or repeated after projection), and the index of the
    accepted trial, or None."""

    def bfgs(problem, cfg, level, x, grad, hess):
        searches = []
        log.append(searches)
        lo, hi = (problem.x_box[:, 0], problem.x_box[:, 1]) if problem.x_box is not None else (-np.inf, np.inf)
        val = level.cache[x.tobytes()][0]
        for _ in range(scholtes.MAX_ROUNDS):
            free = ~(((x <= lo) & (grad > 0.0)) | ((x >= hi) & (grad < 0.0)))
            p = np.zeros_like(x)
            p[free] = -np.linalg.solve(hess[np.ix_(free, free)], grad[free]) if free.any() else 0.0
            if not abs(grad @ p) > scholtes.DECREASE_TOL:
                break
            trials = [scholtes._project_x(problem, x + 0.5**k * p) for k in range(scholtes.LINE_TRIALS)]
            center = x.tolist()
            trials = [xt for xt in trials if xt.tolist() != center]
            unit = {xt.tobytes() for xt in trials[:1]} - level.cache.keys()
            rows = (len(unit), len({xt.tobytes() for xt in trials[1:]} - unit - level.cache.keys()))
            level.solve(trials)
            for k, xt in enumerate(trials):
                vt = level.objective(xt)[0]
                slope = grad @ (xt - x)
                if slope < 0.0 and vt <= val + scholtes.ARMIJO_C1 * slope:
                    break
            else:
                searches.append((rows, None))
                return x, grad, hess, True
            searches.append((rows, k))
            s, x, val = xt - x, xt, vt
            new = scholtes._gradient(problem, level, x)
            if new is None:
                return x, None, hess, False
            y, grad = new - grad, new
            sy = s @ y
            if sy > scholtes.CURVATURE_MIN:
                hs = hess @ s
                hess = hess - np.outer(hs, hs) / (s @ hs) + np.outer(y, y) / sy
            if np.abs(s).max() < cfg.mesh_tol:
                break
        return x, grad, hess, False

    return bfgs


def line_search_batches(monkeypatch) -> list:
    """Record, per ``scholtes._bfgs`` run, the sizes of its batched solves."""
    sizes, runs = counting_batches(monkeypatch), []
    bfgs = scholtes._bfgs

    def spy(problem, cfg, level, x, grad, hess):
        first = len(sizes)
        out = bfgs(problem, cfg, level, x, grad, hess)
        runs.append(sizes[first:])
        return out

    monkeypatch.setattr(scholtes, "_bfgs", spy)
    return runs


# (problem, x0, schedule, mesh_tol) of n >= 2 runs: synthetic2d that takes
# every unit step, synthetic2d from the corner (1, 1), whose line searches
# backtrack and then pass, LEADER_3D, whose first line search at a level
# finds every trial unsolved and hands the level to the pattern search, and
# the default schedule, whose deep levels end on a line search that
# backtracks and finds no decrease
BACKTRACKING_RUNS = {
    "synthetic2d": ("synthetic2d", [0.4, -0.2], (0.5, 0.5, 0.25), 1e-4),
    "synthetic2d_corner": ("synthetic2d", [1.0, 1.0], (0.5, 0.5, 0.25), 1e-4),
    "linear3d_seed0": ("linear3d", 0, (0.2, 0.5, 1e-2), 1e-2),
    "linear3d_seed2": ("linear3d", 2, (0.2, 0.5, 1e-2), 1e-2),
    "synthetic2d_deep": ("synthetic2d", [0.4, -0.2], (1.0, 0.5, 1e-6), 1e-4),
}


@pytest.mark.parametrize("label", sorted(BACKTRACKING_RUNS))
def test_a_line_search_solves_its_shorter_trials_only_when_the_unit_step_fails(monkeypatch, empty_memo, label):
    """Each line search solves its unit trial alone and, only when that
    fails Armijo's test, the other trials in one second call, never a third.
    The records equal bit for bit those of a BFGS that solves all
    LINE_TRIALS trials in one call; only calls and unread rows differ."""
    name, x0, schedule, mesh_tol = BACKTRACKING_RUNS[label]
    problem = LEADER_3D if name == "linear3d" else named_problem(name)
    x0 = np.random.default_rng(x0).uniform(-1.0, 1.0, 3) if isinstance(x0, int) else x0
    params = RelaxationParams(*schedule, outer=OuterConfig(inner=CFG, mesh_tol=mesh_tol))
    runs = line_search_batches(monkeypatch)
    got = scholtes_solve(problem, params, x0)
    empty_memo()
    log = []
    monkeypatch.setattr(scholtes, "_bfgs", all_trials_bfgs(log))
    want = scholtes_solve(problem, params, x0)
    assert got.terminal == want.terminal and len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        assert a.x.tobytes() == b.x.tobytes() and a.argmax.points.tobytes() == b.argmax.points.tobytes()
        assert (a.k, a.t, a.psi, a.inner_status, a.outer_evals, a.final_mesh) == (
            b.k, b.t, b.psi, b.inner_status, b.outer_evals, b.final_mesh
        )
    # the call shape the reference predicts, line search by line search: the
    # unit trial alone, then the other trials when the unit step fails
    assert runs == [
        [size for (unit, rest), k in searches for size in (unit, rest if k != 0 else 0) if size] for searches in log
    ]
    # a trial the reference solved ahead and a later round read is solved
    # in that round's call instead, so these are bounds, not equalities
    backtracked = sum(k != 0 for searches in log for _, k in searches)
    skipped = sum(rest for searches in log for (_, rest), k in searches if k == 0)
    assert got.inner_calls >= want.inner_calls + backtracked
    assert want.unread_evals - skipped <= got.unread_evals <= want.unread_evals
    if label == "synthetic2d":
        # every line search takes its unit step: one 1-row call each
        assert backtracked == 0 and all(runs) and all(size == 1 for sizes in runs for size in sizes)
    else:
        assert backtracked > 0
    if label.startswith("linear3d") or label == "synthetic2d_deep":
        assert any(k is None for searches in log for _, k in searches)
    if label == "synthetic2d_corner":
        assert any(k not in (0, None) for searches in log for _, k in searches)
