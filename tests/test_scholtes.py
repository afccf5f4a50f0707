import dataclasses

import numpy as np
import pytest

import pbopt
from pbopt import OuterConfig, RelaxationParams, maxmin, minimize_psi_t, scholtes, scholtes_solve
from pbopt.maxmin import EPS_LVL_DEFAULT
from pbopt.problem_model import DimensionError
from toys import biactive_family_data, make_empty_lower_toy, make_linear_follower, make_mirror_toy


def _outer(light_cfg):
    return OuterConfig(inner=light_cfg)


def test_minimize_example1(example1, light_cfg):
    problem, _ = example1
    res = minimize_psi_t(problem, 0.1, [0.5], _outer(light_cfg))
    assert res.x[0] == pytest.approx(1.0, abs=1e-3)
    assert res.value == pytest.approx(0.1, abs=1e-3)
    assert res.evals > 0


def test_minimize_example2(example2, light_cfg):
    problem, _ = example2
    res = minimize_psi_t(problem, 0.25, [0.0], _outer(light_cfg))
    assert res.x[0] == pytest.approx(-1.0, abs=1e-3)
    assert res.value == pytest.approx(0.0, abs=1e-3)


def test_minimize_degenerate_single_point_box(example1, light_cfg):
    problem, oracle = example1
    pinned = pbopt.BilevelProblem(
        dims=problem.dims,
        eval_F=problem.eval_F,
        eval_f=problem.eval_f,
        eval_G=problem.eval_G,
        eval_g=problem.eval_g,
        grad_F=problem.grad_F,
        grad_f=problem.grad_f,
        jac_G=problem.jac_G,
        jac_g=problem.jac_g,
        hess_f_yx=problem.hess_f_yx,
        hess_f_yy=problem.hess_f_yy,
        hess_g_yx=problem.hess_g_yx,
        hess_g_yy=problem.hess_g_yy,
        x_box=np.array([[0.3, 0.3]]),
        y_box=problem.y_box,
        batch_g=problem.batch_g,
        batch_lagrangian=problem.batch_lagrangian,
        batch_F=problem.batch_F,
    )
    res = minimize_psi_t(pinned, 0.1, [0.9], _outer(light_cfg))
    assert res.x[0] == 0.3
    assert res.value == pytest.approx(oracle.psi_p_t(0.3, 0.1), abs=1e-4)


def test_leader_set_without_a_box_is_searched_by_penalty(example2, light_cfg):
    # Example2 without its box: the leader set is G(x) = (-x - 1, x - 1) <= 0,
    # so the first mesh is the box-free default and infeasible polls are penalised.
    problem = dataclasses.replace(example2[0], x_box=None)
    res = minimize_psi_t(problem, 0.25, [0.3], _outer(light_cfg))
    assert res.x[0] == pytest.approx(-1.0, abs=1e-3)
    assert res.value == pytest.approx(0.0, abs=1e-3)
    with pytest.raises(ValueError, match="x0 required"):
        scholtes_solve(problem, RelaxationParams(outer=_outer(light_cfg)))


def test_a_boxed_leader_set_still_reads_G(example1, light_cfg):
    # Example1 with the extra leader constraint x - 0.5 <= 0 inside its box
    # [0, 1]: psi falls toward x = 1, so a search blind to G ends there.
    problem = example1[0]
    problem = dataclasses.replace(
        problem,
        dims=dataclasses.replace(problem.dims, p=3),
        eval_G=lambda x: np.array([-x[0], x[0] - 1.0, x[0] - 0.5]),
        jac_G=lambda x: np.array([[-1.0], [1.0], [1.0]]),
    )
    params = RelaxationParams(t0=0.5, rho=0.5, t_min=0.05, outer=OuterConfig(inner=light_cfg, mesh_tol=1e-4))
    x = scholtes_solve(problem, params, [0.25]).final().x
    assert max(problem.eval_G(x)) <= scholtes.X_MEMBERSHIP_TOL
    assert x[0] == pytest.approx(0.5, abs=1e-3)


def test_a_leader_point_whose_G_is_not_finite_is_infeasible(example2):
    """G NaN on (0.45, 0.55) is the same leader set as G = inf there: no NaN
    penalised value that sorts first hides an improving poll."""
    base = example2[0]

    def with_G(value):
        return dataclasses.replace(base, eval_G=lambda x: np.full(2, value) if 0.45 < x[0] < 0.55 else base.eval_G(x))

    nan_G, inf_G = with_G(np.nan), with_G(np.inf)
    assert scholtes.leader_violation(nan_G, np.array([0.5])) == np.inf
    cfg = OuterConfig(mesh_tol=1e-3, inner=pbopt.InnerConfig(starts=6, local_maxiter=60))
    got, want = minimize_psi_t(nan_G, 0.5, [0.0], cfg), minimize_psi_t(inf_G, 0.5, [0.0], cfg)
    assert (got.calls, got.evals, got.unread, got.value) == (want.calls, want.evals, want.unread, want.value) == (2, 12, 0, 0.0)
    assert got.x.tobytes() == want.x.tobytes()


def _violation_reference(problem, x):
    """leader_violation as one numpy max over the concatenated violations."""
    viol = [np.zeros(1)]
    if problem.x_box is not None:
        viol += [problem.x_box[:, 0] - x, x - problem.x_box[:, 1]]
    if problem.dims.p:
        viol.append(np.asarray(problem.eval_G(x), dtype=float).ravel())
    viol = np.concatenate(viol)
    return float(viol.max()) if np.isfinite(viol).all() else np.inf


def _leader_set(kind):
    """synthetic2d with the leader set of one kind: its box only, its G only, both, a NaN or infinite G, a ±0 box."""
    base = pbopt.get_problem("synthetic2d")[0]
    if kind == "box":
        return dataclasses.replace(base, dims=dataclasses.replace(base.dims, p=0))
    if kind == "G":
        return dataclasses.replace(base, x_box=None, eval_G=lambda x: np.array([x[0] + x[1] - 0.5, -x[0] - 2.0]))
    if kind in ("nan_G", "inf_G"):
        value = np.nan if kind == "nan_G" else np.inf
        return dataclasses.replace(base, eval_G=lambda x: np.array([0.0, value]) if x[0] > 0.25 else base.eval_G(x))
    if kind == "signed_zeros":
        return dataclasses.replace(base, dims=dataclasses.replace(base.dims, p=0), x_box=[[-0.0, 0.0], [0.0, 1.0]])
    return base


@pytest.mark.parametrize("kind", ["box", "G", "box_and_G", "nan_G", "inf_G", "signed_zeros"])
@pytest.mark.parametrize("x", [[0.5, -0.25], [0.0, -0.0], [-0.0, 1.0], [1.5, 0.2], [-3.0, 4.0], [1.0, -1.0], [1e-9, 0.0]])
def test_leader_violation_is_the_numpy_max_as_a_python_float(kind, x):
    # a max over floats may keep the other zero of -0.0 and 0.0 than numpy's;
    # the two compare equal, and a violation of zero gives no penalty either way
    problem, x = _leader_set(kind), np.array(x)
    got, want = scholtes.leader_violation(problem, x), _violation_reference(problem, x)
    assert type(got) is float
    assert got == want
    if kind in ("nan_G", "inf_G") and x[0] > 0.25:
        assert got == np.inf


def _poll_reference(problem, xc, h):
    """_poll_points with a whole-point test: a poll equal to xc under np.array_equal is left out."""
    points = []
    for i in range(problem.dims.n):
        for sign in (1.0, -1.0):
            xp = xc.copy()
            xp[i] += sign * h
            xp = np.clip(xp, problem.x_box[:, 0], problem.x_box[:, 1]) if problem.x_box is not None else xp
            if not np.array_equal(xp, xc):
                points.append(xp)
    return points


@pytest.mark.parametrize(
    "box, xc, h, kept",
    [
        ([[-0.0, 1.0], [-1.0, 1.0]], [0.0, 0.5], 0.25, 3),  # the backward poll clips to -0.0, which equals 0.0
        ([[0.0, 1.0], [-1.0, 1.0]], [-0.0, -0.0], 0.25, 3),
        ([[0.0, 1.0], [-1.0, -0.0]], [1.0, 0.0], 0.5, 2),
        ([[0.0, 0.0], [-1.0, 1.0]], [0.0, 0.3], 0.1, 2),  # a one-point side: both of its polls are the centre
        (None, [1e20, 0.5], 1.0, 2),  # a step lost to rounding leaves the centre
        (None, [0.3, -0.7], 0.5, 4),
    ],
)
def test_poll_points_leave_out_a_poll_equal_to_the_centre(box, xc, h, kept):
    base = pbopt.get_problem("synthetic2d")[0]
    problem, xc = dataclasses.replace(base, x_box=box), np.array(xc)
    got, want = scholtes._poll_points(problem, xc, h), _poll_reference(problem, xc, h)
    assert [xp.tobytes() for xp in got] == [xp.tobytes() for xp in want]
    assert len(got) == kept


def _tie(problem, t, cfg, h):
    """(0, -h) and (0, h) give the same penalised value, bit for bit."""
    lo, hi = pbopt.evaluate_psi_t_batch(problem, np.array([[0.0, -h], [0.0, h]]), t, cfg)
    assert lo.status == hi.status == "solved" and lo.value == hi.value == -(h**2)


def test_tied_polls_go_to_the_lexicographically_smallest_point(light_cfg):
    # the first round from (0, 0) at mesh 0.5: (0, -0.5) and (0, 0.5) tie and
    # beat (+-0.5, 0); the search moves to (0, -0.5) and walks to x2 = -1
    problem = make_mirror_toy()
    _tie(problem, 0.1, light_cfg, 0.5)
    res = minimize_psi_t(problem, 0.1, [0.0, 0.0], OuterConfig(inner=light_cfg, mesh_tol=1e-3))
    assert res.x.tolist() == [0.0, -1.0] and res.value == -1.0


def test_a_tied_confirming_round_hands_over_from_the_lexicographically_smallest_poll(monkeypatch, light_cfg):
    # BFGS from (0.3, 0) ends at x1 = 0 with x2 = 0 (no gradient along x2);
    # the confirming round's polls (0, -h) and (0, h) tie and improve, and
    # the pattern search takes the level from (0, -h) to x2 = -1
    problem = make_mirror_toy()
    levels = _levels(monkeypatch)
    params = RelaxationParams(0.5, 0.5, 0.4, outer=OuterConfig(inner=light_cfg, mesh_tol=1e-3))
    trace = scholtes_solve(problem, params, [0.3, 0.0])
    confirming = scholtes._first_mesh(problem, params.outer)
    while confirming >= 2.0 * params.outer.mesh_tol:
        confirming *= 0.5
    [(t, _, step, ends, start)] = levels
    assert [end.tolist() for end in ends] == [[0.0, 0.0]]
    _tie(problem, t, light_cfg, confirming)
    assert start.tolist() == [0.0, -confirming]
    assert step.x.tolist() == trace.final().x.tolist() == [0.0, -1.0]


def test_schedule_is_exactly_geometric(example2, light_cfg):
    problem, _ = example2
    params = RelaxationParams(t0=1.0, rho=0.5, t_min=1e-2, x_tol=-1.0, outer=_outer(light_cfg))
    trace = scholtes_solve(problem, params, [0.5])
    ts = [rec.t for rec in trace.records]
    assert ts == [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625]
    assert trace.terminal == "t_min_reached"
    ks = [rec.k for rec in trace.records]
    assert ks == sorted(ks)
    assert all(t2 < t1 for t1, t2 in zip(ts, ts[1:]))


def test_homotopy_example2_reaches_optimum(example2, light_cfg):
    problem, oracle = example2
    params = RelaxationParams(t0=1.0, rho=0.5, t_min=1e-4, outer=_outer(light_cfg))
    trace = scholtes_solve(problem, params, [0.5])
    final = trace.final()
    assert abs(final.x[0] - oracle.known_optimum[0][0]) <= 1e-3
    assert abs(final.psi - oracle.known_optimum[1]) <= 1e-3
    assert trace.terminal in ("x_converged", "t_min_reached")


def test_homotopy_example1_tracks_t(example1, light_cfg):
    problem, oracle = example1
    params = RelaxationParams(t0=1.0, rho=0.5, t_min=1e-4, outer=_outer(light_cfg))
    trace = scholtes_solve(problem, params, [0.5])
    assert abs(trace.final().x[0] - 1.0) <= 1e-3
    for rec in trace.records:
        if rec.t <= rec.x[0]:
            assert abs(rec.psi - rec.t) <= 1e-3


@pytest.mark.parametrize("x0", [0.02, 0.05, 0.1, 0.15, 0.2, 0.25])
def test_homotopy_example1_leaves_the_flat_levels(example1, light_cfg, x0):
    # psi_t is flat near x0 at t = 1 and 0.5: every poll ties the centre, which is no stall
    problem, _ = example1
    params = RelaxationParams(t0=1.0, rho=0.5, t_min=1e-4, outer=_outer(light_cfg))
    trace = scholtes_solve(problem, params, [x0])
    assert abs(trace.final().x[0] - 1.0) <= 1e-3


def test_minimize_reports_a_flat_level(example1, light_cfg):
    problem, _ = example1
    flat = minimize_psi_t(problem, 1.0, [0.1], _outer(light_cfg))
    assert flat.flat and flat.x[0] == 0.1 and flat.value == pytest.approx(1.0, abs=1e-6)
    moved = minimize_psi_t(problem, 0.1, [0.5], _outer(light_cfg))
    assert not moved.flat and moved.x[0] == pytest.approx(1.0, abs=1e-3)


def test_psi_dominates_exact_value_along_run(example1, example2, light_cfg):
    for problem, oracle in (example1, example2):
        params = RelaxationParams(t0=0.5, rho=0.5, t_min=5e-3, outer=_outer(light_cfg))
        trace = scholtes_solve(problem, params, [0.5])
        for rec in trace.records:
            assert rec.psi >= oracle.psi_p(rec.x[0]) - 2 * EPS_LVL_DEFAULT


def test_psi_nonincreasing_along_run(example1, example2, light_cfg):
    for problem, _ in (example1, example2):
        params = RelaxationParams(t0=0.5, rho=0.5, t_min=5e-3, outer=_outer(light_cfg))
        trace = scholtes_solve(problem, params, [0.5])
        psis = [rec.psi for rec in trace.records]
        assert all(b <= a + 1e-9 for a, b in zip(psis, psis[1:]))


def test_inner_infeasibility_terminates_with_failure(light_cfg):
    toy = make_empty_lower_toy()
    params = RelaxationParams(t0=0.5, rho=0.5, t_min=1e-3, outer=_outer(light_cfg))
    trace = scholtes_solve(toy, params, [0.5])
    assert trace.terminal.startswith("failure")
    assert trace.records == []


def test_x0_projected_into_box(example2, light_cfg):
    problem, _ = example2
    params = RelaxationParams(t0=0.5, rho=0.5, t_min=0.2, outer=_outer(light_cfg))
    trace = scholtes_solve(problem, params, [7.0])
    assert all(-1.0 <= rec.x[0] <= 1.0 for rec in trace.records)


@pytest.mark.parametrize("x, error", [([0.5], DimensionError), ([0.5, 0.5, 0.5], DimensionError), ([np.nan, 0.5], ValueError)], ids=["short", "long", "nan"])
def test_leader_point_of_wrong_shape_or_nonfinite_is_refused(synthetic, light_cfg, x, error):
    # a one-entry point used to be broadcast to [0.5, 0.5] by the box projection
    problem, _ = synthetic
    with pytest.raises(error, match="x_init"):
        minimize_psi_t(problem, 0.1, x, _outer(light_cfg))
    with pytest.raises(error, match="x0"):
        scholtes_solve(problem, RelaxationParams(outer=_outer(light_cfg)), x)


def test_params_validation():
    with pytest.raises(ValueError):
        RelaxationParams(t0=1.0, rho=1.5)
    with pytest.raises(ValueError):
        RelaxationParams(t0=1e-8, t_min=1e-6)


@pytest.mark.parametrize("bad", ["x", 0], ids=["str", "zero"])
@pytest.mark.parametrize(
    "entry,cls",
    [
        (lambda p, cfg: pbopt.evaluate_psi_t(p, [0.4, -0.2], 0.1, cfg), "InnerConfig"),
        (lambda p, cfg: pbopt.evaluate_psi_t_batch(p, [[0.4, -0.2]], 0.1, cfg), "InnerConfig"),
        (lambda p, cfg: maxmin.psi_t_gradient(p, [0.4, -0.2], 0.1, maxmin.SampledSet(np.zeros((1, 4))), cfg), "InnerConfig"),
        (lambda p, cfg: minimize_psi_t(p, 0.1, [0.4, -0.2], cfg), "OuterConfig"),
        (lambda p, cfg: scholtes_solve(p, cfg, [0.4, -0.2]), "RelaxationParams"),
    ],
    ids=["evaluate_psi_t", "evaluate_psi_t_batch", "psi_t_gradient", "minimize_psi_t", "scholtes_solve"],
)
def test_entry_points_refuse_a_config_of_the_wrong_type(synthetic, entry, cls, bad):
    # a string used to fail with AttributeError deep inside, and 0 was
    # quietly taken as the default config
    with pytest.raises(ValueError, match=f"must be None or of type {cls}"):
        entry(synthetic[0], bad)


def test_trace_records_final_mesh_diagnostic(example2, light_cfg):
    problem, _ = example2
    params = RelaxationParams(t0=0.5, rho=0.5, t_min=0.2, outer=_outer(light_cfg))
    trace = scholtes_solve(problem, params, [0.0])
    for rec in trace.records:
        assert rec.final_mesh < _outer(light_cfg).mesh_tol
        assert rec.inner_status == "solved"


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_rounds", 0),
        ("mesh_init_frac", 0.0),
        ("mesh_tol", -1e-5),
        ("mesh_tol", float("nan")),
        ("infeas_penalty", float("inf")),
        ("decrease_tol", -1e-10),
        ("decrease_tol", float("inf")),
        ("inner", None),
        # a TypeError that did not name the field, and an accepted bool
        ("mesh_tol", "1e-5"),
        ("mesh_tol", True),
        # an int too large for a float raised OverflowError
        pytest.param("mesh_tol", 10**400, id="mesh_tol-huge_int"),
    ],
)
def test_outer_config_validation(field, value):
    # only mesh_tol and inner are left to configure; the other four are module
    # constants, and passing one is refused as an unknown keyword.  A missing
    # inner config used to construct: minimize_psi_t then fell back on
    # InnerConfig() and scholtes_solve raised TypeError from replace()
    with pytest.raises(ValueError if field in ("mesh_tol", "inner") else TypeError, match=field):
        OuterConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_outer_iters", 0),
        ("max_outer_iters", -1),
        ("x_tol", float("nan")),
        ("x_tol", float("inf")),
        # these used to construct and fail mid-run: an infinite t0 in the first
        # inner solve, a fractional cap with a bare TypeError from range(), a
        # missing outer config with an AttributeError
        ("t0", float("inf")),
        ("max_outer_iters", 2.5),
        ("outer", None),
        # a TypeError that did not name the field, and accepted bools
        ("rho", "0.5"),
        ("t0", True),
        ("max_outer_iters", True),
        ("x_tol", "1e-9"),
        # an int too large for a float raised OverflowError
        pytest.param("t0", 10**400, id="t0-huge_int"),
        pytest.param("x_tol", 10**400, id="x_tol-huge_int"),
    ],
)
def test_relaxation_params_count_validation(field, value):
    with pytest.raises(ValueError, match=field):
        RelaxationParams(**{field: value})


def test_relaxation_params_refuse_a_bool_t_min():
    # t0 = 2.0 > True > 0, so the schedule check alone accepted it
    with pytest.raises(ValueError, match="t_min"):
        RelaxationParams(t_min=True, t0=2.0)


def test_negative_x_tol_switches_the_stall_stop_off():
    # the schedule test relies on it to run every level
    assert RelaxationParams(x_tol=-1.0).x_tol == -1.0


def test_warm_starts_are_capped_at_starts(monkeypatch, example2, light_cfg):
    """Each level gets at most `starts` points of the last cloud, its first and last among them."""
    problem, _ = example2
    real = scholtes.minimize_psi_t

    def run():
        levels = []

        def spy(problem, t, x, cfg):
            step = real(problem, t, x, cfg)
            levels.append((np.array(cfg.inner.warm_starts), step.inner.argmax.points))
            return step

        monkeypatch.setattr(scholtes, "minimize_psi_t", spy)
        params = RelaxationParams(t0=1.0, rho=0.5, t_min=0.1, x_tol=-1.0, outer=_outer(light_cfg))
        scholtes_solve(problem, params, [0.5])
        return levels

    levels = run()
    assert len(levels[0][0]) == 0
    assert any(len(cloud) > light_cfg.starts for _, cloud in levels[:-1])
    for (_, cloud), (warm, _) in zip(levels, levels[1:]):
        assert len(warm) == min(len(cloud), light_cfg.starts)
        np.testing.assert_array_equal(warm[0], cloud[0])
        np.testing.assert_array_equal(warm[-1], cloud[-1])
        assert all((cloud == w).all(axis=1).any() for w in warm)
    for (warm, _), (again, _) in zip(levels, run(), strict=True):
        np.testing.assert_array_equal(warm, again)


def assert_same_trace(got, want):
    """Records, terminal, inner_calls and unread_evals equal bit for bit."""
    assert (got.terminal, got.inner_calls, got.unread_evals) == (want.terminal, want.inner_calls, want.unread_evals)
    assert len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        assert (a.k, a.inner_status, a.outer_evals) == (b.k, b.inner_status, b.outer_evals)
        assert np.array([a.t, a.psi, a.final_mesh]).tobytes() == np.array([b.t, b.psi, b.final_mesh]).tobytes()
        assert a.x.tobytes() == b.x.tobytes()
        assert a.argmax.points.shape == b.argmax.points.shape
        assert a.argmax.points.tobytes() == b.argmax.points.tobytes()
        assert a.argmax.meta == b.argmax.meta


def test_a_second_run_reuses_the_solves_of_a_first_run_it_merges_with(empty_memo, monkeypatch, light_cfg):
    """Two example2 runs from different x0 both end level 0 at x = -1, so the
    second run's levels 1 and 2 solve no fresh row, and its trace is the one
    an empty memo gives, bit for bit.  Two synthetic2d runs whose level-0
    minimisers differ in their last bits share no later centre: the second
    run solves fresh rows at every level, and, its BFGS steps and confirming
    polls starting from another point, takes no row from the first."""
    fresh_ts, solve_batch = [], maxmin._solve_batch

    def spy(problem, X, t, *rest):
        fresh_ts.append(t)
        return solve_batch(problem, X, t, *rest)

    monkeypatch.setattr(maxmin, "_solve_batch", spy)

    def two_runs(name, schedule, x0, x1):
        problem = pbopt.get_problem(name)[0]
        params = RelaxationParams(*schedule, outer=_outer(light_cfg))
        memo = empty_memo()
        first = scholtes_solve(problem, params, x0)
        first_rows = set(memo.rows)
        fresh_ts.clear()
        second = scholtes_solve(problem, params, x1)
        fresh = set(fresh_ts)
        alone = empty_memo()
        assert_same_trace(second, scholtes_solve(problem, params, x1))
        return first, second, fresh, first_rows & set(alone.rows)

    first, second, fresh, _ = two_runs("example2", (1.0, 0.5, 0.25), [0.5], [0.9])
    assert [rec.t for rec in second.records] == [1.0, 0.5, 0.25]
    assert first.records[0].x == second.records[0].x == -1.0
    assert fresh == {1.0}

    first, second, fresh, shared = two_runs("synthetic2d", (0.5, 0.5, 0.25), [0.0, 0.0], [-0.8, 0.8])
    assert [rec.t for rec in second.records] == [0.5, 0.25]
    assert first.records[0].x.tobytes() != second.records[0].x.tobytes()
    assert fresh == {0.5, 0.25}
    assert shared == set()


def _levels(monkeypatch) -> list:
    """Record (t, cfg, result, BFGS end points, pattern search start or None)
    of every n >= 2 level solve of scholtes_solve."""
    levels, solve, bfgs, search = [], scholtes._gradient_level, scholtes._bfgs, scholtes._pattern_search
    ends, starts = [], []

    def spy(problem, t, x, cfg, hess):
        ends.clear()
        starts.clear()
        step, hess = solve(problem, t, x, cfg, hess)
        assert len(starts) <= 1
        levels.append((t, cfg, step, list(ends), starts[0] if starts else None))
        return step, hess

    def bfgs_spy(problem, cfg, level, x, grad, hess):
        out = bfgs(problem, cfg, level, x, grad, hess)
        ends.append(out[0])
        return out

    def search_spy(problem, x, cfg, level):
        starts.append(x)
        return search(problem, x, cfg, level)

    monkeypatch.setattr(scholtes, "_gradient_level", spy)
    monkeypatch.setattr(scholtes, "_bfgs", bfgs_spy)
    monkeypatch.setattr(scholtes, "_pattern_search", search_spy)
    return levels


@pytest.mark.parametrize(
    "name,x0,schedule,mesh_tol,handed",
    [
        ("synthetic2d", [0.4, -0.2], (0.5, 0.5, 0.25), 1e-4, []),
        ("synthetic2d", [-0.9, 0.7], (1.0, 0.5, 1e-3), 1e-4, []),
        ("synthetic2d", [1.0, 1.0], (1.0, 0.5, 1e-2), 1e-4, []),
        ("linear3d", [0.3, -0.5, 0.8], (0.2, 0.5, 0.05), 1e-4, []),
        # the default schedule: at t = 2**-17 (7.6e-6) BFGS stalls after
        # moving, the confirming round improves and the pattern search ends
        # the level
        ("synthetic2d", [0.4, -0.2], (1.0, 0.5, 1e-6), 1e-5, [2.0**-17]),
    ],
)
def test_every_level_end_survives_a_poll_round_at_its_final_mesh(monkeypatch, light_cfg, name, x0, schedule, mesh_tol, handed):
    """The pattern search's guarantee: no poll at twice the final mesh (the
    last mesh polled, which is >= mesh_tol) improves the end point by more
    than DECREASE_TOL, whether BFGS's confirming round or the pattern search
    ended the level.  BFGS runs at most once a level, and a level whose
    confirming round improves (at the levels ``handed``) is the pattern
    search from the improving poll at its own first mesh, bit for bit."""
    if name == "linear3d":
        problem = make_linear_follower(*biactive_family_data(3, np.random.default_rng(3), n=3), name=name)
    else:
        problem = pbopt.get_problem(name)[0]
    levels = _levels(monkeypatch)
    params = RelaxationParams(*schedule, outer=OuterConfig(inner=light_cfg, mesh_tol=mesh_tol))
    trace = scholtes_solve(problem, params, x0)
    assert len(levels) == len(trace.records) >= 2
    confirming = scholtes._first_mesh(problem, params.outer)
    while confirming >= 2.0 * mesh_tol:
        confirming *= 0.5
    from_polls = []
    for (t, cfg, step, ends, start), rec in zip(levels, trace.records):
        assert len(ends) <= 1
        assert step.x.tobytes() == rec.x.tobytes() and rec.final_mesh < cfg.mesh_tol <= 2 * rec.final_mesh
        polls = scholtes._poll_points(problem, step.x, 2 * step.final_mesh)
        assert polls
        for xp, res in zip(polls, pbopt.evaluate_psi_t_batch(problem, np.array(polls), t, cfg.inner)):
            value = res.value + scholtes._leader_penalty(problem, xp) if res.status == "solved" else np.inf
            assert value >= step.value - scholtes.DECREASE_TOL
        if ends and start is not None and any(np.array_equal(start, xp) for xp in scholtes._poll_points(problem, ends[0], confirming)):
            from_polls.append(t)
            want = minimize_psi_t(problem, t, start, cfg)
            assert step.x.tobytes() == want.x.tobytes()
            assert np.array(step.value).tobytes() == np.array(want.value).tobytes()
    assert from_polls == handed


def test_a_refused_gradient_leaves_the_pattern_search_trace(monkeypatch, light_cfg):
    """With every gradient refused, each synthetic2d level is the pattern
    search from its start: the same records, bit for bit, and the same
    unread rows, plus the start's own call per level."""
    problem = pbopt.get_problem("synthetic2d")[0]
    params = RelaxationParams(1.0, 0.5, 0.05, outer=_outer(light_cfg))
    monkeypatch.setattr(scholtes, "psi_t_gradient", lambda *args: maxmin.PsiGradient(None, "refused"))
    got = scholtes_solve(problem, params, [0.4, -0.2])
    monkeypatch.setattr(
        scholtes, "_gradient_level", lambda problem, t, x, cfg, hess: (scholtes.minimize_psi_t(problem, t, x, cfg), hess)
    )
    want = scholtes_solve(problem, params, [0.4, -0.2])
    assert len(got.records) == 5
    got.inner_calls -= len(got.records)
    assert_same_trace(got, want)
