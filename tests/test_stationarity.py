import copy
import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

import pbopt
from pbopt import TriplePoint, kkt, stationarity
from pbopt.kkt import InfeasiblePointError, check_upper_regularity
from pbopt.stationarity import (
    Multipliers,
    PatternCapError,
    RelaxedMultipliers,
    check_cq1,
    check_qualification_Am,
    check_relaxed_stationarity,
    check_stationarity,
    recover_c_multipliers,
    recover_relaxed_multipliers,
)

from toys import (
    biactive_family_data,
    fd_copy,
    make_biactive_toy,
    make_duplicated_g_toy,
    make_interior_toy,
    make_linear_follower,
    make_q0_toy,
)

EX1_PT = TriplePoint([0.5], [0.0], [0.5, 0.0])
EX2_PT = TriplePoint([-1.0], [1.0], [0.0, 1.0])


def test_recover_example1_unique_multipliers(example1):
    problem, _ = example1
    m = recover_c_multipliers(problem, EX1_PT, kind="C")
    assert m is not None
    np.testing.assert_allclose(m.alpha, [0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(m.beta, [0.0], atol=1e-9)
    np.testing.assert_allclose(m.gamma, [1.0, 0.0], atol=1e-9)


def test_recover_example2_unique_multipliers(example2):
    problem, _ = example2
    m = recover_c_multipliers(problem, EX2_PT, kind="C")
    assert m is not None
    np.testing.assert_allclose(m.alpha, [1.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(m.beta, [0.0], atol=1e-9)
    np.testing.assert_allclose(m.gamma, [0.0, -1.0], atol=1e-9)


def test_round_trip_fixtures(example1, example2, tiny_cfg):
    for (problem, _), pt in ((example1, EX1_PT), (example2, EX2_PT)):
        for kind in ("C", "M", "S"):
            m = recover_c_multipliers(problem, pt, kind=kind)
            assert m is not None  # biactive set empty: kinds coincide
            rep = check_stationarity(problem, pt, m, kind=kind, tol=1e-8, inner_cfg=tiny_cfg)
            assert rep.verdict, rep.rows


def test_wrong_gamma_flags_eta_row(example1, tiny_cfg):
    problem, _ = example1
    bad = Multipliers(alpha=np.zeros(2), beta=np.zeros(1), gamma=np.array([1.0, 0.5]))
    rep = check_stationarity(problem, EX1_PT, bad, kind="C", inner_cfg=tiny_cfg)
    assert not rep.verdict
    assert rep.rows["eta_gamma"] == pytest.approx(0.5)


# example1 at the top of its leader box, where G_2 = x - 1 is active
EX1_TOP = TriplePoint([1.0], [0.0], [1.0, 0.0])


@pytest.mark.parametrize("block", ["alpha", "beta", "gamma"])
def test_nonfinite_or_misshaped_multipliers_are_refused(example1, block):
    # a NaN used to pass as stationary: max over the rows skipped it
    problem, _ = example1
    mults = recover_c_multipliers(problem, EX1_TOP)
    assert check_stationarity(problem, EX1_TOP, mults, graph_check=False).verdict
    size = len(getattr(mults, block))
    for i in range(size):
        bad = getattr(mults, block).copy()
        bad[i] = np.nan
        for kind in ("C", "M", "S"):
            with pytest.raises(ValueError, match=f"multiplier block {block} must be a finite vector of {size} entries"):
                check_stationarity(problem, EX1_TOP, dataclasses.replace(mults, **{block: bad}), kind=kind, graph_check=False)
    longer = dataclasses.replace(mults, **{block: np.zeros(size + 1)})
    with pytest.raises(ValueError, match=f"multiplier block {block} must be a finite vector of {size} entries"):
        check_stationarity(problem, EX1_TOP, longer, graph_check=False)


@pytest.mark.parametrize("block", ["alpha", "beta", "gamma", "mu", "delta"])
def test_relaxed_check_refuses_nonfinite_or_misshaped_multipliers(example1, block):
    problem, _ = example1
    pt = TriplePoint([1.0], [0.1], [1.0, 0.0])
    rm = recover_relaxed_multipliers(problem, 0.1, pt)
    size = len(getattr(rm, block))
    for bad in (np.full(size, np.inf), np.zeros(size - 1)):
        with pytest.raises(ValueError, match=f"multiplier block {block} must be a finite vector of {size} entries"):
            check_relaxed_stationarity(problem, 0.1, pt, dataclasses.replace(rm, **{block: bad}), graph_check=False)


@pytest.mark.parametrize("rows", [{"a": float("nan"), "b": 0.0}, {"a": 0.0, "b": float("nan")}])
def test_a_nan_row_fails_the_verdict(rows):
    rep = stationarity._report("C", rows, None, None, None, 1e-8)
    assert np.isnan(rep.residual_inf) and rep.verdict is False


def test_recover_infeasible_point_raises(example1):
    problem, _ = example1
    with pytest.raises(InfeasiblePointError):
        recover_c_multipliers(problem, TriplePoint([0.5], [0.5], [1.0, 1.0]), kind="C")


def test_pattern_cap_refusal():
    toy = make_biactive_toy()
    with pytest.raises(PatternCapError):
        recover_c_multipliers(toy, TriplePoint([0.0], [0.0], [0.0]), kind="C", pattern_cap=0)


@pytest.mark.parametrize("cap", [-1, 2.5])
def test_pattern_cap_that_is_not_a_nonnegative_integer_is_refused(example1, cap):
    # -1 used to come back as PatternCapError, the refusal of a point, and 2.5 was accepted
    with pytest.raises(ValueError, match="pattern_cap must be a nonnegative integer"):
        recover_c_multipliers(example1[0], EX1_PT, kind="C", pattern_cap=cap)


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0])
def test_certifier_refuses_a_tol_it_cannot_honour(example1, tol):
    # tol = inf passed a residual of 7; nan and -1 failed every point
    problem = example1[0]
    mults = Multipliers(alpha=np.zeros(2), beta=np.array([7.0]), gamma=np.array([3.0, -2.0]))
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        check_stationarity(problem, EX1_PT, mults, kind="C", tol=tol, graph_check=False)
    rm = RelaxedMultipliers(np.zeros(2), np.array([7.0]), np.zeros(2), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        check_relaxed_stationarity(problem, 0.1, EX1_PT, rm, tol=tol, graph_check=False)
    assert check_stationarity(problem, EX1_PT, mults, kind="C", graph_check=False).residual_inf == 7.0


def test_biactive_toy_separates_kinds(tiny_cfg):
    # gamma is forced to +1 while the biactive gradient term vanishes: the
    # C- and M-systems are satisfiable, the S-system is not.
    toy = make_biactive_toy()
    pt = TriplePoint([0.0], [0.0], [0.0])
    mc = recover_c_multipliers(toy, pt, kind="C")
    mm = recover_c_multipliers(toy, pt, kind="M")
    ms = recover_c_multipliers(toy, pt, kind="S")
    assert mc is not None and mm is not None
    assert ms is None
    assert mc.gamma[0] == pytest.approx(1.0, abs=1e-9)
    for kind, mults in (("C", mc), ("M", mm)):
        rep = check_stationarity(toy, pt, mults, kind=kind, inner_cfg=tiny_cfg)
        assert rep.verdict


def test_synthetic_origin_is_c_but_not_m(synthetic, tiny_cfg):
    problem, _ = synthetic
    pt = TriplePoint([0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    mc = recover_c_multipliers(problem, pt, kind="C")
    assert mc is not None
    assert recover_c_multipliers(problem, pt, kind="M") is None
    assert recover_c_multipliers(problem, pt, kind="S") is None
    rep = check_stationarity(problem, pt, mc, kind="C", inner_cfg=tiny_cfg)
    assert rep.verdict
    # hand-solvable: beta = (-0.2, -0.1), gamma = (0.8, 0.9)
    np.testing.assert_allclose(mc.beta, [-0.2, -0.1], atol=1e-8)
    np.testing.assert_allclose(mc.gamma, [0.8, 0.9], atol=1e-8)


def test_an_unsolved_reference_fails_the_graph_row(monkeypatch, synthetic, tiny_cfg):
    """A graph row whose reference solve is not solved was never verified."""
    problem, _ = synthetic
    pt = TriplePoint([0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    mc = recover_c_multipliers(problem, pt, kind="C")
    solve = stationarity.evaluate_psi_t

    def unsolved(*args):
        return dataclasses.replace(solve(*args), value=np.nan, status="budget_exhausted")

    monkeypatch.setattr(stationarity, "evaluate_psi_t", unsolved)
    rep = check_stationarity(problem, pt, mc, kind="C", inner_cfg=tiny_cfg)
    assert np.isnan(rep.rows["graph_value"])
    assert not rep.verdict


def _implication_corpus(example1, example2, synthetic):
    corpus = []
    p1, o1 = example1
    for x in np.linspace(0.05, 1.0, 15):
        z = o1.s_p_t(x, 0.0).points[0]
        corpus.append((p1, TriplePoint([x], z[:1], z[1:])))
    p2, _ = example2
    corpus.append((p2, EX2_PT))
    corpus.append((p1, EX1_PT))
    toy = make_biactive_toy()
    corpus.append((toy, TriplePoint([0.0], [0.0], [0.0])))
    corpus.append((make_q0_toy(), TriplePoint([-1.0], [-1.0], [])))
    p3, _ = synthetic
    corpus.append((p3, TriplePoint([0.0, 0.0], [0.0, 0.0], [0.0, 0.0])))
    corpus.append((p3, TriplePoint([0.5, 0.5], [0.0, 0.0], [0.5, 1.0])))
    return corpus


def test_s_implies_m_implies_c_on_corpus(example1, example2, synthetic, tiny_cfg):
    corpus = _implication_corpus(example1, example2, synthetic)
    assert len(corpus) >= 20
    for problem, pt in corpus:
        feas = {}
        for kind in ("S", "M", "C"):
            mults = recover_c_multipliers(problem, pt, kind=kind)
            feas[kind] = mults is not None
            if mults is None:
                continue
            # multipliers recovered for a stronger kind pass the weaker checks
            weaker = {"S": ("S", "M", "C"), "M": ("M", "C"), "C": ("C",)}[kind]
            for w in weaker:
                rep = check_stationarity(
                    problem, pt, mults, kind=w, tol=1e-8, graph_check=False
                )
                assert rep.verdict, (problem.name, kind, w, rep.rows)
        assert (not feas["S"] or feas["M"]) and (not feas["M"] or feas["C"])


# (B, c, d, e) of two drawn duplicate-row families (see toys.biactive_family_data):
# the first feasible C pattern's least-norm multipliers had gamma ~ 1e3 on the
# duplicate pair and broke their own theta condition by 2.4e-8 and 3.0e-7.
DUPLICATE_FAMILIES = {
    "biactive2_dup": (
        [[0.030115934458471574], [-0.47342322815068716]],
        [-2.1555677078314606, -0.9708322507176723],
        [-0.27990681122277455],
        [-0.00011095408477677055],
    ),
    "biactive5_dup": (
        [[-1.1465891240628079], [-0.7010953406797424], [-0.6345872912577584], [-0.5096210726408573], [-2.44550475878096]],
        [-1.9920809657765415, -0.8571732355997004, -1.4131604987192938, -1.8481036367584294, -2.3970242716305705],
        [-5.1860361284831376],
        [-0.0003933234295340694],
    ),
}


@pytest.mark.parametrize("name", DUPLICATE_FAMILIES)
def test_recovered_multipliers_pass_their_own_checks(name):
    B, c, d, e = DUPLICATE_FAMILIES[name]
    k = len(c)
    Jgy, Jgx = np.zeros((k + 2, k)), np.zeros((k + 2, 1))
    Jgy[:k] = -np.eye(k)
    Jgy[k:, k - 1] = -1.0
    Jgx[k + 1] = e
    problem = make_linear_follower(B, c, d, Jgy, Jgx, name=name)
    zero = TriplePoint([0.0], np.zeros(k), np.zeros(k + 2))
    for kind, weaker in {"S": ("S", "M", "C"), "M": ("M", "C"), "C": ("C",)}.items():
        mults = recover_c_multipliers(problem, zero, kind=kind)
        assert mults is not None
        for w in weaker:
            rep = check_stationarity(problem, zero, mults, kind=w, tol=kkt.FEAS_TOL_DEFAULT, graph_check=False)
            assert rep.verdict, (kind, w, rep.rows)


def test_fd_copies_give_the_analytic_verdicts_on_corpus(example1, example2, synthetic):
    # a problem without Hessians is differenced; the certifier must reach the same answers
    for problem, pt in _implication_corpus(example1, example2, synthetic):
        fd = fd_copy(problem)
        for kind in ("S", "M", "C"):
            want, got = recover_c_multipliers(problem, pt, kind=kind), recover_c_multipliers(fd, pt, kind=kind)
            assert (got is None) == (want is None), (problem.name, pt, kind)
            if want is not None:
                for name in ("alpha", "beta", "gamma"):
                    np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-9)
            qa, qf = check_qualification_Am(problem, pt, kind=kind), check_qualification_Am(fd, pt, kind=kind)
            assert (qf.a1, qf.a2, qf.patterns_checked) == (qa.a1, qa.a2, qa.patterns_checked), (problem.name, pt, kind)


def test_recovered_multipliers_scale_with_objective(example2):
    base, _ = example2
    scaled = pbopt.BilevelProblem(
        dims=base.dims,
        eval_F=lambda x, y: 3.0 * base.eval_F(x, y),
        eval_f=base.eval_f,
        eval_G=base.eval_G,
        eval_g=base.eval_g,
        grad_F=lambda x, y: tuple(3.0 * g for g in base.grad_F(x, y)),
        grad_f=base.grad_f,
        jac_G=base.jac_G,
        jac_g=base.jac_g,
        hess_f_yx=base.hess_f_yx,
        hess_f_yy=base.hess_f_yy,
        hess_g_yx=base.hess_g_yx,
        hess_g_yy=base.hess_g_yy,
    )
    m1 = recover_c_multipliers(base, EX2_PT, kind="C")
    m3 = recover_c_multipliers(scaled, EX2_PT, kind="C")
    assert (m1 is None) == (m3 is None)
    np.testing.assert_allclose(3.0 * m1.gamma, m3.gamma, atol=1e-8)
    np.testing.assert_allclose(3.0 * m1.alpha, m3.alpha, atol=1e-8)


def test_relaxed_recovery_at_relaxed_minimiser(example1, tiny_cfg):
    problem, _ = example1
    pt = TriplePoint([1.0], [0.1], [1.0, 0.0])
    rm = recover_relaxed_multipliers(problem, 0.1, pt)
    assert rm is not None
    np.testing.assert_allclose(rm.alpha, [0.0, 0.1], atol=1e-8)
    np.testing.assert_allclose(rm.beta, [0.1], atol=1e-8)
    np.testing.assert_allclose(rm.gamma, [0.0, 0.0], atol=1e-8)
    np.testing.assert_allclose(rm.mu, [0.0, 0.1], atol=1e-8)
    np.testing.assert_allclose(rm.delta, [1.0, 0.0], atol=1e-8)
    rep = check_relaxed_stationarity(problem, 0.1, pt, rm, tol=1e-8, inner_cfg=tiny_cfg)
    assert rep.verdict, rep.rows


def test_reports_hold_no_negative_zero(example1):
    """A row whose largest term is a zero multiplier or slack reads +0.0, not -0.0:
    the C report at EX1_PT (alpha = 0) and the relaxed report at a level-0.1
    point, the two reports `pbopt check` prints in the console smoke test."""
    problem, _ = example1
    c = check_stationarity(problem, EX1_PT, recover_c_multipliers(problem, EX1_PT, kind="C"), kind="C")
    pt = TriplePoint([1.0], [0.1], [1.0, 0.0])
    relaxed = check_relaxed_stationarity(problem, 0.1, pt, recover_relaxed_multipliers(problem, 0.1, pt))
    for rep, zeros in ((c, ["alpha_sign"]), (relaxed, ["alpha_block", "gamma_block", "mu_block", "delta_block"])):
        assert rep.verdict
        assert [rep.rows[name] for name in zeros] == [0.0] * len(zeros)
        assert not np.signbit([rep.residual_inf, *rep.rows.values()]).any(), rep.rows


def test_relaxed_recovery_infeasible_off_minimiser(example1):
    # the inner argmax at x = 0.5 is not a relaxed-stationary leader point
    problem, _ = example1
    rm = recover_relaxed_multipliers(problem, 0.1, TriplePoint([0.5], [0.2], [0.5, 0.0]))
    assert rm is None


def test_relaxed_recovery_interior_zero_gradient(tiny_cfg):
    toy = make_interior_toy()
    pt = TriplePoint([0.0], [0.0], [0.0])
    rm = recover_relaxed_multipliers(toy, 0.2, pt)
    assert rm is not None
    for field in (rm.alpha, rm.beta, rm.gamma, rm.mu, rm.delta):
        np.testing.assert_allclose(field, 0.0, atol=1e-10)
    rep = check_relaxed_stationarity(toy, 0.2, pt, rm, inner_cfg=tiny_cfg)
    assert rep.verdict


def test_recovered_multipliers_are_least_norm(example1):
    problem, _ = example1
    assert recover_c_multipliers(problem, EX1_PT, kind="C").status == "least_norm"
    assert recover_relaxed_multipliers(problem, 0.1, TriplePoint([1.0], [0.1], [1.0, 0.0])).status == "least_norm"


def _nnls_at_limit(*args, **kwargs):
    raise RuntimeError("Maximum number of iterations reached.")


def test_nnls_iteration_limit_is_a_refusal_not_a_verdict(example1, monkeypatch):
    problem, _ = example1
    pt = TriplePoint([0.0], [1.0], [0.0, 0.0])  # the relaxed system at t = 0.1 has no multipliers
    assert recover_relaxed_multipliers(problem, 0.1, pt) is None
    family = make_linear_follower(*biactive_family_data(2, np.random.default_rng(3), duplicate=True))
    zero = TriplePoint(np.zeros(family.dims.n), np.zeros(family.dims.m), np.zeros(family.dims.q))
    assert not check_qualification_Am(family, zero, kind="M").a1  # a ray, found by an LDP
    monkeypatch.setattr(pbopt.simplex, "nnls", _nnls_at_limit)
    with pytest.raises(pbopt.simplex.NnlsLimitError):
        recover_relaxed_multipliers(problem, 0.1, pt)
    with pytest.raises(pbopt.simplex.NnlsLimitError):
        check_qualification_Am(family, zero, kind="M")


def test_certifier_solves_no_lp(example1, example2, monkeypatch):
    # solve_lp and cone_max_linear are the HiGHS reference only; every certifier question is an LDP
    def no_lp(*args, **kwargs):
        raise AssertionError("the certifier called linprog")

    monkeypatch.setattr(pbopt.simplex, "linprog", no_lp)
    p1, p2 = example1[0], example2[0]
    for kind in ("C", "M", "S"):
        recover_c_multipliers(p1, EX1_PT, kind=kind)
        check_qualification_Am(p2, EX2_PT, kind=kind)
    dup = make_linear_follower(*biactive_family_data(2, np.random.default_rng(3), duplicate=True))
    rep = check_qualification_Am(dup, TriplePoint(np.zeros(dup.dims.n), np.zeros(dup.dims.m), np.zeros(dup.dims.q)))
    assert not rep.a1 and not rep.a2 and sorted(rep.certificates) == ["a1", "a2"]
    assert recover_relaxed_multipliers(p1, 0.1, TriplePoint([0.0], [1.0], [0.0, 0.0])) is None
    assert check_cq1(p1, 0.1, TriplePoint([1.0], [0.1], [1.0, 0.0]))
    assert check_upper_regularity(p2, [-1.0])


def _counted(problem, monkeypatch):
    """A copy of problem and the counts of its kkt_residual calls and g evaluations."""
    calls = {"kkt_residual": 0, "eval_g": 0}
    residual = pbopt.kkt.kkt_residual

    def counted_residual(*args, **kwargs):
        calls["kkt_residual"] += 1
        return residual(*args, **kwargs)

    def counted_g(x, y):
        calls["eval_g"] += 1
        return problem.eval_g(x, y)

    for module in (pbopt.kkt, stationarity):
        monkeypatch.setattr(module, "kkt_residual", counted_residual)
    return dataclasses.replace(problem, eval_g=counted_g), calls


EX2_MID = TriplePoint([0.3], [0.0], [0.3, 0.0])  # feasible, not C-stationary


def test_certifier_evaluates_the_follower_system_once(example2, monkeypatch):
    """Calls in a row at one point share one kkt_residual call and one g evaluation."""
    problem, calls = _counted(example2[0], monkeypatch)
    assert recover_c_multipliers(problem, EX2_MID) is None
    assert calls == {"kkt_residual": 1, "eval_g": 1}
    check_stationarity(problem, EX2_MID, Multipliers(np.zeros(2), np.zeros(1), np.zeros(2)), graph_check=False)
    for kind in ("S", "M"):
        recover_c_multipliers(problem, EX2_MID, kind=kind)
        check_qualification_Am(problem, EX2_MID, kind=kind)
    assert calls == {"kkt_residual": 1, "eval_g": 1}


def _reassign_g(problem, pt):
    g = problem.eval_g
    problem.eval_g = lambda x, y: g(x, y)
    return problem, pt, 0.0


@pytest.mark.parametrize(
    "change",
    [
        lambda problem, pt: (problem, TriplePoint(pt.x, pt.y, [0.3, 1e-12]), 0.0),
        lambda problem, pt: (problem, pt, 0.1),
        lambda problem, pt: (dataclasses.replace(problem), pt, 0.0),
        lambda problem, pt: (copy.copy(problem), pt, 0.0),  # another object with the same attribute objects
        _reassign_g,
    ],
    ids=["new_point", "new_t", "replaced_problem", "copied_problem", "reassigned_attribute"],
)
def test_a_new_point_level_or_problem_is_set_up_afresh(example2, monkeypatch, change):
    problem, calls = _counted(example2[0], monkeypatch)
    recover_c_multipliers(problem, EX2_MID)
    problem, pt, t = change(problem, EX2_MID)
    recover_relaxed_multipliers(problem, t, pt)
    recover_relaxed_multipliers(problem, t, pt)
    assert calls == {"kkt_residual": 2, "eval_g": 2}


ORDERS = {"recovery_first": (0, 1), "check_first": (1, 0)}


@pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS.keys())
def test_refusals_do_not_depend_on_the_call_order(example1, order):
    zero = Multipliers(np.zeros(2), np.zeros(1), np.zeros(2))
    # stationarity violated by 1e-7: the recovery refuses, the check answers
    near = TriplePoint([0.5], [0.0], [0.5, 1e-7])
    # complementarity violated by 1: both refuse, each with its own message
    far = TriplePoint([0.5], [0.5], [1.0, 1.0])
    for pt, want in (
        (near, ("point not in the level-0 follower KKT set: 'stationarity' violates by 1.000e-07", 1.0)),
        (
            far,
            (
                "point not in the level-0 follower KKT set: 'compl' violates by 1.000e+00",
                "point infeasible at t=0.0: field 'compl' violates by 1.000e+00 (> eps_act=1.0e-06)",
            ),
        ),
    ):
        problem = dataclasses.replace(example1[0])
        calls = (
            lambda: recover_c_multipliers(problem, pt),
            lambda: check_stationarity(problem, pt, zero, graph_check=False).residual_inf,
        )
        got = [None, None]
        for i in order:
            try:
                got[i] = calls[i]()
            except InfeasiblePointError as err:
                got[i] = str(err)
        assert tuple(got) == want


def _yielding(problem):
    """A copy of problem whose eval_g, eval_G and jac_g hand the interpreter to another thread first."""
    hand_over = lambda f: lambda *args: time.sleep(0) or f(*args)
    return dataclasses.replace(
        problem, eval_g=hand_over(problem.eval_g), eval_G=hand_over(problem.eval_G), jac_g=hand_over(problem.jac_g)
    )


def test_concurrent_callers_get_their_own_points_data(example1, example2, synthetic):
    """Threads certifying different points at once get the answers of serial calls."""
    p1, p2, p3 = (_yielding(problem) for problem, _ in (example1, example2, synthetic))
    cases = [
        (p1, EX1_PT),
        (p2, EX2_PT),
        (p3, TriplePoint([0.0, 0.0], [0.0, 0.0], [0.0, 0.0])),
        (p3, TriplePoint([0.5, 0.5], [0.0, 0.0], [0.5, 1.0])),
    ]

    def answer(problem, pt):
        d = problem.dims
        mults = recover_c_multipliers(problem, pt)
        zero = Multipliers(np.zeros(d.p), np.zeros(d.m), np.zeros(d.q))
        rows = check_stationarity(problem, pt, zero, graph_check=False).rows
        return None if mults is None else mults.gamma.tobytes(), rows

    want = [answer(*case) for case in cases]
    assert len({repr(w) for w in want}) == len(cases)
    got = [[] for _ in cases]

    def certify(i):
        for _ in range(150):
            got[i].append(answer(*cases[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=certify, args=(i,)) for i in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[w] * 150 for w in want]


def test_a_call_made_inside_a_set_up_leaves_both_points_data_intact(example1, example2):
    """A certifier call at another point from inside a set-up, as a concurrent caller makes it, mixes no data."""
    zero = Multipliers(np.zeros(2), np.zeros(1), np.zeros(2))

    def rows(problem, pt):
        return check_stationarity(problem, pt, zero, graph_check=False).rows

    def mults(problem):
        m = recover_c_multipliers(problem, EX1_PT)
        return m.alpha.tobytes(), m.beta.tobytes(), m.gamma.tobytes()

    other = dataclasses.replace(example2[0])
    plain = dataclasses.replace(example1[0])
    want, want_rows, want_other = mults(plain), rows(plain, EX1_PT), rows(other, EX2_PT)
    nested = []

    def nesting(f):
        def call(*args):
            if f not in nested:  # once from the classification (eval_G), once from the derivative blocks (grad_F)
                nested.append(f)
                assert rows(other, EX2_PT) == want_other
            return f(*args)

        return call

    problem = dataclasses.replace(example1[0], eval_G=nesting(example1[0].eval_G), grad_F=nesting(example1[0].grad_F))
    assert mults(problem) == want
    assert len(nested) == 2
    assert rows(other, EX2_PT) == want_other
    assert rows(problem, EX1_PT) == want_rows


def test_set_up_blocks_are_read_only(example1):
    res, _, data = stationarity._setup(dataclasses.replace(example1[0]), EX1_PT, 0.0, None)
    blocks = [getattr(data, f.name) for f in dataclasses.fields(data)]
    blocks += [v for v in vars(res).values() if isinstance(v, np.ndarray)]
    assert len(blocks) == 14
    for block in blocks:
        with pytest.raises(ValueError, match="read-only"):
            block[...] = 0.0


def test_relaxed_precondition_negative_u(example1):
    problem, _ = example1
    with pytest.raises(InfeasiblePointError):
        recover_relaxed_multipliers(problem, 0.1, TriplePoint([0.5], [0.1], [-0.5, 0.0]))


def test_qualification_checks_refuse_what_the_recoveries_refuse(example1):
    # stationarity violated by 1e-7: above kkt.FEAS_TOL_DEFAULT, below kkt.EPS_ACT_DEFAULT;
    # the qualification checks used to answer here (a1 = a2 = True) while no multiplier was recovered
    problem, _ = example1
    pt = TriplePoint([0.5], [0.0], [0.5, 1e-7])
    for certify in (
        lambda: recover_c_multipliers(problem, pt),
        lambda: recover_relaxed_multipliers(problem, 0.0, pt),
        lambda: check_qualification_Am(problem, pt, kind="M"),
        lambda: check_cq1(problem, 0.0, pt),
    ):
        with pytest.raises(InfeasiblePointError, match="'stationarity' violates by 1.000e-07"):
            certify()


def test_relaxed_check_refuses_before_the_inner_solve(example1, monkeypatch):
    # u = (-0.5, 0) lies outside D_t: the refusal must not pay for a graph-value solve
    problem, _ = example1
    calls = []
    solve = stationarity.evaluate_psi_t
    monkeypatch.setattr(stationarity, "evaluate_psi_t", lambda *a, **k: calls.append(1) or solve(*a, **k))
    pt = TriplePoint([0.5], [0.1], [-0.5, 0.0])
    rm = RelaxedMultipliers(np.zeros(2), np.zeros(1), np.zeros(2), np.zeros(2), np.zeros(2))
    with pytest.raises(InfeasiblePointError):
        check_relaxed_stationarity(problem, 0.1, pt, rm)
    assert calls == []


def test_relaxed_check_flags_delta_complementarity(example1, tiny_cfg):
    problem, _ = example1
    pt = TriplePoint([1.0], [0.1], [1.0, 0.0])
    rm = recover_relaxed_multipliers(problem, 0.1, pt)
    bad = RelaxedMultipliers(rm.alpha, rm.beta, rm.gamma, rm.mu, np.array([1.0, 0.7]))
    rep = check_relaxed_stationarity(problem, 0.1, pt, bad, inner_cfg=tiny_cfg)
    assert not rep.verdict
    assert rep.rows["delta_block"] > 1e-8  # delta_2 > 0 while u_2 g_2 + t > 0


def test_qualification_both_examples(example1, example2):
    p1, _ = example1
    p2, _ = example2
    q1 = check_qualification_Am(p1, EX1_PT)
    q2 = check_qualification_Am(p2, EX2_PT)
    assert q1.a1 and q1.a2
    assert q2.a1 and q2.a2


def test_qualification_q0_full_rank():
    toy = make_q0_toy()
    rep = check_qualification_Am(toy, TriplePoint([-1.0], [-1.0], []))
    assert rep.a1 and rep.a2
    assert check_cq1(toy, 0.1, TriplePoint([-1.0], [-1.0], []))


def test_qualification_c_variant_exposed(example1):
    problem, _ = example1
    rep = check_qualification_Am(problem, EX1_PT, kind="C")
    assert rep.kind == "C"
    assert rep.a1 and rep.a2


def test_qualification_invariant_under_g_scaling(example1):
    base, _ = example1
    scale = np.array([2.0, 0.5])
    scaled = pbopt.BilevelProblem(
        dims=base.dims,
        eval_F=base.eval_F,
        eval_f=base.eval_f,
        eval_G=base.eval_G,
        eval_g=lambda x, y: scale * base.eval_g(x, y),
        grad_F=base.grad_F,
        grad_f=base.grad_f,
        jac_G=base.jac_G,
        jac_g=lambda x, y: tuple(scale[:, None] * j for j in base.jac_g(x, y)),
        hess_f_yx=base.hess_f_yx,
        hess_f_yy=base.hess_f_yy,
        hess_g_yx=base.hess_g_yx,
        hess_g_yy=base.hess_g_yy,
    )
    # same geometric point; multipliers rescale inversely to keep membership
    pt_scaled = TriplePoint([0.5], [0.0], [0.5 / 2.0, 0.0])
    rep_base = check_qualification_Am(base, EX1_PT)
    rep_scaled = check_qualification_Am(scaled, pt_scaled)
    assert (rep_base.a1, rep_base.a2) == (rep_scaled.a1, rep_scaled.a2)


def test_cq1_fixtures(example1):
    problem, _ = example1
    assert check_cq1(problem, 0.1, TriplePoint([0.5], [0.2], [0.5, 0.0]))
    assert check_cq1(problem, 0.1, TriplePoint([1.0], [0.1], [1.0, 0.0]))


def test_cq1_fails_with_duplicated_rows():
    toy = make_duplicated_g_toy()
    pt = TriplePoint([-1.0], [0.0], [0.5, 0.5])
    assert not check_cq1(toy, 0.5, pt)


def test_cq1_borderline_warns(example1):
    problem, _ = example1
    # u_2 sits a factor ~3 above eps_act: classification margin is thin
    pt = TriplePoint([0.5], [0.0], [0.5 + 3e-6, 3e-6])
    with pytest.warns(pbopt.BorderlineActivityWarning):
        check_cq1(problem, 0.1, pt)


@pytest.mark.parametrize("kind", ["Q", "m", "relaxed", ""])
def test_unknown_kind_is_refused_up_front(example2, kind):
    # EX2_PT has an empty biactive set, where the kind used to go unread
    problem, _ = example2
    zero = Multipliers(np.zeros(problem.dims.p), np.zeros(problem.dims.m), np.zeros(problem.dims.q))
    with pytest.raises(ValueError, match="unknown stationarity kind"):
        recover_c_multipliers(problem, EX2_PT, kind=kind)
    with pytest.raises(ValueError, match="unknown stationarity kind"):
        check_qualification_Am(problem, EX2_PT, kind=kind)
    with pytest.raises(ValueError, match="unknown stationarity kind"):
        check_stationarity(problem, EX2_PT, zero, kind=kind, graph_check=False)



EX1_RM = (0.1, TriplePoint([1.0], [0.1], [1.0, 0.0]))  # a level-0.1 point with relaxed multipliers
CERTIFIER_CALLS = {
    "classify_indices": lambda p, **kw: kkt.classify_indices(p, EX1_PT, 0.0, **kw),
    "recover_c_multipliers": lambda p, **kw: recover_c_multipliers(p, EX1_PT, **kw),
    "check_stationarity": lambda p, **kw: check_stationarity(
        p, EX1_PT, recover_c_multipliers(p, EX1_PT), graph_check=False, **kw
    ),
    "recover_relaxed_multipliers": lambda p, **kw: recover_relaxed_multipliers(p, *EX1_RM, **kw),
    "check_relaxed_stationarity": lambda p, **kw: check_relaxed_stationarity(
        p, *EX1_RM, recover_relaxed_multipliers(p, *EX1_RM), graph_check=False, **kw
    ),
    "check_qualification_Am": lambda p, **kw: check_qualification_Am(p, EX1_PT, **kw),
    "check_cq1": lambda p, **kw: check_cq1(p, *EX1_RM, **kw),
    "check_upper_regularity": lambda p, **kw: check_upper_regularity(p, [1.0], **kw),
    "check_slater": lambda p, **kw: kkt.check_slater(p, [0.5], **kw),
    "check_gradients_fd": lambda p, **kw: pbopt.check_gradients_fd(p, EX1_PT, **kw),
}


@pytest.mark.parametrize(
    "name, keyword",
    [
        *((name, "eps_act") for name in (
            "classify_indices", "recover_c_multipliers", "check_stationarity", "recover_relaxed_multipliers",
            "check_relaxed_stationarity", "check_qualification_Am", "check_cq1",
        )),
        ("check_upper_regularity", "eps"),
        ("recover_c_multipliers", "tol"),
        ("recover_relaxed_multipliers", "tol"),
        ("check_qualification_Am", "pattern_cap"),
        ("check_slater", "starts"),
        ("check_slater", "seed"),
        ("check_slater", "eps_strict"),
        ("check_gradients_fd", "h"),
    ],
)
def test_removed_certifier_keywords_are_refused(example1, name, keyword):
    # values no caller varied are module constants: kkt.EPS_ACT_DEFAULT,
    # kkt.FEAS_TOL_DEFAULT, stationarity.PATTERN_CAP_DEFAULT, kkt.SLATER_*
    # and problem_model.FD_STEP
    call = CERTIFIER_CALLS[name]
    call(example1[0])
    with pytest.raises(TypeError, match=keyword):
        call(example1[0], **{keyword: 1})
