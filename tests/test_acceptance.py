"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""
import json
import time

import numpy as np
import pytest

import pbopt
from pbopt import (
    GridSpec,
    InnerConfig,
    OuterConfig,
    RelaxationParams,
    TriplePoint,
    brute_force_psi_t,
    check_gradients_fd,
    check_qualification_Am,
    check_stationarity,
    convergence_diagnostic,
    evaluate_psi_t,
    hausdorff,
    recover_c_multipliers,
    sample_relaxed_set,
    scholtes_solve,
)
from pbopt.cli import main as cli_main
from pbopt.maxmin import EPS_LVL_DEFAULT

from test_stationarity import _implication_corpus

T_GRID = (0.5, 0.2, 0.1, 0.05)
SOLVE_CFG = InnerConfig(starts=10, sweeps=3, local_maxiter=80)


def report(num, ok, detail):
    print(f"\n[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_psi_oracle_example1(example1):
    problem, oracle = example1
    start = time.monotonic()
    worst = 0.0
    for t in T_GRID:
        for x in np.arange(0.05, 1.0001, 0.05):
            res = evaluate_psi_t(problem, [x], t, SOLVE_CFG)
            worst = max(worst, abs(res.value - oracle.psi_p_t(x, t)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-3 and elapsed <= 60.0
    report(1, ok, f"relaxed-value match on example1: max err {worst:.2e} (tol 1e-3), {elapsed:.1f}s (cap 60s)")


def test_criterion_02_psi_oracle_example2(example2):
    problem, oracle = example2
    worst = 0.0
    for t in T_GRID:
        for x in np.arange(-1.0, 1.0001, 0.05):
            res = evaluate_psi_t(problem, [x], t, SOLVE_CFG)
            worst = max(worst, abs(res.value - oracle.psi_p_t(x, t)))
    report(2, worst <= 1e-3, f"relaxed-value match on example2: max err {worst:.2e} (tol 1e-3)")


def test_criterion_03_homotopy_example2(example2):
    problem, _ = example2
    params = RelaxationParams(t0=1.0, rho=0.5, t_min=1e-4, outer=OuterConfig(inner=SOLVE_CFG))
    trace = scholtes_solve(problem, params, [0.5])
    final = trace.final()
    ok = abs(final.x[0] + 1.0) <= 1e-3 and abs(final.psi) <= 1e-3
    report(3, ok, f"homotopy on example2: x_final {final.x[0]:.6f} (target -1), psi_final {final.psi:.2e}")


def test_criterion_04_homotopy_example1(example1):
    problem, _ = example1
    params = RelaxationParams(t0=1.0, rho=0.5, t_min=1e-4, outer=OuterConfig(inner=SOLVE_CFG))
    trace = scholtes_solve(problem, params, [0.5])
    final = trace.final()
    ok = abs(final.x[0] - 1.0) <= 1e-3
    worst = 0.0
    for rec in trace.records:
        if rec.t <= rec.x[0]:
            worst = max(worst, abs(rec.psi - rec.t))
    ok = ok and worst <= 1e-3
    report(4, ok, f"homotopy on example1: x_final {final.x[0]:.6f} (target 1), max |psi_k - t_k| {worst:.2e}")


def test_criterion_05_monotonicity_suite(example1, example2, synthetic):
    grids = {
        "example1": GridSpec(((0.0, 1.0, 41), (0.0, 2.2, 45), (0.0, 2.2, 45))),
        "example2": GridSpec(((0.0, 1.0, 41), (0.0, 2.2, 45), (0.0, 2.2, 45))),
        "synthetic2d": GridSpec(((0.0, 2.3, 12), (0.0, 2.3, 12), (0.0, 2.6, 12), (0.0, 2.6, 12))),
    }
    rng = np.random.default_rng(101)
    brute_ok = solver_ok = True
    for problem, _ in (example1, example2, synthetic):
        grid = grids[problem.name]
        box = problem.x_box
        for _ in range(200):
            x = rng.uniform(box[:, 0], box[:, 1])
            t1, t2 = np.sort(rng.uniform(1e-3, 0.6, size=2))
            if t2 - t1 < 1e-6:
                t2 = t1 + 1e-6
            b1 = brute_force_psi_t(problem, x, t1, grid).value
            b2 = brute_force_psi_t(problem, x, t2, grid).value
            brute_ok &= b1 <= b2
            s1 = evaluate_psi_t(problem, x, t1, SOLVE_CFG)
            s2 = evaluate_psi_t(problem, x, t2, SOLVE_CFG)
            if s1.status == "solved" and s2.status == "solved":
                solver_ok &= s1.value <= s2.value + 2 * EPS_LVL_DEFAULT
            else:
                solver_ok = False
    report(5, brute_ok and solver_ok, f"monotonicity over 200 pairs x 3 problems: brute exact {brute_ok}, solver within 2*eps_lvl {solver_ok}")


def test_criterion_06_stationarity_round_trip(example1, example2, synthetic, tiny_cfg):
    p1, _ = example1
    p2, _ = example2
    fixtures = [
        (p1, TriplePoint([0.5], [0.0], [0.5, 0.0])),
        (p2, TriplePoint([-1.0], [1.0], [0.0, 1.0])),
    ]
    ok = True
    for problem, pt in fixtures:
        mults = recover_c_multipliers(problem, pt, kind="C")
        ok &= mults is not None
        if mults is not None:
            rep = check_stationarity(problem, pt, mults, kind="C", tol=1e-8, inner_cfg=tiny_cfg)
            ok &= rep.verdict
    corpus = _implication_corpus(example1, example2, synthetic)
    ok &= len(corpus) >= 20
    for problem, pt in corpus:
        feas = {}
        for kind in ("S", "M", "C"):
            mults = recover_c_multipliers(problem, pt, kind=kind)
            feas[kind] = mults is not None
            if mults is not None:
                weaker = {"S": ("S", "M", "C"), "M": ("M", "C"), "C": ("C",)}[kind]
                for w in weaker:
                    ok &= check_stationarity(problem, pt, mults, kind=w, tol=1e-8, graph_check=False).verdict
        ok &= (not feas["S"] or feas["M"]) and (not feas["M"] or feas["C"])
    report(6, ok, f"multiplier recovery round trip at 1e-8 and S=>M=>C over {len(corpus)} fixture points")


def test_criterion_07_qualification_checks(example1, example2):
    p1, _ = example1
    p2, _ = example2
    q1 = check_qualification_Am(p1, TriplePoint([0.5], [0.0], [0.5, 0.0]))
    q2 = check_qualification_Am(p2, TriplePoint([-1.0], [1.0], [0.0, 1.0]))
    ok = q1.a1 and q1.a2 and q2.a1 and q2.a2
    report(7, ok, f"first/second multiplier-set conditions: example1 ({q1.a1},{q1.a2}), example2 ({q2.a1},{q2.a2})")


def test_criterion_08_excess_series(example1, example2):
    p1, _ = example1
    params1 = RelaxationParams(t0=0.5, rho=0.5, t_min=1e-3, outer=OuterConfig(inner=SOLVE_CFG))
    trace1 = scholtes_solve(p1, params1, [0.5])
    series1 = convergence_diagnostic(p1, trace1, [1.0], SOLVE_CFG)
    worst1 = max(
        abs(e.excess - (rec.t / rec.x[0] + abs(rec.x[0] - 1.0)))
        for e, rec in zip(series1.entries, trace1.records)
    )
    p2, _ = example2
    params2 = RelaxationParams(t0=1.0, rho=0.5, t_min=1e-4, outer=OuterConfig(inner=SOLVE_CFG))
    trace2 = scholtes_solve(p2, params2, [0.5])
    series2 = convergence_diagnostic(p2, trace2, [-1.0], SOLVE_CFG)
    ok2 = all(
        e.excess <= 2 * rec.t + 1e-3 for e, rec in zip(series2.entries, trace2.records)
    )
    ok = worst1 <= 1e-3 and ok2
    report(8, ok, f"argmax-excess series: example1 formula gap {worst1:.2e} (tol 1e-3), example2 bounded by 2t {ok2}")


def test_criterion_09_derivative_checks(example1, example2, synthetic):
    worst = 0.0
    for problem, _ in (example1, example2, synthetic):
        d = problem.dims
        rng = np.random.default_rng(7)
        for _ in range(50):
            pt = TriplePoint(
                rng.uniform(problem.x_box[:, 0], problem.x_box[:, 1]),
                rng.uniform(problem.y_box[:, 0], problem.y_box[:, 1]),
                rng.uniform(0.0, 1.0, size=d.q),
            )
            worst = max(worst, check_gradients_fd(problem, pt).max_error())
    report(9, worst <= 1e-5, f"derivative audit at 50 points per problem: max rel err {worst:.2e} (tol 1e-5)")


def test_criterion_10_set_limit_diagnostic(example1, example2):
    grid = GridSpec(((0.0, 1.0, 12), (0.0, 1.6, 18), (0.0, 1.6, 18)))
    h = grid.max_step()
    ok = True
    worst_final = 0.0
    for (problem, _), xs in ((example1, (0.3, 0.5, 0.8)), (example2, (-0.8, -0.5, 0.5))):
        for x in xs:
            base = sample_relaxed_set(problem, [x], 0.0, grid=grid)
            ds = [
                hausdorff(sample_relaxed_set(problem, [x], t, grid=grid), base)
                for t in (0.4, 0.2, 0.1, 0.05)
            ]
            ok &= all(b <= a for a, b in zip(ds, ds[1:]))
            ok &= ds[-1] <= 2 * h
            worst_final = max(worst_final, ds[-1])
    report(10, ok, f"set-limit diagnostic: nonincreasing and final gap {worst_final:.3f} <= 2*step {2*h:.3f}")


def test_criterion_11_determinism(tmp_path):
    args = [
        "solve", "--problem", "example2", "--t0", "0.5", "--rho", "0.5",
        "--tmin", "0.05", "--seed", "11", "--starts", "8", "--sweeps", "3",
    ]
    paths = [(tmp_path / f"t{i}.csv", tmp_path / f"s{i}.json") for i in range(3)]
    for trace, summary in paths:
        assert cli_main(args + ["--trace", str(trace), "--summary", str(summary)]) == 0
    traces = [p.read_bytes() for p, _ in paths]
    summaries = [p.read_bytes() for _, p in paths]
    ok = traces[0] == traces[1] == traces[2] and summaries[0] == summaries[1] == summaries[2]
    report(11, ok, "byte-identical trace and summary across three reruns")
