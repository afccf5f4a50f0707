import csv
import dataclasses
import json
import warnings

import numpy as np
import pytest

import pbopt
from pbopt import cli, scholtes
from pbopt.cli import main

FAST_SOLVE = ["--starts", "8", "--sweeps", "3", "--seed", "7"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read_trace(path):
    with open(path) as fh:
        first = fh.readline()
        assert first.startswith("# schema=")
        return list(csv.DictReader(fh))


def test_solve_example2(tmp_path, capsys):
    trace = tmp_path / "tr.csv"
    summary = tmp_path / "s.json"
    code, out, _ = run_cli(
        capsys,
        "solve", "--problem", "example2", "--t0", "1", "--rho", "0.5",
        "--tmin", "1e-4", "--trace", str(trace), "--summary", str(summary),
        *FAST_SOLVE,
    )
    assert code == 0
    data = json.loads(summary.read_text())
    assert data["schema"] == "pbopt-summary-1"
    assert abs(data["final_x"][0] + 1.0) <= 1e-3
    assert abs(data["final_psi"]) <= 1e-3
    rows = read_trace(trace)
    assert [int(r["k"]) for r in rows] == list(range(len(rows)))


def test_solve_trace_tracks_t_example1(tmp_path, capsys):
    trace = tmp_path / "tr.csv"
    code, _, _ = run_cli(
        capsys,
        "solve", "--problem", "example1", "--t0", "1", "--rho", "0.5",
        "--tmin", "1e-3", "--trace", str(trace), *FAST_SOLVE,
    )
    assert code == 0
    for row in read_trace(trace):
        t, x, psi = float(row["t"]), float(row["x0"]), float(row["psi"])
        if t <= x:
            assert abs(psi - t) <= 1e-3


def test_solve_with_stationarity_check(tmp_path, capsys):
    summary = tmp_path / "s.json"
    code, _, _ = run_cli(
        capsys,
        "solve", "--problem", "example2", "--t0", "0.5", "--rho", "0.5",
        "--tmin", "0.05", "--summary", str(summary), "--check", "C",
        "--trace", str(tmp_path / "t.csv"), *FAST_SOLVE,
    )
    assert code == 0
    data = json.loads(summary.read_text())
    assert data["stationarity"]["status"] == "checked"
    assert data["stationarity"]["verdict"] is True


def test_solve_check_polishes_the_final_point_onto_the_level_0_set(tmp_path, capsys):
    # the last level's argmax point lies in D_t, not D_0: example1's check
    # answered "not checked" on it, and synthetic2d's on a 3.8e-6 violation
    for problem, verdict in (("example1", True), ("synthetic2d", None)):
        summary = tmp_path / f"{problem}.json"
        code, _, _ = run_cli(
            capsys, "solve", "--problem", problem, "--check", "C",
            "--trace", str(tmp_path / f"{problem}.csv"), "--summary", str(summary),
        )
        assert code == 0
        st = json.loads(summary.read_text())["stationarity"]
        assert st["polished_violation"] <= 1e-12
        if verdict is None:  # no C-multipliers exist at x = (0.0021, 0.0016)
            assert st["status"] == "infeasible"
        else:
            assert st["status"] == "checked" and st["verdict"] is verdict


def test_solve_missing_problem_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "solve")
    assert code == 1
    assert "--problem" in err


def test_unknown_subcommand_usage(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1


def test_eval_values(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--problem", "example1", "--x", "0.5", "--t", "0.1", *FAST_SOLVE
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "solved"
    assert abs(data["value"] - 0.2) <= 1e-4
    code, out, _ = run_cli(
        capsys, "eval", "--problem", "example1", "--x", "0.5", "--t", "0", *FAST_SOLVE
    )
    data = json.loads(out)
    assert abs(data["value"]) <= 1e-4


def test_eval_overflowing_leader_point_is_nonfinite_not_infeasible(capsys):
    # Every residual overflows at x = 1e308: that is no evidence of an empty D_t.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "eval", "--problem", "example1", "--x", "1e308", "--t", "0.5", "--starts", "3", "--sweeps", "1"
        )
    assert code == 1
    assert json.loads(out)["status"] == "nonfinite"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in err


def test_eval_malformed_vector(capsys):
    code, _, err = run_cli(capsys, "eval", "--problem", "example1", "--x", "zz", "--t", "0.1")
    assert code == 1


def test_eval_wrong_dimension(capsys):
    code, _, _ = run_cli(capsys, "eval", "--problem", "example1", "--x", "0.5,0.5", "--t", "0.1")
    assert code == 1


def test_check_fixture_passes(tmp_path, capsys):
    point = tmp_path / "pt.json"
    point.write_text(json.dumps({"x": [0.5], "y": [0.0], "u": [0.5, 0.0]}))
    code, out, _ = run_cli(
        capsys, "check", "--problem", "example1", "--point", str(point), "--kind", "C"
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True
    assert data["residual_inf"] <= 1e-8


def test_check_corrupted_multipliers_flags_row(tmp_path, capsys):
    point = tmp_path / "pt.json"
    point.write_text(
        json.dumps(
            {
                "x": [0.5],
                "y": [0.0],
                "u": [0.5, 0.0],
                "multipliers": {"alpha": [0, 0], "beta": [0], "gamma": [1.0, 0.5]},
            }
        )
    )
    code, out, _ = run_cli(
        capsys, "check", "--problem", "example1", "--point", str(point), "--kind", "C"
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is False
    assert data["rows"]["eta_gamma"] == pytest.approx(0.5)


@pytest.mark.parametrize(
    "kind, multipliers, message",
    [
        ("C", {"alpha": [0, 0], "beta": [0], "gamma": [float("nan"), 0]}, "multiplier block gamma must be a finite vector of 2 entries"),
        ("S", {"alpha": [0, 0], "beta": [0, 0, 0], "gamma": [1, 0]}, "multiplier block beta must be a finite vector of 1 entries"),
        ("relaxed", {"alpha": [0, 0], "beta": [0], "gamma": [1, 0], "mu": [0, 0], "delta": [0, float("inf")]}, "multiplier block delta must be a finite vector of 2 entries"),
    ],
)
def test_check_refuses_nonfinite_or_misshaped_multipliers(tmp_path, capsys, kind, multipliers, message):
    # NaN multipliers used to exit 0 with verdict true; a misshaped block printed numpy's reshape error
    point = tmp_path / "pt.json"
    point.write_text(json.dumps({"x": [1.0], "y": [0.0], "u": [1.0, 0.0], "multipliers": multipliers}))
    code, out, err = run_cli(capsys, "check", "--problem", "example1", "--point", str(point), "--kind", kind)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_unknown_problem_error_is_unquoted(capsys):
    code, out, err = run_cli(capsys, "eval", "--problem", "nope", "--x", "0.5", "--t", "0.1")
    assert (code, out) == (1, "")
    assert err == f"error: unknown problem 'nope'; available: {', '.join(pbopt.problem_names())}\n"


def test_check_kind_s_fails_on_c_only_point(tmp_path, capsys):
    # biactive origin of the synthetic problem: C-stationary but not S
    point = tmp_path / "pt.json"
    point.write_text(json.dumps({"x": [0.0, 0.0], "y": [0.0, 0.0], "u": [0.0, 0.0]}))
    code_c, out_c, _ = run_cli(
        capsys, "check", "--problem", "synthetic2d", "--point", str(point), "--kind", "C"
    )
    code_s, out_s, _ = run_cli(
        capsys, "check", "--problem", "synthetic2d", "--point", str(point), "--kind", "S"
    )
    assert code_c == 0 and code_s == 0
    assert json.loads(out_c)["verdict"] is True
    assert json.loads(out_s)["verdict"] is False


def test_check_pattern_cap_refusal(tmp_path, capsys):
    # PATTERN_BUDGET is a walk's only limit, so check has no such flag; a refused walk
    # exits 3 (test_pattern_batch.py::test_a_walk_beyond_the_pattern_budget_is_refused)
    point = tmp_path / "pt.json"
    point.write_text(json.dumps({"x": [0.0, 0.0], "y": [0.0, 0.0], "u": [0.0, 0.0]}))
    code, out, err = run_cli(
        capsys, "check", "--problem", "synthetic2d", "--point", str(point),
        "--kind", "C", "--pattern-cap", "1",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: unrecognized arguments: --pattern-cap") and err.count("\n") == 1


def test_check_refuses_when_nnls_stops_at_its_limit(tmp_path, capsys, monkeypatch):
    from pbopt import simplex

    # the relaxed system at this point has no multipliers, which takes one NNLS solve to show
    point = tmp_path / "pt.json"
    point.write_text(json.dumps({"x": [0.0], "y": [1.0], "u": [0.0, 0.0], "t": 0.1}))
    argv = ("check", "--problem", "example1", "--point", str(point), "--kind", "relaxed")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["status"] == "no feasible multipliers"

    def at_limit(*args, **kwargs):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(simplex, "nnls", at_limit)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 3 and "iteration limit" in json.loads(out)["error"]


def test_check_infeasible_point_exit_code(tmp_path, capsys):
    point = tmp_path / "pt.json"
    point.write_text(json.dumps({"x": [0.5], "y": [0.9], "u": [2.0, 0.0]}))
    code, out, _ = run_cli(
        capsys, "check", "--problem", "example1", "--point", str(point), "--kind", "C"
    )
    assert code == 2


def test_check_relaxed_kind(tmp_path, capsys):
    point = tmp_path / "pt.json"
    point.write_text(json.dumps({"x": [1.0], "y": [0.1], "u": [1.0, 0.0], "t": 0.1}))
    code, out, _ = run_cli(
        capsys, "check", "--problem", "example1", "--point", str(point), "--kind", "relaxed"
    )
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_diagnose_series_matches_formula(tmp_path, capsys):
    trace = tmp_path / "tr.csv"
    code, _, _ = run_cli(
        capsys,
        "solve", "--problem", "example1", "--t0", "0.5", "--rho", "0.5",
        "--tmin", "0.02", "--trace", str(trace), *FAST_SOLVE,
    )
    assert code == 0
    out_csv = tmp_path / "ex.csv"
    code, out, _ = run_cli(
        capsys,
        "diagnose", "--problem", "example1", "--trace", str(trace),
        "--x-bar", "1.0", "--out", str(out_csv), *FAST_SOLVE,
    )
    assert code == 0
    rows = read_trace(trace)
    with open(out_csv) as fh:
        assert fh.readline().startswith("# schema=")
        series = list(csv.DictReader(fh))
    assert len(series) == len(rows)
    for srow, trow in zip(series, rows):
        formula = float(trow["t"]) / float(trow["x0"]) + abs(float(trow["x0"]) - 1.0)
        assert abs(float(srow["excess"]) - formula) <= 1e-3


def test_diagnose_empty_trace(tmp_path, capsys):
    bad = tmp_path / "empty.csv"
    bad.write_text("# schema=pbopt-trace-1\nk,t,x0,psi,inner_status,evals\n")
    code, _, err = run_cli(
        capsys, "diagnose", "--problem", "example1", "--trace", str(bad), "--x-bar", "1.0"
    )
    assert code == 1


@pytest.mark.parametrize("x0,x_bar", [("20", "1.0"), ("0.5", "20")])
def test_diagnose_infeasible_inner_problem_exits_2(tmp_path, capsys, x0, x_bar):
    # a trace row or an x-bar whose inner problem is empty is an error line, not a traceback
    trace = tmp_path / "tr.csv"
    trace.write_text(f"# schema=pbopt-trace-1\nk,t,x0\n0,0.5,{x0}\n")
    out_csv = tmp_path / "ex.csv"
    code, out, err = run_cli(
        capsys, "diagnose", "--problem", "example1", "--trace", str(trace), "--x-bar", x_bar, "--out", str(out_csv)
    )
    assert code == 2
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not out_csv.exists()


@pytest.mark.parametrize("x0,x_bar", [("1e308", "1.0"), ("0.5", "1e308")])
def test_diagnose_nonfinite_inner_problem_exits_1(tmp_path, capsys, x0, x_bar):
    # every start overflows there: an error line, not an empty cloud whose excess reads inf
    trace = tmp_path / "tr.csv"
    trace.write_text(f"# schema=pbopt-trace-1\nk,t,x0\n0,0.5,{x0}\n")
    out_csv = tmp_path / "ex.csv"
    code, out, err = run_cli(
        capsys, "diagnose", "--problem", "example1", "--trace", str(trace), "--x-bar", x_bar, "--out", str(out_csv)
    )
    assert code == 1
    assert out == "" and err.startswith("error: ") and "nonfinite" in err and err.count("\n") == 1
    assert not out_csv.exists()


def test_gradcheck_small(capsys):
    code, out, _ = run_cli(capsys, "gradcheck", "--problem", "example2", "--points", "5")
    assert code == 0
    data = json.loads(out)
    assert data["max_overall"] <= 1e-5
    assert data["nonfinite"] == []


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "example1", "t0": 0.5, "starts": 8, "sweeps": 3}))
    trace = tmp_path / "tr.csv"
    code, _, _ = run_cli(
        capsys,
        "solve", "--config", str(cfg), "--tmin", "0.2", "--trace", str(trace), "--seed", "3",
    )
    assert code == 0
    rows = read_trace(trace)
    assert float(rows[0]["t"]) == 0.5  # from file
    assert len(rows) == 2  # tmin flag override


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "example1", "bogus": 1}))
    code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 1
    assert "bogus" in err


def test_solve_infeasible_inner_exit_code(tmp_path, capsys):
    # no built-in problem is infeasible, so drive eval instead: empty relaxed
    # set cannot happen for benchlib; exercise exit 2 via eval on a point
    # outside the leader box is not infeasible either, so this uses check.
    point = tmp_path / "pt.json"
    point.write_text(json.dumps({"x": [0.5], "y": [0.9], "u": [2.0, 0.0]}))
    code, _, _ = run_cli(
        capsys, "check", "--problem", "example1", "--point", str(point), "--kind", "relaxed"
    )
    assert code == 2


def test_byte_identical_reruns(tmp_path, capsys):
    args = [
        "solve", "--problem", "example2", "--t0", "0.5", "--rho", "0.5",
        "--tmin", "0.05", *FAST_SOLVE,
    ]
    t1, t2, t3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    s1, s2, s3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    assert run_cli(capsys, *args, "--trace", str(t1), "--summary", str(s1))[0] == 0
    assert run_cli(capsys, *args, "--trace", str(t2), "--summary", str(s2))[0] == 0
    assert run_cli(capsys, *args, "--trace", str(t3), "--summary", str(s3))[0] == 0
    assert t1.read_bytes() == t2.read_bytes() == t3.read_bytes()
    assert s1.read_bytes() == s2.read_bytes() == s3.read_bytes()


@pytest.mark.parametrize(
    "extra",
    [
        ["--x", "0.5", "--t", "0.1", "--starts", "0"],
        ["--x", "0.5", "--t", "0.1", "--starts", "-3"],
        ["--x", "nan", "--t", "0.1"],
        ["--x", "0.5", "--t", "inf"],
    ],
)
def test_eval_bad_input_is_a_usage_error(capsys, extra):
    code, out, err = run_cli(capsys, "eval", "--problem", "example1", *extra)
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_removed_workers_flag_is_a_usage_error_and_threads_env_is_not_read(tmp_path, capsys, monkeypatch):
    args = ["eval", "--problem", "example2", "--x", "-0.3", "--t", "0.2", *FAST_SOLVE]
    base = run_cli(capsys, *args)
    assert base[0] == 0
    code, out, err = run_cli(capsys, *args, "--workers", "4")
    assert code == 1 and out == "" and "--workers" in err
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"workers": 2}))
    code, _, err = run_cli(capsys, *args, "--config", str(config))
    assert code == 1 and "workers" in err
    monkeypatch.setenv("PESSIM_THREADS", "two")
    assert run_cli(capsys, *args) == base


def test_eval_flags_a_leader_point_whose_G_is_not_finite(capsys, monkeypatch):
    problem, oracle = pbopt.get_problem("example1")
    nan_G = dataclasses.replace(problem, eval_G=lambda x: np.full(2, np.nan))
    monkeypatch.setattr(cli, "get_problem", lambda name: (nan_G, oracle))
    code, out, _ = run_cli(capsys, "eval", "--problem", "example1", "--x", "0.5", "--t", "0.1", *FAST_SOLVE)
    assert code == 0
    assert json.loads(out)["leader_infeasible"] is True


@pytest.mark.parametrize("extra", [["--max-outer", "0"], ["--max-outer", "-2"], ["--x-tol", "inf"]])
def test_solve_bad_schedule_is_a_usage_error(tmp_path, capsys, extra):
    # a run that could do no work used to exit 0 with an empty trace
    trace = tmp_path / "tr.csv"
    code, out, err = run_cli(capsys, "solve", "--problem", "example2", "--trace", str(trace), *extra)
    assert code == 1
    assert err.startswith("error:")
    assert out == ""
    assert not trace.exists()


@pytest.mark.parametrize("x, outside", [("5", True), ("-0.5", True), ("0.5", False), ("1.0", False)])
def test_eval_flags_leader_point_outside_x(capsys, x, outside):
    code, out, _ = run_cli(capsys, "eval", "--problem", "example1", "--x", x, "--t", "0.1", *FAST_SOLVE)
    report = json.loads(out)
    assert report["leader_infeasible"] is outside
    # the flag is informational: value, status and exit code are unchanged
    assert code == 0
    assert report["status"] == "solved"


@pytest.mark.parametrize("x0", ["0.5", "0.5,0.5,0.5", "nan,0.5", "0.5,inf"])
def test_solve_bad_x0_is_a_usage_error(tmp_path, capsys, x0):
    # synthetic2d has two leader variables; a one-entry x0 used to be broadcast
    trace = tmp_path / "tr.csv"
    code, out, err = run_cli(capsys, "solve", "--problem", "synthetic2d", "--x0", x0, "--trace", str(trace), *FAST_SOLVE)
    assert code == 1
    assert err.startswith("error:")
    assert out == ""
    assert not trace.exists()


BAD_INPUTS = {
    "config_wrong_type": ["solve", "--config", "cfg_type.json"],
    "config_not_an_object": ["solve", "--problem", "example2", "--config", "cfg_list.json"],
    "config_bad_check": ["solve", "--config", "cfg_check.json"],
    "trace_unwritable": ["solve", "--problem", "example2", "--max-outer", "1", "--trace", "no_dir/tr.csv", *FAST_SOLVE],
    "trace_of_other_problem": ["diagnose", "--problem", "synthetic2d", "--trace", "tr1.csv", "--x-bar", "0,0"],
    "no_gradcheck_points": ["gradcheck", "--problem", "example1", "--points", "0"],
    "removed_pattern_cap_flag": ["check", "--problem", "example1", "--point", "pt.json", "--pattern-cap", "-1"],
    "nan_level": ["check", "--problem", "example1", "--point", "pt.json", "--kind", "relaxed", "--t", "nan"],
    "bool_level_in_point": ["check", "--problem", "example1", "--point", "pt_bool_t.json", "--kind", "relaxed"],
    "config_huge_u_max": ["eval", "--config", "cfg_huge.json", "--x", "0.5", "--t", "0.1"],
    "huge_int_in_point": ["check", "--problem", "example1", "--point", "pt_huge.json"],
    "nan_in_point": ["check", "--problem", "example1", "--point", "pt_nan.json", "--kind", "C"],
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_malformed_inputs_are_usage_errors(tmp_path, capsys, monkeypatch, name):
    # each of these used to raise a traceback or to exit 0 or 3
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg_type.json").write_text(json.dumps({"problem": "example2", "starts": "many"}))
    (tmp_path / "cfg_list.json").write_text("[1, 2]")
    (tmp_path / "cfg_check.json").write_text(json.dumps({"problem": "example2", "check": "Q", "max_outer": 1}))
    (tmp_path / "tr1.csv").write_text("# schema=pbopt-trace-1\nk,t,x0,psi,inner_status,evals\n0,0.5,-1,0,solved,3\n")
    (tmp_path / "pt.json").write_text(json.dumps({"x": [0.5], "y": [0.0], "u": [0.5, 0.0]}))
    (tmp_path / "pt_bool_t.json").write_text(json.dumps({"x": [0.5], "y": [0.0], "u": [0.5, 0.0], "t": True}))
    # a JSON integer too large for a float; it raised OverflowError
    (tmp_path / "cfg_huge.json").write_text(json.dumps({"problem": "example1", "u_max": 10**400}))
    (tmp_path / "pt_huge.json").write_text(json.dumps({"x": [10**400], "y": [0.0], "u": [0.5, 0.0]}))
    # it exited 2, "'stationarity' violates by nan", as if the point were infeasible
    (tmp_path / "pt_nan.json").write_text('{"x": [NaN], "y": [0.0], "u": [0.5, 0.0]}')
    code, out, err = run_cli(capsys, *BAD_INPUTS[name])
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["C", "M", "S", "relaxed"])
def test_check_leaves_the_level_refusal_to_the_library(tmp_path, capsys, kind):
    # every kind refuses a negative level with relaxation_level's message
    point = tmp_path / "pt.json"
    point.write_text(json.dumps({"x": [0.5], "y": [0.0], "u": [0.5, 0.0]}))
    code, out, err = run_cli(capsys, "check", "--problem", "example1", "--point", str(point), "--kind", kind, "--t", "-1")
    assert (code, out) == (1, "")
    assert err == "error: relaxation level t must be finite and nonnegative, got -1.0\n"


def test_summary_counts_the_batched_inner_calls(monkeypatch, tmp_path, capsys):
    calls = []
    solve = scholtes.evaluate_psi_t_batch

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(scholtes, "evaluate_psi_t_batch", counted)
    summary = tmp_path / "s.json"
    code, _, _ = run_cli(
        capsys, "solve", "--problem", "example2", "--t0", "0.5", "--tmin", "0.1",
        "--trace", str(tmp_path / "tr.csv"), "--summary", str(summary), *FAST_SOLVE,
    )
    assert code == 0
    assert json.loads(summary.read_text())["inner_calls"] == len(calls) > 0


def test_reports_carry_unread_evals_and_multiplier_status(tmp_path, capsys):
    summary = tmp_path / "s.json"
    code, _, _ = run_cli(
        capsys, "solve", "--problem", "example2", "--t0", "0.5", "--tmin", "0.1", "--check", "C",
        "--trace", str(tmp_path / "tr.csv"), "--summary", str(summary), *FAST_SOLVE,
    )
    assert code == 0
    data = json.loads(summary.read_text())
    assert data["unread_evals"] == 0
    assert data["stationarity"]["multipliers"] == "least_norm"
    point = tmp_path / "pt.json"
    point.write_text(json.dumps({"x": [0.5], "y": [0.0], "u": [0.5, 0.0]}))
    code, out, _ = run_cli(capsys, "check", "--problem", "example1", "--point", str(point))
    assert code == 0 and json.loads(out)["multipliers"] == "least_norm"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--problem", "example1", "--point", "pt.json", "--starts", "0", "--sweeps", "0", "--u-max", "-3"],
        ["check", "--problem", "example1", "--point", "pt.json", "--seed", "1"],
        ["gradcheck", "--problem", "example1", "--starts", "0", "--sweeps", "0"],
        ["gradcheck", "--problem", "example1", "--points", "1", "--u-max", "2"],
    ],
)
def test_flags_a_subcommand_never_reads_are_refused(tmp_path, capsys, monkeypatch, argv):
    # check reads no inner-solver flag and gradcheck only --seed; both used to exit 0 on them
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pt.json").write_text(json.dumps({"x": [0.5], "y": [0.0], "u": [0.5, 0.0]}))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and out == ""


def test_config_keys_stay_shared_across_subcommands(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pt.json").write_text(json.dumps({"x": [0.5], "y": [0.0], "u": [0.5, 0.0]}))
    (tmp_path / "cfg.json").write_text(json.dumps({"problem": "example1", "seed": 3, "starts": 4, "sweeps": 1, "u_max": 5.0}))
    code, _, _ = run_cli(capsys, "check", "--config", "cfg.json", "--point", "pt.json")
    assert code == 0
    code, _, _ = run_cli(capsys, "gradcheck", "--config", "cfg.json", "--points", "1", "--seed", "4")
    assert code == 0


def test_summary_reports_the_first_order_gap_or_why_the_gradient_was_refused(monkeypatch, tmp_path, capsys):
    argv = ["solve", "--problem", "synthetic2d", "--t0", "0.5", "--tmin", "0.25", "--trace", str(tmp_path / "tr.csv"), *FAST_SOLVE]
    code, out, _ = run_cli(capsys, *argv)
    data = json.loads(out)
    assert code == 0 and data["gradient_refusal"] is None
    # the box-projected gradient at the end of a level confirmed at a mesh of 1.5e-5
    assert 0.0 <= data["first_order_gap"] <= 1e-4
    header = read_trace(tmp_path / "tr.csv")[0].keys()
    assert list(header) == ["k", "t", "x0", "x1", "psi", "inner_status", "evals"]
    monkeypatch.setattr(cli, "psi_t_gradient", lambda *args: pbopt.maxmin.PsiGradient(None, "the cloud disagrees"))
    code, out, _ = run_cli(capsys, *argv)
    data = json.loads(out)
    assert code == 0 and data["first_order_gap"] is None and data["gradient_refusal"] == "the cloud disagrees"
