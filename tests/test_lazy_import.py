"""Import cost: ``import pbopt`` loads nothing until a name is used, and the
CLI paths that need no certifier load no scipy module.

Each check runs in a fresh interpreter, since this process has long since
imported everything.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pbopt

SRC = str(Path(pbopt.__file__).resolve().parent.parent)

EXPORTS = {
    "benchlib": [
        "AnalyticOracle", "get_problem", "make_example1", "make_example2", "make_synthetic2d", "oracle_grid",
        "problem_names",
    ],
    "kkt": [
        "IndexSets", "InfeasiblePointError", "KktResidual", "SlaterResult", "check_slater",
        "check_upper_regularity", "classify_indices", "kkt_residual",
    ],
    "maxmin": [
        "BruteForceResult", "GridSpec", "InnerConfig", "InnerInfeasibleError", "InnerSolveResult", "SampledSet",
        "approximate_argmax_set", "brute_force_psi_t", "evaluate_psi_t", "evaluate_psi_t_batch",
    ],
    "problem_model": [
        "BilevelProblem", "GradCheckReport", "ProblemDims", "TriplePoint", "check_gradients_fd",
        "lagrangian_grad", "lagrangian_jacobians",
    ],
    "scholtes": [
        "MinimizeResult", "OuterConfig", "OuterInfeasibleError", "RelaxationParams", "RunTrace", "TraceRecord",
        "minimize_psi_t", "scholtes_solve",
    ],
    "setvalued": ["ExcessEntry", "ExcessSeries", "convergence_diagnostic", "excess", "hausdorff", "sample_relaxed_set"],
    "stationarity": [
        "BorderlineActivityWarning", "Multipliers", "PatternCapError", "QualificationReport",
        "RelaxedMultipliers", "StationarityReport", "check_cq1", "check_qualification_Am",
        "check_relaxed_stationarity", "check_stationarity", "recover_c_multipliers",
        "recover_relaxed_multipliers",
    ],
}
SUBMODULES = ["benchlib", "cli", "kkt", "maxmin", "problem_model", "scholtes", "setvalued", "simplex", "stationarity"]

# Prints the pbopt submodules and scipy modules loaded by the code in argv[1].
LOADED = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.startswith(("pbopt.", "scipy.")) or m == "scipy")))
"""

# Runs each pbopt command of the JSON list in argv[2] in this one process and
# prints a JSON list of [exit code, stdout]; with argv[1] == "block", any
# import of scipy raises ImportError.
RUN_CLI = """
import contextlib, importlib.abc, io, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

if sys.argv[1] == "block":
    sys.meta_path.insert(0, NoScipy())
from pbopt.cli import main

results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def python(*args, cwd=None) -> str:
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded(code: str) -> list[str]:
    return json.loads(python("-c", LOADED, code))


def test_import_pbopt_loads_no_submodule_and_no_scipy():
    assert loaded("import pbopt") == []


def test_every_exported_name_is_its_modules_object_and_listed():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == 58
    assert sorted(pbopt.__all__) == sorted(names)
    listing = dir(pbopt)
    for module, exported in EXPORTS.items():
        mod = getattr(pbopt, module)
        for name in exported:
            assert getattr(pbopt, name) is getattr(mod, name), name
            assert name in listing, name
    for module in SUBMODULES:
        assert module in listing and getattr(pbopt, module) is sys.modules[f"pbopt.{module}"]
    try:
        pbopt.no_such_name
    except AttributeError as err:
        assert "no_such_name" in str(err)
    else:
        raise AssertionError("an unknown name resolved")


def test_a_name_loads_only_its_module_and_what_that_imports():
    assert loaded("import pbopt; pbopt.GridSpec") == ["pbopt.maxmin", "pbopt.problem_model"]
    assert loaded("import pbopt; pbopt.scholtes_solve") == ["pbopt.maxmin", "pbopt.problem_model", "pbopt.scholtes"]
    assert "scipy.optimize" in loaded("import pbopt; pbopt.check_stationarity")


def test_maxmin_loads_no_scipy_and_serves_minimize_on_demand():
    assert loaded("import pbopt.maxmin") == ["pbopt.maxmin", "pbopt.problem_model"]
    check = "import pbopt.maxmin, scipy.optimize; assert pbopt.maxmin.minimize is scipy.optimize.minimize"
    assert "scipy.optimize" in loaded(check)


def test_cli_without_the_certifier_runs_with_scipy_blocked(tmp_path):
    short = ["--t0", "1", "--rho", "0.5", "--tmin", "0.25"]
    commands = [
        ["eval", "--problem", "example1", "--x", "0.5", "--t", "0.1"],
        ["eval", "--problem", "example2", "--x", "0.1", "--t", "0.3"],
        ["eval", "--problem", "synthetic2d", "--x=0.4,-0.2", "--t", "0.05"],
        ["solve", "--problem", "example1", *short, "--trace", "t1.csv"],
        ["solve", "--problem", "example2", *short, "--trace", "t2.csv", "--summary", "s2.json"],
        ["solve", "--problem", "synthetic2d", "--t0", "0.5", "--rho", "0.5", "--tmin", "0.25", "--trace", "t3.csv"],
        ["diagnose", "--problem", "example2", "--trace", "t2.csv", "--x-bar", "-1", "--out", "excess.csv"],
        ["gradcheck", "--problem", "example1", "--points", "3"],
        ["gradcheck", "--problem", "synthetic2d", "--points", "3"],
    ]
    (tmp_path / "pt.json").write_text(json.dumps({"x": [0.5], "y": [0.0], "u": [0.5, 0.0]}))
    certifier = [
        ["check", "--problem", "example1", "--point", "pt.json", "--kind", "C"],
        ["solve", "--problem", "example1", *short, "--trace", "t4.csv", "--check", "C"],
    ]
    blocked = json.loads(python("-c", RUN_CLI, "block", json.dumps(commands), cwd=tmp_path))
    free = json.loads(python("-c", RUN_CLI, "free", json.dumps(commands + certifier), cwd=tmp_path))
    assert [code for code, _ in blocked] == [0] * len(commands)
    assert blocked == free[: len(commands)]
    assert [code for code, _ in free[len(commands):]] == [0, 0]
    assert json.loads(free[-2][1])["verdict"] is True
    assert json.loads(free[-1][1])["stationarity"]["status"] == "checked"
