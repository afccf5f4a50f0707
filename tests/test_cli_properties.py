"""Property test of the command line: no argv makes ``pbopt`` raise.

Every generated argv must end in an exit code in {0, 1, 2, 3}; the only
exception allowed out of ``main`` is argparse's SystemExit(0) after --help.
Tokens come from a vocabulary of subcommands, flags and values, malformed,
non-finite and out-of-range ones included, plus the names of a valid point,
config and trace file and of paths that cannot be read or written.  Budget
flags appended after the generated ones (the last occurrence wins) keep each
run short.
"""
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pbopt.cli import main

COMMANDS = ("solve", "eval", "check", "diagnose", "gradcheck", "frobnicate")
# Value pools list the usable values twice, so that most runs get past parsing.
PROBLEMS = ("example1", "example2", "synthetic2d") * 2 + ("nope",)
NUMBERS = ("1", "2", "3", "0.5", "0.25") * 2 + ("0", "-3", "-1", "1e308", "-1e-300", "nan", "inf", "-inf", "abc", "")
VECTORS = ("0.5", "-1", "0.5,0.5") * 2 + ("0.5,", "nan", "1e308", "abc", "")
FILES = ("point.json", "config.json", "trace.csv") * 2 + (
    "bad_config.json", "list.json", "missing.json", "no_dir/out.csv", ".")
# Values drawn for each flag; any other flag takes a number.
POOLS = {
    "--problem": PROBLEMS, "--config": FILES, "--trace": FILES, "--summary": FILES, "--point": FILES,
    "--out": FILES, "--x0": VECTORS, "--x": VECTORS, "--x-bar": VECTORS, "--check": ("C", "M", "S", "Q"),
    "--kind": ("C", "M", "S", "relaxed", "Q"),
}
COMMON = ("--problem", "--config")
INNER = ("--seed", "--starts", "--sweeps", "--u-max")  # only the subcommands that run the inner solver
FLAGS = {
    "solve": COMMON + INNER + ("--t0", "--rho", "--tmin", "--x0", "--max-outer", "--x-tol", "--trace", "--summary", "--check"),
    "eval": COMMON + INNER + ("--x", "--t"),
    "check": COMMON + ("--point", "--kind", "--t"),
    "diagnose": COMMON + INNER + ("--trace", "--x-bar", "--out"),
    "gradcheck": COMMON + ("--seed", "--points"),
}
ANY_TOKEN = tuple(sorted({f for flags in FLAGS.values() for f in flags})) + ("--help", "--no-such-flag") + NUMBERS + FILES
# Flags each command needs to get past its argument checks.
NEEDS = {"eval": ("--x", "--t"), "check": ("--point",), "diagnose": ("--trace", "--x-bar")}
BUDGET = {
    "solve": ["--starts", "3", "--sweeps", "1", "--max-outer", "2"],
    "eval": ["--starts", "3", "--sweeps", "1"],
    "diagnose": ["--starts", "3", "--sweeps", "1"],
    "gradcheck": ["--points", "2"],
}


def write_inputs(root) -> None:
    (root / "point.json").write_text(json.dumps({"x": [0.5], "y": [0.0], "u": [0.5, 0.0]}))
    (root / "config.json").write_text(json.dumps({"problem": "example2", "starts": 4}))
    (root / "bad_config.json").write_text(json.dumps({"starts": "many", "x0": 5, "check": "Q"}))
    (root / "list.json").write_text("[1, 2]")
    (root / "trace.csv").write_text("# schema=pbopt-trace-1\nk,t,x0,psi,inner_status,evals\n0,0.5,-1,0,solved,3\n")


def flag_value(flag: str):
    return st.sampled_from(POOLS.get(flag, NUMBERS)).map(lambda value: [flag, value])


@st.composite
def argvs(draw):
    """A command, usually a problem and the flags it needs, then more tokens and the budget."""
    command = draw(st.sampled_from(COMMANDS + ("",)))
    argv = [command] if command else []
    if draw(st.integers(0, 4)):
        argv += draw(flag_value("--problem"))
    for flag in NEEDS.get(command, ()):
        if draw(st.integers(0, 4)):
            argv += draw(flag_value(flag))
    # mostly the command's own flags with values, sometimes any token at all
    own = st.sampled_from(FLAGS.get(command, COMMON)).flatmap(flag_value)
    stray = st.sampled_from(ANY_TOKEN).map(lambda tok: [tok])
    tokens = draw(st.lists(st.one_of(own, own, own, stray), max_size=4))
    return argv + [tok for group in tokens for tok in group] + BUDGET.get(command, [])


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(argv=argvs())
def test_no_argv_raises(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse prints the help and exits
        assert "--help" in argv and exc.code == 0, argv
        code = 0
    capsys.readouterr()
    assert code in (0, 1, 2, 3), argv
