"""Inner-solver outputs pinned at seeded draws.

The JSON fixture holds what ``evaluate_psi_t`` returned at seeded (problem,
x, t) draws on example1, example2, example2 rebuilt without its Hessians
(the finite-difference path) and synthetic2d, under three configs; a few
``evaluate_psi_t_batch`` rows; and ``psi_t_gradient`` at solved draws.
Status, rounds, evals, the argmax row count and a gradient's refusal must
match exactly; value, argmax points and gradient within
VALUE_TOL * (1 + |v|).  A change that only makes the solver faster must
pass unregenerated.  Regenerate the fixture only for an intended change of
behaviour:

    PYTHONPATH=src python tests/test_inner_pinned.py --write
"""
from __future__ import annotations

import json
import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import pbopt
from pbopt import InnerConfig, evaluate_psi_t, evaluate_psi_t_batch
from pbopt.maxmin import psi_t_gradient

from toys import fd_copy

FIXTURE = Path(__file__).parent / "data" / "inner_pinned.json"
VALUE_TOL = 1e-12
# "short" runs out of ascent trials, so its starts go on to later rounds
CONFIGS = {
    "light": InnerConfig(starts=10, local_maxiter=80),
    "default": InnerConfig(),
    "short": InnerConfig(starts=8, local_maxiter=3),
}
PROBLEMS = ("example1", "example2", "example2_fd", "synthetic2d")
DRAWS = 15  # per problem; every fifth at t = 0
BATCH_ROWS = 3
GRADIENT_DRAWS = 3  # per problem, the first draws at t > 0


@lru_cache(maxsize=None)
def _problems() -> dict:
    out = {name: pbopt.get_problem(name)[0] for name in ("example1", "example2", "synthetic2d")}
    out["example2_fd"] = fd_copy(out["example2"])
    return out


def _leader(problem, rng, rows: int) -> np.ndarray:
    box = problem.x_box
    return rng.uniform(box[:, 0], box[:, 1], size=(rows, problem.dims.n))


@lru_cache(maxsize=None)
def _cases() -> dict:
    """label -> (kind, problem name, config name, leader point or block, t)."""
    cases = {}
    for j, name in enumerate(PROBLEMS):
        problem = _problems()[name]
        rng = np.random.default_rng(4800 + j)
        for i in range(DRAWS):
            x = _leader(problem, rng, 1)[0]
            t = 0.0 if i % 5 == 4 else float(10.0 ** rng.uniform(-6.0, 0.0))
            for cfg in CONFIGS:
                cases[f"{name}_{i:02d}_{cfg}"] = ("solve", name, cfg, x, t)
            if i < GRADIENT_DRAWS:
                cases[f"{name}_{i:02d}_gradient"] = ("gradient", name, "light", x, t)
        t = float(10.0 ** rng.uniform(-4.0, 0.0))
        cases[f"{name}_batch"] = ("batch", name, "light", _leader(problem, rng, BATCH_ROWS), t)
    return cases


def _result(res) -> dict:
    return {
        "status": res.status,
        "rounds": res.rounds,
        "evals": res.evals,
        "argmax_rows": len(res.argmax),
        "value": res.value,
        "argmax": res.argmax.points.tolist(),
    }


def _observe(label: str) -> dict:
    kind, name, cfg_name, x, t = _cases()[label]
    problem, cfg = _problems()[name], CONFIGS[cfg_name]
    if kind == "batch":
        return {"rows": [_result(res) for res in evaluate_psi_t_batch(problem, x, t, cfg)]}
    res = evaluate_psi_t(problem, x, t, cfg)
    if kind == "solve":
        return _result(res)
    grad = psi_t_gradient(problem, x, t, res.argmax, cfg)
    return {
        "status": res.status,
        "refusal": grad.refusal,
        "grad": None if grad.grad is None else grad.grad.tolist(),
    }


def _close(got, want, what: str) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, (what, got.shape, want.shape)
    same_nan = np.isnan(got) == np.isnan(want)
    assert same_nan.all(), (what, got, want)
    ok = np.isnan(want) | (np.abs(got - want) <= VALUE_TOL * (1.0 + np.abs(want)))
    assert ok.all(), (what, got, want)


def _check_result(got: dict, want: dict, what: str) -> None:
    for key in ("status", "rounds", "evals", "argmax_rows"):
        assert got[key] == want[key], (what, key, got[key], want[key])
    _close(got["value"], want["value"], f"{what}.value")
    _close(np.reshape(got["argmax"], (got["argmax_rows"], -1)), np.reshape(want["argmax"], (want["argmax_rows"], -1)), f"{what}.argmax")


@lru_cache(maxsize=None)
def _pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(_pinned()) == sorted(_cases())


@pytest.mark.parametrize("label", sorted(_cases()))
def test_pinned(label):
    want, got = _pinned()[label], _observe(label)
    kind = _cases()[label][0]
    if kind == "batch":
        assert len(got["rows"]) == len(want["rows"])
        for r, (g, w) in enumerate(zip(got["rows"], want["rows"])):
            _check_result(g, w, f"row {r}")
    elif kind == "solve":
        _check_result(got, want, label)
    else:
        assert (got["status"], got["refusal"]) == (want["status"], want["refusal"])
        assert (got["grad"] is None) == (want["grad"] is None)
        if want["grad"] is not None:
            _close(got["grad"], want["grad"], "grad")


def test_the_fixture_holds_level_zero_several_rounds_and_gradients():
    """The fixture is not all one kind of answer: solves at t = 0, solves of more than one round, and a gradient."""
    pinned = _pinned()
    solves = [(label, pinned[label]) for label, case in _cases().items() if case[0] == "solve"]
    assert any(_cases()[label][4] == 0.0 for label, _ in solves)
    assert any(res["rounds"] > 1 for _, res in solves)
    assert sum(res["status"] == "solved" for _, res in solves) >= len(solves) // 2
    assert any(pinned[label]["grad"] is not None for label, case in _cases().items() if case[0] == "gradient")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {label: _observe(label) for label in sorted(_cases())}
    assert all(math.isfinite(res["value"]) or res["status"] != "solved" for res in data.values() if "value" in res)
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {FIXTURE}")
